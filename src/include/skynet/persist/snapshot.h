// Barrier-consistent engine snapshots.
//
// A snapshot captures, at one tick/finish barrier, everything needed to
// restart the pipeline as if it had never stopped: the interned
// location table (paths in id order), every shard engine's persist
// state, the region routing table, optional incident-log entries, and
// the journal offset the snapshot corresponds to. Recovery loads the
// newest valid snapshot and replays the journal suffix past its offset.
//
// Format (version 2): binary, in the persist codec (report_codec.h).
// An 8-byte magic and a u32 version, the fixed meta fields, the path
// dictionary — the location table in id order, then any path the state
// names that the table does not hold — the engine, overload, lifecycle
// and log sections, and a CRC-32C of everything before it as the last
// four bytes. Alerts, incidents and reports name their paths by
// dictionary index, so each path is written once per file. Files are
// written to a temporary name and atomically renamed, so a crash
// mid-write leaves either the previous snapshot set or a complete new
// file — never a half-written one that parses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "skynet/common/error.h"
#include "skynet/core/incident_log.h"
#include "skynet/core/sharded_engine.h"
#include "skynet/lifecycle/manager.h"
#include "skynet/overload/controller.h"
#include "skynet/persist/report_codec.h"

namespace skynet::persist {

inline constexpr std::string_view snapshot_magic = "SKYNETSN";
inline constexpr std::uint32_t snapshot_version = 2;

/// Everything one snapshot file holds. A sequential skynet_engine is
/// stored as a one-shard engines state with no region entries.
struct snapshot_data {
    std::uint64_t seq{0};
    /// Journal offset this snapshot is consistent with: replay starts
    /// here.
    std::uint64_t journal_bytes{0};
    /// Journal records accounted for up to that offset (resume
    /// continues the count).
    std::uint64_t journal_records{0};
    /// Barrier time the snapshot was taken at.
    sim_time barrier_time{0};
    /// The interned location table in id order as (parent id, last
    /// segment) entries (id 1 first; the root is implicit). Restored
    /// before any engine state so every stored location_id resolves
    /// identically.
    std::vector<codec::path_entry> locations;
    sharded_engine::persist_state engines;
    /// Overload-controller state (admission window, dedup keys, breaker
    /// machines, counters). All-default when no controller was active —
    /// the section is always written so the format stays fixed-shape.
    overload::controller::persist_state overload;
    /// Life-cycle manager state (lineages, diff, collected reports).
    /// All-default when the lifecycle layer is off; the section is
    /// always written so the format stays fixed-shape.
    lifecycle::manager::persist_state lifecycle;
    std::vector<incident_log::entry> log;
};

/// Serializes to the binary format, CRC trailer included.
[[nodiscard]] std::string render_snapshot(const snapshot_data& data);

struct snapshot_parse_result {
    std::optional<snapshot_data> data;
    /// Parse/CRC failure with its byte offset; empty on success.
    std::string error;

    [[nodiscard]] bool ok() const noexcept { return data.has_value(); }
};

/// Checks the magic, version and CRC trailer, then parses. Corruption
/// and other versions are reported in `error`, never thrown.
[[nodiscard]] snapshot_parse_result parse_snapshot(std::string_view bytes);

/// `snap-<seq>.skysnap` (zero-padded so lexical and numeric order agree).
[[nodiscard]] std::string snapshot_filename(std::uint64_t seq);

/// Writes `dir/snap-<seq>.skysnap` via a temp file + atomic rename.
[[nodiscard]] error write_snapshot(const std::string& dir, const snapshot_data& data);

struct skipped_snapshot {
    std::string file;
    std::string reason;
};

struct snapshot_pick {
    /// Newest snapshot that passed CRC + parse + journal-offset checks;
    /// nullopt when none did (recovery then replays the whole journal).
    std::optional<snapshot_data> data;
    std::string file;
    /// Newer candidates passed over, with reasons (surfaces corruption
    /// instead of hiding it).
    std::vector<skipped_snapshot> skipped;
};

/// Scans `dir` for snapshot files, newest sequence first, and returns
/// the first valid one. A snapshot whose journal offset lies past
/// `journal_valid_bytes` references journal data that never became
/// durable and is skipped.
[[nodiscard]] snapshot_pick load_newest_snapshot(const std::string& dir,
                                                 std::uint64_t journal_valid_bytes);

}  // namespace skynet::persist
