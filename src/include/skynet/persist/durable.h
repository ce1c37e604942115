// durable_session<Engine>: the write-ahead path of the persist layer.
//
// Wraps a sequential or sharded engine so that every ingest batch and
// every barrier is journaled *before* it is applied (WAL ordering: a
// crash between the two is recovered by replaying the record), and a
// barrier-consistent snapshot is checkpointed every N barriers. For the
// sharded engine the checkpoint rides the existing tick barrier —
// export_state() drains all queues first, so every shard is captured at
// the same logical instant without any new synchronization.
//
// Resuming after recover(): construct the session with resume_records /
// next_snapshot_seq / base taken from the recovery_result and re-stream
// the same input; the first resume_records regenerated records are
// already durable and applied, so the session skips them (neither
// journaled nor fed to the engine) and seamlessly continues after.
//
// crash_after is the fault hook behind the crash drill: after the Nth
// journal record is appended and flushed — before it reaches the engine
// — the process exits hard (std::_Exit), simulating a crash at an exact
// record boundary.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <span>
#include <string>

#include "skynet/core/incident_log.h"
#include "skynet/core/sharded_engine.h"
#include "skynet/persist/journal.h"
#include "skynet/persist/snapshot.h"
#include "skynet/topology/location_table.h"

namespace skynet::persist {

struct durable_options {
    /// Directory for journal.skywal and snap-*.skysnap (created).
    std::string dir;
    /// Barriers between checkpoints; 0 journals without checkpointing.
    std::uint64_t checkpoint_every{8};
    /// Journal records between flushes (checkpoints and finish flush
    /// unconditionally).
    std::size_t flush_every{16};
    /// Crash drill: exit the process after this many journal records
    /// (total, including any resumed base); 0 disables.
    std::uint64_t crash_after{0};
    /// Resume: records already durable and applied via recover().
    std::uint64_t resume_records{0};
    /// Resume style. false (the default) is the re-streaming convention:
    /// the caller regenerates the input from the start, so the first
    /// resume_records records are skipped (already durable and applied).
    /// true is direct continuation (the daemon's convention): the engine
    /// already holds the recovered state and only *new* input follows,
    /// so nothing is skipped — resume_records only seeds the record
    /// count for checkpoint bookkeeping.
    bool continue_after_recovery{false};
    /// Resume: recovery_result::next_snapshot_seq.
    std::uint64_t next_snapshot_seq{1};
    /// Resume: recovery_result::metrics, folded into metrics().
    recovery_metrics base{};
    /// Checkpoint inputs: the pipeline's location table (required for
    /// checkpoints) and an optional incident log to snapshot alongside.
    location_table* locations{nullptr};
    incident_log* log{nullptr};
    /// Optional overload controller guarding this session's ingest;
    /// checkpoints then capture its admission/breaker state so recovery
    /// resumes with identical shedding decisions.
    overload::controller* controller{nullptr};
    /// Optional life-cycle manager; checkpoints then capture its lineage
    /// state so a recovered session suppresses and diffs identically.
    lifecycle::manager* lifecycle{nullptr};
    /// Invoked after the engine applies each (non-skipped) barrier and
    /// *before* any checkpoint taken at it. The caller drains the
    /// engine's closed reports and feeds the life-cycle manager here, so
    /// a checkpoint at barrier B captures the manager's state *through*
    /// B — not one barrier behind with B's closures still undrained.
    std::function<void(sim_time, const network_state&)> barrier_hook{};
};

/// Exit code of a crash_after-triggered exit (mirrors SIGKILL's shell
/// convention so drill scripts can tell it from a clean failure).
inline constexpr int crash_exit_code = 137;

namespace detail {

[[nodiscard]] inline sharded_engine::persist_state unified_export(skynet_engine& engine) {
    sharded_engine::persist_state state;
    state.shards.push_back(engine.export_state());
    return state;
}

[[nodiscard]] inline sharded_engine::persist_state unified_export(sharded_engine& engine) {
    return engine.export_state();
}

[[nodiscard]] inline std::string ensure_dir(const std::string& dir) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // journal open reports failure
    return dir + "/" + journal_filename;
}

}  // namespace detail

template <typename Engine>
class durable_session {
public:
    durable_session(Engine& engine, durable_options opts)
        : engine_(engine),
          opts_(std::move(opts)),
          journal_(detail::ensure_dir(opts_.dir), opts_.flush_every),
          records_total_(opts_.resume_records),
          skip_remaining_(opts_.continue_after_recovery ? 0 : opts_.resume_records),
          seq_(opts_.next_snapshot_seq) {}

    void ingest_batch(std::span<const traced_alert> batch) {
        if (skip_one()) return;
        journal_.append_batch(batch);
        ++records_total_;
        crash_check();
        engine_.ingest_batch(batch);
    }

    void ingest_batch(std::span<const raw_alert> batch, sim_time now) {
        scratch_.clear();
        scratch_.reserve(batch.size());
        for (const raw_alert& raw : batch) {
            scratch_.push_back(traced_alert{.alert = raw, .arrival = now});
        }
        ingest_batch(std::span<const traced_alert>(scratch_));
    }

    void tick(sim_time now, const network_state& state) {
        if (skip_one()) return;
        journal_.append_barrier(record_type::tick, now);
        ++records_total_;
        crash_check();
        engine_.tick(now, state);
        if (opts_.barrier_hook) opts_.barrier_hook(now, state);
        ++barriers_;
        maybe_checkpoint(now);
    }

    void finish(sim_time now, const network_state& state) {
        if (skip_one()) return;
        journal_.append_barrier(record_type::finish, now);
        ++records_total_;
        crash_check();
        engine_.finish(now, state);
        if (opts_.barrier_hook) opts_.barrier_hook(now, state);
    }

    /// Recovery block for engine_metrics: what this session journaled
    /// and checkpointed, on top of what recovery replayed (opts.base).
    [[nodiscard]] recovery_metrics metrics() const noexcept {
        recovery_metrics m = opts_.base;
        m.journal_records_written += journal_.records_written();
        m.journal_flushes += journal_.flushes();
        m.checkpoints_written += checkpoints_;
        return m;
    }

    /// Unconditional barrier-consistent checkpoint (graceful-shutdown
    /// path: the daemon drains ingest, then checkpoints before exiting
    /// regardless of the checkpoint_every cadence). No-op without a
    /// location table. Returns false when the snapshot failed to write
    /// (the reason lands in last_error()).
    bool checkpoint_now(sim_time now) {
        if (opts_.locations == nullptr) return true;
        return write_checkpoint(now);
    }

    /// Non-fatal durability degradation (a checkpoint that failed to
    /// write); empty while healthy. The journal stays authoritative, so
    /// a failed checkpoint costs replay time, not correctness.
    [[nodiscard]] const std::string& last_error() const noexcept { return last_error_; }

    [[nodiscard]] Engine& engine() noexcept { return engine_; }

private:
    [[nodiscard]] bool skip_one() noexcept {
        if (skip_remaining_ == 0) return false;
        --skip_remaining_;
        return true;
    }

    void crash_check() {
        if (opts_.crash_after == 0 || records_total_ < opts_.crash_after) return;
        journal_.flush();
        std::_Exit(crash_exit_code);
    }

    void maybe_checkpoint(sim_time now) {
        if (opts_.checkpoint_every == 0 || opts_.locations == nullptr) return;
        if (barriers_ % opts_.checkpoint_every != 0) return;
        (void)write_checkpoint(now);
    }

    bool write_checkpoint(sim_time now) {
        journal_.flush();  // the snapshot references bytes_written()
        snapshot_data data;
        data.seq = seq_;
        data.journal_bytes = journal_.bytes_written();
        data.journal_records = records_total_;
        data.barrier_time = now;
        // Engines first: the sharded export syncs its workers, so the
        // location table is guaranteed quiescent for the walk below.
        data.engines = detail::unified_export(engine_);
        const std::size_t interned = opts_.locations->size();
        data.locations.reserve(interned > 0 ? interned - 1 : 0);
        for (std::size_t i = 1; i < interned; ++i) {
            const auto id = static_cast<location_id>(i);
            data.locations.push_back(
                {opts_.locations->parent_of(id), std::string(opts_.locations->segment_of(id))});
        }
        if (opts_.log != nullptr) data.log = opts_.log->entries();
        if (opts_.controller != nullptr) data.overload = opts_.controller->export_state();
        if (opts_.lifecycle != nullptr) data.lifecycle = opts_.lifecycle->export_state();
        if (error e = write_snapshot(opts_.dir, data)) {
            last_error_ = e.message();
            return false;
        }
        ++seq_;
        ++checkpoints_;
        return true;
    }

    Engine& engine_;
    durable_options opts_;
    journal_writer journal_;
    std::uint64_t records_total_{0};
    std::uint64_t skip_remaining_{0};
    std::uint64_t seq_{1};
    std::uint64_t barriers_{0};
    std::uint64_t checkpoints_{0};
    std::string last_error_;
    std::vector<traced_alert> scratch_;
};

}  // namespace skynet::persist
