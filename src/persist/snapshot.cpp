#include "skynet/persist/snapshot.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "skynet/persist/crc32c.h"
#include "skynet/persist/journal.h"

namespace skynet::persist {

namespace {

using namespace codec;

// One field order, driven by an encoder (render) or a decoder (parse).
// The second argument of io.list() is an element's smallest encoding.

using stats = preprocessor_stats;
constexpr std::int64_t stats::*preprocessor_counters[] = {
    &stats::raw_in,           &stats::emitted_new,          &stats::emitted_update,
    &stats::merged_identical, &stats::dropped_sporadic,     &stats::dropped_unclassified,
    &stats::dropped_uncorroborated, &stats::merged_related, &stats::rejected_malformed,
    &stats::skew_clamped};

constexpr std::uint64_t overload_metrics::*overload_counters[] = {
    &overload_metrics::admitted,       &overload_metrics::shed_duplicate,
    &overload_metrics::shed_other,     &overload_metrics::shed_root_cause,
    &overload_metrics::shed_failure,   &overload_metrics::shed_bytes,
    &overload_metrics::breaker_trips,  &overload_metrics::breaker_reopens,
    &overload_metrics::breaker_closes, &overload_metrics::quarantined,
    &overload_metrics::probes_admitted};

constexpr std::uint64_t lifecycle_metrics::*lifecycle_counters[] = {
    &lifecycle_metrics::tracked,         &lifecycle_metrics::recurrences_linked,
    &lifecycle_metrics::flaps_collapsed, &lifecycle_metrics::realerts_suppressed,
    &lifecycle_metrics::auto_closed,     &lifecycle_metrics::reopened,
    &lifecycle_metrics::diffs_emitted};

using diff = lifecycle::barrier_diff;
constexpr std::vector<lifecycle::diff_entry> diff::*diff_lists[] = {
    &diff::opened, &diff::escalated, &diff::deescalated, &diff::resolved, &diff::flapping};

constexpr std::size_t min_node_bytes = 20;
constexpr std::size_t min_engine_bytes = 160;

template <typename Io, typename Node> void node_fields(Io& io, Node& n) {
    io.u32(n.loc);
    io.i64(n.last_update);
    io.list(n.alerts, 8 + min_alert_bytes, [&](auto& a) {
        io.i64(a.inserted);
        alert_fields(io, a.alert);
    });
}

template <typename Io, typename Pending> void pending_fields(Io& io, Pending& p) {
    io.i64(p.occurrences);
    io.i64(p.first_seen);
    io.i64(p.last_seen);
    io.i64(p.last_counted_ts);
    alert_fields(io, p.alert);
}

template <typename Io, typename Engine> void engine_fields(Io& io, Engine& e) {
    for (const auto field : preprocessor_counters) io.i64(e.pre.stats.*field);
    io.i64(e.structured_count);
    io.list(e.pre.open, 8 + min_alert_bytes, [&](auto& o) {
        io.i64(o.last_seen);
        alert_fields(io, o.alert);
    });
    io.list(e.pre.persistence, 32 + min_alert_bytes, [&](auto& p) { pending_fields(io, p); });
    io.list(e.pre.correlation, 32 + min_alert_bytes, [&](auto& p) { pending_fields(io, p); });
    io.list(e.pre.sightings, 12, [&](auto& s) {
        io.u32(s.loc);
        io.i64(s.at);
    });
    io.list(e.loc.nodes, min_node_bytes, [&](auto& n) { node_fields(io, n); });
    io.list(e.loc.incidents, 20 + min_incident_bytes, [&](auto& entry) {
        io.u32(entry.root_id);
        io.i64(entry.update_time);
        incident_fields(io, entry.inc);
        io.list(entry.nodes, min_node_bytes, [&](auto& n) { node_fields(io, n); });
    });
    io.u64(e.loc.next_incident_id);
    io.list(e.live_scores, 8 + severity_bytes, [&](auto& score) {
        io.u64(score.first);
        severity_fields(io, score.second);
    });
    io.list(e.finished, min_report_bytes, [&](auto& r) { report_fields(io, r); });
}

template <typename Io, typename Overload> void overload_fields(Io& io, Overload& ov) {
    io.u64(ov.window_alerts);
    io.u64(ov.window_bytes);
    io.list(ov.dedup_keys, 4, [&](auto& key) { io.str(key); });
    io.fixed(ov.breakers.size(), "breaker count");
    for (auto& b : ov.breakers) {
        io.u8(b.state);
        io.check(b.state <= overload::breaker_state::half_open, "bad breaker state");
        io.u64(b.window_good);
        io.u64(b.window_bad);
        io.i64(b.window_start);
        io.i64(b.reopen_at);
        io.i64(b.backoff);
        io.u32(b.probes_left);
        io.u64(b.trips);
        io.u64(b.quarantined);
    }
    for (const auto field : overload_counters) io.u64(ov.counters.*field);
}

template <typename Io, typename Lifecycle> void lifecycle_fields(Io& io, Lifecycle& lc) {
    io.i64(lc.last_barrier);
    for (const auto field : lifecycle_counters) io.u64(lc.counters.*field);
    io.list(lc.lineages, 82, [&](auto& ln) {
        io.u64(ln.id);
        io.str(ln.root);
        io.u8(ln.state);
        io.check(ln.state <= lifecycle::phase::auto_closed, "bad lineage state");
        io.u32(ln.occurrences);
        io.u64(ln.suppressed_realerts);
        io.i64(ln.first_seen);
        io.i64(ln.last_activity);
        io.i64(ln.last_closed);
        io.dbl(ln.last_score);
        io.dbl(ln.peak_score);
        io.flag(ln.engine_open);
        io.list(ln.types, 4, [&](auto& t) { io.u32(t); });
        io.list(ln.members, 8, [&](auto& m) { io.u64(m); });
    });
    io.list(lc.collected, min_report_bytes, [&](auto& r) { report_fields(io, r); });
    io.i64(lc.last_diff.at);
    for (const auto entries : diff_lists) {
        io.list(lc.last_diff.*entries, 32, [&](auto& e) {
            io.u64(e.lineage);
            io.str(e.root);
            io.dbl(e.score);
            io.dbl(e.prev_score);
            io.u32(e.occurrences);
        });
    }
}

template <typename Io, typename Data> void meta_fields(Io& io, Data& d) {
    io.u64(d.seq);
    io.u64(d.journal_bytes);
    io.u64(d.journal_records);
    io.i64(d.barrier_time);
    io.u64(d.engines.next_region_shard);
}

/// Everything after the path dictionary.
template <typename Io, typename Data> void body_fields(Io& io, Data& d) {
    io.list(d.engines.regions, 12, [&](auto& r) {
        io.u32(r.first);
        io.u64(r.second);
    });
    io.list(d.engines.shards, min_engine_bytes, [&](auto& e) { engine_fields(io, e); });
    overload_fields(io, d.overload);
    lifecycle_fields(io, d.lifecycle);
    io.list(d.log, 9 + min_report_bytes, [&](auto& e) {
        io.i64(e.closed_at);
        io.maybe(e.attributed_to_failure, [&](auto& labeled) { io.flag(labeled); });
        report_fields(io, e.report);
    });
}

constexpr std::size_t header_bytes = snapshot_magic.size() + 4;  // magic, version

}  // namespace

std::string render_snapshot(const snapshot_data& data) {
    // The body goes first into its own buffer: encoding it may append
    // paths outside the location table to the dictionary, which the file
    // holds before the body.
    path_writer paths(data.locations);
    std::string body;
    encoder body_io{body, paths};
    body_fields(body_io, data);

    std::string out(snapshot_magic);
    out.reserve(body.size() + data.locations.size() * 16 + 128);
    encoder io{out, paths};
    io.u32(snapshot_version);
    meta_fields(io, data);
    io.u64(data.locations.size());
    paths.put(out);
    out += body;
    put_u32(out, crc32c(out));
    return out;
}

snapshot_parse_result parse_snapshot(std::string_view bytes) {
    snapshot_parse_result result;
    if (bytes.starts_with("# skynet snapshot v1")) {
        result.error = "unsupported snapshot version 1 (text); this build reads version 2";
        return result;
    }
    if (!bytes.starts_with(snapshot_magic)) {
        result.error = "bad snapshot magic";
        return result;
    }
    if (bytes.size() < header_bytes + 4) {
        result.error = "truncated snapshot";
        return result;
    }
    if (const std::uint32_t version = load_u32(bytes.data() + snapshot_magic.size());
        version != snapshot_version) {
        result.error = "unsupported snapshot version " + std::to_string(version);
        return result;
    }
    // Any flipped bit invalidates the file before structural parsing.
    const std::string_view checked = bytes.substr(0, bytes.size() - 4);
    if (crc32c(checked) != load_u32(bytes.data() + checked.size())) {
        result.error = "snapshot checksum mismatch";
        return result;
    }

    reader in(checked);
    (void)in.u64();  // the magic and version, checked above
    (void)in.u32();
    path_reader paths;
    decoder io{in, paths};
    snapshot_data data;
    meta_fields(io, data);
    const std::uint64_t table_entries = in.u64();
    if (paths.read(in) && table_entries > paths.entries().size()) {
        in.fail("location table larger than the path dictionary");
    }
    if (in.ok()) {
        data.locations.assign(paths.entries().begin(),
                              paths.entries().begin() + static_cast<std::ptrdiff_t>(table_entries));
    }
    body_fields(io, data);
    if (in.ok() && in.remaining() != 0) in.fail("trailing bytes after the log section");
    if (!in.ok()) {
        result.error = in.error();
        return result;
    }
    result.data = std::move(data);
    return result;
}

std::string snapshot_filename(std::uint64_t seq) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "snap-%010llu.skysnap", static_cast<unsigned long long>(seq));
    return buf;
}

error write_snapshot(const std::string& dir, const snapshot_data& data) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);  // best-effort; the open below reports failure

    const fs::path final_path = fs::path(dir) / snapshot_filename(data.seq);
    const fs::path tmp_path = final_path.string() + ".tmp";
    const std::string bytes = render_snapshot(data);
    {
        std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
        if (!out) return error("snapshot: cannot open " + tmp_path.string());
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out) return error("snapshot: short write to " + tmp_path.string());
    }
    fs::rename(tmp_path, final_path, ec);
    if (ec) return error("snapshot: rename failed: " + ec.message());
    return error{};
}

snapshot_pick load_newest_snapshot(const std::string& dir, std::uint64_t journal_valid_bytes) {
    namespace fs = std::filesystem;
    snapshot_pick pick;

    std::vector<std::pair<std::uint64_t, fs::path>> candidates;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (!name.starts_with("snap-") || !name.ends_with(".skysnap")) continue;
        std::uint64_t seq = 0;
        const std::string_view digits =
            std::string_view(name).substr(5, name.size() - 5 - std::string_view(".skysnap").size());
        const auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), seq);
        if (ec != std::errc{} || end != digits.data() + digits.size()) continue;
        candidates.emplace_back(seq, entry.path());
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    for (const auto& [seq, path] : candidates) {
        const std::optional<std::string> bytes = read_file(path.string());
        if (!bytes) {
            pick.skipped.push_back({path.filename().string(), "unreadable"});
            continue;
        }
        snapshot_parse_result parsed = parse_snapshot(*bytes);
        if (!parsed.ok()) {
            pick.skipped.push_back({path.filename().string(), parsed.error});
            continue;
        }
        if (parsed.data->journal_bytes > journal_valid_bytes) {
            pick.skipped.push_back({path.filename().string(),
                                    "references journal bytes past the durable prefix"});
            continue;
        }
        pick.data = std::move(parsed.data);
        pick.file = path.filename().string();
        break;
    }
    return pick;
}

}  // namespace skynet::persist
