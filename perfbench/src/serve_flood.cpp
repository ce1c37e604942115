// serve_flood: the recorded flood streamed over the SKYNETJ1 wire (a unix
// socket) into a real serve::daemon running 2 shards with checkpointing
// and lifecycle on, while one open-loop poller thread cycles
// /v1/health, /v1/incidents?limit=20 and /v1/report?json=1 at a fixed
// rate. The streamer frames the stream up front, then times dial ->
// write -> the daemon's finish ack. Set-up is timed over several daemon
// builds per iteration, the last of which serves the stream. After the
// daemon is torn down its checkpoint directory is recovered into a fresh
// 2-shard engine, several times.
//
// Work stealing is off: with it on, an owner shard waiting for a thief's
// token in mpsc_queue::pop_blocking can miss the wakeup (the queue reads
// its push counter after the failed pop) and the daemon wedges; this was
// seen once in about 400 daemon runs.
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>

#include "inputs.h"
#include "skynet/lifecycle/manager.h"
#include "skynet/persist/recovery.h"
#include "skynet/serve/daemon.h"
#include "skynet/serve/http.h"
#include "skynet/serve/net.h"
#include "skynet/serve/report_text.h"
#include "workloads.h"

namespace perfbench {

using namespace skynet;

namespace {

/// Poller rate, requests per second, cycled over the three endpoints.
/// The daemon answers each in well under 1/kQueryRate, so the schedule
/// builds no backlog.
constexpr double kQueryRate = 200.0;
constexpr int kMinIterations = 6;
/// Daemon builds and starts per iteration, and recoveries of its
/// checkpoint directory; each sample is short, so the iteration reports
/// their median.
constexpr int kSetupRepeats = 3;
constexpr int kRecoverRepeats = 5;
/// A poller that falls a whole period behind on more than this share of
/// the run's requests means the daemon does not keep up with the rate. A
/// stall of a few periods that the poller then catches up on stays below.
constexpr double kMaxLateShare = 0.02;
/// One iteration streams in well under a second; no progress for this
/// long means the daemon is wedged.
constexpr int kStallSeconds = 30;
constexpr const char* kEndpoints[] = {"/v1/health", "/v1/incidents?limit=20",
                                      "/v1/report?json=1"};
constexpr const char* kEndpointNames[] = {"health", "incidents", "report"};

/// Open-loop HTTP poller: request k is due at start + k / kQueryRate and
/// is timed from when it was due, so a stall shows in every request
/// queued behind it; lateness of the generator itself is kept apart.
class poller {
public:
    poller(serve::socket_addr addr, std::int64_t start_ns, bool traced)
        : addr_(std::move(addr)), start_ns_(start_ns) {
        trace_.enable(traced);
        thread_ = std::thread([this] { loop(); });
    }
    ~poller() { stop(); }
    poller(const poller&) = delete;
    poller& operator=(const poller&) = delete;

    void stop() {
        stop_.store(true, std::memory_order_relaxed);
        if (thread_.joinable()) thread_.join();
    }

    std::vector<double> latency_us[3];
    std::vector<double> lag_ms;
    std::uint64_t requests{0};
    std::uint64_t late{0};
    std::uint64_t failed{0};
    tracer trace_;

private:
    void loop() {
        const auto period_ns = static_cast<std::int64_t>(1e9 / kQueryRate);
        for (std::uint64_t k = 0;; ++k) {
            const std::int64_t due = start_ns_ + static_cast<std::int64_t>(k) * period_ns;
            const std::int64_t wait = due - now_ns();
            if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
            if (stop_.load(std::memory_order_relaxed)) return;
            const std::int64_t sent = now_ns();
            serve::http_response resp;
            std::string err;
            bool ok = false;
            {
                const auto s = trace_.time("serve.http_call");
                ok = serve::http_call(addr_, "GET", kEndpoints[k % 3], "", resp, err) &&
                     resp.status == 200;
            }
            const std::int64_t done = now_ns();
            ++requests;
            if (!ok) ++failed;
            if (sent - due > period_ns) ++late;
            lag_ms.push_back(static_cast<double>(sent - due) / 1e6);
            latency_us[k % 3].push_back(static_cast<double>(done - due) / 1e3);
        }
    }

    serve::socket_addr addr_;
    std::int64_t start_ns_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/// Number at the end of a key path in the daemon's health JSON (keys are
/// unique along the path, so a forward scan finds them); 0 when absent.
double health_value(const std::string& json, std::initializer_list<std::string_view> path) {
    std::size_t pos = 0;
    for (const std::string_view key : path) {
        std::string quoted = "\"";
        quoted += key;
        quoted += "\":";
        pos = json.find(quoted, pos);
        if (pos == std::string::npos) return 0.0;
        pos += quoted.size();
    }
    return std::strtod(json.c_str() + pos, nullptr);
}

bool http_get(const serve::socket_addr& addr, const char* path, std::string& body) {
    serve::http_response resp;
    std::string err;
    if (!serve::http_call(addr, "GET", path, "", resp, err) || resp.status != 200) return false;
    body = std::move(resp.body);
    return true;
}

}  // namespace

void run_serve_flood(const run_config& cfg, result& out) {
    const std::vector<record> records = record_region_flood(cfg.seed);
    const std::string wire = wire_stream(records);
    const auto offered = static_cast<double>(alert_count(records));

    serve::engine_options opts;
    opts.shards = 2;
    opts.steal = false;  // see the header comment
    opts.lifecycle = true;
    opts.checkpoint_every = 8;
    const std::string dir = cfg.out_dir + "/serve_flood.ckpt";
    const std::string sock = cfg.out_dir + "/sf-" + std::to_string(::getpid());
    opts.checkpoint_dir = dir;
    opts.serve.ingest_addr = "unix:" + sock + ".wire";
    opts.serve.http_addr = "unix:" + sock + ".http";
    for (const serve::option_error& e : opts.validate(serve::run_mode::serve)) {
        out.check(false, "serve_flood: daemon options: " + e.render());
        return;
    }

    // The sharded engine forces deterministic incident ids; the plain
    // sequential reference runs with the same engine config.
    skynet_config reference_cfg = opts.pipeline;
    reference_cfg.loc.deterministic_ids = true;
    std::size_t ref_incidents = 0;
    const std::string reference =
        reference_listing(*make_flood_world(), reference_cfg, records, ref_incidents);
    if (!out.check(ref_incidents > 0, "serve_flood: the reference replay opened no incident")) {
        return;
    }

    out.notes.push_back("input: " + std::to_string(alert_count(records)) + " alerts in " +
                        std::to_string(records.size() - 1) + " ticks, " +
                        std::to_string(wire.size()) + " wire bytes; reference listing: " +
                        std::to_string(ref_incidents) + " incidents");
    tracer& tr = out.trace;
    std::vector<iteration> iters;
    run_iterations(cfg, kMinIterations, out, iters, [&](bool check_pass, bool traced) {
        iteration it;
        std::filesystem::remove_all(dir);

        // Shared with the daemon's barrier hook, so it outlives a daemon
        // that has to be leaked.
        struct barrier_log {
            std::mutex mu;
            std::vector<std::int64_t> ns;
        };
        const auto barriers = std::make_shared<barrier_log>();
        std::string listing;
        std::string health;
        std::string incidents_page;
        std::uint64_t failed_ops = 0;
        std::uint64_t attempted_ops = 0;
        std::unique_ptr<world> w;
        {
            // Set-up: world plus daemon construction and start, several
            // times; the last daemon built serves the stream.
            std::unique_ptr<serve::daemon> d;
            std::vector<double> setups;
            for (int k = 0; k < kSetupRepeats; ++k) {
                d.reset();  // off the clock: the previous daemon stops
                w.reset();
                const std::int64_t s0 = now_ns();
                w = make_flood_world();
                d = std::make_unique<serve::daemon>(w->topo, w->customers, w->registry,
                                                    &w->syslog, opts);
                d->set_barrier_hook(
                    [barriers](const std::vector<incident_report>&, sim_time, bool) {
                        const std::lock_guard lock(barriers->mu);
                        barriers->ns.push_back(now_ns());
                    });
                if (const error e = d->start()) {
                    out.check(false, "serve_flood: daemon start failed: " + e.message());
                    return it;
                }
                setups.push_back(seconds_between(s0, now_ns()));
            }
            it.setup_s = median(setups);
            const auto ingest = serve::parse_addr(d->ingest_addr());
            const auto api = serve::parse_addr(d->http_addr());
            if (!out.check(ingest && api, "serve_flood: daemon addresses do not parse")) {
                return it;
            }

            // --- stream: dial until the daemon acks the finish record.
            const std::int64_t t0 = now_ns();
            poller poll(*api, t0, traced);
            std::string status;
            bool streamed = false;
            std::string err;
            int fd = -1;
            {
                const auto s = tr.time("serve.dial");
                fd = serve::dial(*ingest, err);
            }
            if (fd >= 0) {
                const timeval stall{.tv_sec = kStallSeconds, .tv_usec = 0};
                (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &stall, sizeof stall);
                {
                    const auto s = tr.time("serve.write_stream");
                    streamed = serve::write_all(fd, wire);
                }
                const auto s = tr.time("serve.await_ack");
                streamed = streamed && serve::read_line(fd, status, kStallSeconds * 1000);
                ::close(fd);
            }
            const std::int64_t t1 = now_ns();
            poll.stop();
            if (!streamed) {
                // A daemon that stopped reading or never acked is wedged:
                // its destructor would wait on the stuck ingest thread
                // forever, so it is deliberately leaked and the run fails.
                const std::lock_guard lock(barriers->mu);
                out.check(false, "serve_flood: no finish ack within " +
                                     std::to_string(kStallSeconds) + " s after " +
                                     std::to_string(barriers->ns.size()) + " of " +
                                     std::to_string(records.size()) + " barriers: " + err);
                (void)d.release();
                (void)w.release();
                return it;
            }
            it.alerts_per_s = offered / seconds_between(t0, t1);
            out.check(status.starts_with("OK"), "serve_flood: stream rejected: " + status);

            {
                const std::lock_guard lock(barriers->mu);
                const std::vector<std::int64_t>& barrier_ns = barriers->ns;
                // Per tick: from the previous barrier's publication (or the
                // dial) to this one's; the streamer is always ahead, so the
                // tick's batch is waiting the moment the engine is free.
                std::int64_t prev = t0;
                for (std::size_t i = 0; i + 1 < barrier_ns.size(); ++i) {
                    it.tick_ms.push_back(static_cast<double>(barrier_ns[i] - prev) / 1e6);
                    prev = barrier_ns[i];
                }
                attempted_ops += barrier_ns.size();
                if (barrier_ns.size() != records.size()) {
                    failed_ops += records.size() - std::min(records.size(), barrier_ns.size());
                    out.check(false, "serve_flood: the daemon applied " +
                                         std::to_string(barrier_ns.size()) + " of " +
                                         std::to_string(records.size()) + " barriers");
                }
            }

            for (int e = 0; e < 3; ++e) {
                it.query_us.insert(it.query_us.end(), poll.latency_us[e].begin(),
                                   poll.latency_us[e].end());
                it.layer[std::string("serve.http.") + kEndpointNames[e] + "_p50_us"] =
                    percentile(poll.latency_us[e], 50.0);
                it.layer[std::string("serve.http.") + kEndpointNames[e] + "_p99_us"] =
                    percentile(poll.latency_us[e], 99.0);
            }
            it.layer["serve.http.requests"] = static_cast<double>(poll.requests);
            it.layer["serve.http.late"] = static_cast<double>(poll.late);
            it.layer["serve.http.failed"] = static_cast<double>(poll.failed);
            it.layer["serve.http.gen_lag_ms"] = percentile(poll.lag_ms, 99.0);
            attempted_ops += poll.requests;
            failed_ops += poll.failed;
            out.check(poll.failed == 0, "serve_flood: " + std::to_string(poll.failed) +
                                            " polled HTTP requests failed");
            tr.merge(poll.trace_);

            // --- after the ack: the served report, health and store size.
            const std::int64_t r0 = now_ns();
            const bool got_report = http_get(*api, "/v1/report", listing);
            it.layer["serve.report_render_ms"] = seconds_between(r0, now_ns()) * 1e3;
            const bool got_health = http_get(*api, "/v1/health", health);
            const bool got_page = http_get(*api, "/v1/incidents?limit=0", incidents_page);
            attempted_ops += 3;
            failed_ops += (got_report ? 0 : 1) + (got_health ? 0 : 1) + (got_page ? 0 : 1);
            out.check(got_report && got_health && got_page,
                      "serve_flood: a post-run HTTP read failed");
        }  // the daemon stops here: listeners joined, journal closed

        // --- recovery of the daemon's checkpoint directory into a fresh
        // 2-shard engine and manager, several times.
        const network_state idle(&w->topo, &w->customers);
        persist::recovery_options ropts;
        ropts.dir = dir;
        ropts.tick_state = &idle;
        persist::recovery_result recovered;
        std::vector<double> recoveries;
        for (int k = 0; k < kRecoverRepeats; ++k) {
            sharded_engine recovered_engine({&w->topo, &w->customers, &w->registry, &w->syslog},
                                            opts.sharded());
            lifecycle::manager recovered_mgr(opts.lifecycle_config(), &w->topo);
            incident_log recovered_log;
            ropts.lifecycle = &recovered_mgr;
            const std::int64_t r0 = now_ns();
            {
                const auto s = tr.time("persist.recover");
                recovered = persist::recover(recovered_engine, w->topo.locations(),
                                             &recovered_log, ropts);
            }
            recoveries.push_back(seconds_between(r0, now_ns()));
        }
        it.recover_s = median(recoveries);

        // --- checks.
        out.check(listing == reference,
                  "serve_flood: /v1/report differs from the plain sequential replay");
        out.check(recovered.saw_finish, "serve_flood: recovery did not reach the finish record");
        const double checkpoints = health_value(health, {"recovery", "checkpoints_written"});
        const auto expected_checkpoints = static_cast<double>((records.size() - 1) / 8);
        attempted_ops += static_cast<std::uint64_t>(expected_checkpoints);
        if (checkpoints < expected_checkpoints) {
            failed_ops += static_cast<std::uint64_t>(expected_checkpoints - checkpoints);
        }
        const double written_off = health_value(health, {"overload", "shards_written_off"});
        failed_ops += static_cast<std::uint64_t>(written_off);
        out.check(written_off == 0, "serve_flood: a shard failed");
        if (check_pass) {
            out.check(health_value(health, {"queue", "busy_ns"}) > 0,
                      "serve_flood: the sharded engine reported no work");
        }
        it.attempted = attempted_ops;
        it.failed = failed_ops;

        // --- per-layer numbers from the daemon's own health report.
        std::map<std::string, double>& L = it.layer;
        const auto h = [&](std::initializer_list<std::string_view> path) {
            return health_value(health, path);
        };
        L["overload.admit_ratio"] = 1.0;
        L["sketch.sketched_decisions"] = h({"degraded", "sketched"});
        L["sketch.sketched_share"] = L["sketch.sketched_decisions"] / offered;
        L["persist.journal_records"] = h({"recovery", "journal_records_written"});
        L["persist.journal_mb"] = file_mb(dir + "/" + persist::journal_filename);
        L["persist.checkpoints"] = checkpoints;
        L["persist.snapshot_mb"] = newest_snapshot_mb(dir);
        L["persist.recover_replayed"] = static_cast<double>(recovered.metrics.records_replayed);
        L["core.preprocess.ms"] = h({"stages", "preprocess", "total_ms"});
        L["core.preprocess.ns_per_alert"] = L["core.preprocess.ms"] * 1e6 / offered;
        L["core.locate.ms"] = h({"stages", "locate", "total_ms"});
        L["core.locate.calls"] = h({"stages", "locate", "calls"});
        L["core.locate.us_per_call"] =
            L["core.locate.calls"] > 0 ? L["core.locate.ms"] * 1e3 / L["core.locate.calls"] : 0;
        L["core.evaluate.ms"] = h({"stages", "evaluate", "total_ms"});
        L["core.evaluate.items"] = h({"stages", "evaluate", "items"});
        L["core.sharded.busy_ms"] = h({"queue", "busy_ns"}) / 1e6;
        L["core.sharded.batches_stolen"] = h({"steal", "batches_stolen"});
        L["core.sharded.owner_waits"] = h({"steal", "owner_waits"});
        L["core.sharded.enqueue_full_waits"] = h({"queue", "full_waits"});
        L["core.sharded.max_queue_depth"] = h({"queue", "max_depth"});
        L["lifecycle.lineages"] = h({"lifecycle", "tracked"});
        L["lifecycle.recurrences"] = h({"lifecycle", "recurrences_linked"});
        L["serve.store.entries"] = health_value(incidents_page, {"total"});
        L["serve.report_bytes"] = static_cast<double>(listing.size());
        return it;
    });
    std::filesystem::remove_all(dir);
    std::filesystem::remove(sock + ".wire");
    std::filesystem::remove(sock + ".http");
    if (!out.failed_check.empty()) return;

    double requests = 0;
    double late = 0;
    for (const iteration& it : iters) {
        requests += it.layer.at("serve.http.requests");
        late += it.layer.at("serve.http.late");
    }
    const std::string late_note = "poller: " + std::to_string(static_cast<std::uint64_t>(late)) +
                                  " of " + std::to_string(static_cast<std::uint64_t>(requests)) +
                                  " requests sent more than a period late";
    out.notes.push_back(late_note);
    if (!out.check(late <= kMaxLateShare * requests, "serve_flood: backlog: " + late_note)) return;

    summarize_end_to_end(iters, /*queries_replayed=*/false, out);
    emit_layers(iters,
                {{"overload.admit_ns_per_alert", "pass-through guard: admit() is skipped"},
                 {"overload.on_tick_us", "runs inside the daemon's barrier"},
                 {"core.sharded.batches_stolen", "work stealing off (see serve_flood.cpp)"},
                 {"core.sharded.owner_waits", "work stealing off (see serve_flood.cpp)"},
                 {"overload.shed", "pass-through guard sheds nothing"},
                 {"overload.quarantined", "pass-through guard: breakers off"},
                 {"persist.self_ms", "journal and checkpoints run inside the daemon"},
                 {"core.live_alerts_peak", "engine state is private to the daemon"},
                 {"lifecycle.hook_ms", "runs inside the daemon's barrier"},
                 {"lifecycle.on_barrier_ms", "runs inside the daemon's barrier"},
                 {"serve.store.append_us", "runs inside the daemon's barrier"},
                 {"serve.health_json_us", "runs inside the daemon's barrier"}},
                out);
}

}  // namespace perfbench
