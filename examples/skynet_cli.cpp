// skynet_cli — command-line driver for the whole stack.
//
// Builds (or imports) a topology, injects a failure scenario, streams the
// monitoring flood through SkyNet and prints the ranked incident reports,
// optionally as JSON digests. With --serve it becomes a long-running
// daemon (streaming ingest + HTTP query API); with --connect it is the
// matching client. One option surface (serve::engine_options) covers all
// three modes.
//
//   skynet_cli                                  # random severe failure
//   skynet_cli --scenario ddos --severe
//   skynet_cli --topo medium --duration 6 --json
//   skynet_cli --export-topo inventory.topo     # dump the topology format
//   skynet_cli --topo-file inventory.topo       # ... and load it back
//   skynet_cli --serve unix:/tmp/skynet.sock --http tcp:127.0.0.1:8080
//   skynet_cli --connect tcp:127.0.0.1:8080 --get /v1/health
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "skynet/core/digest.h"
#include "skynet/federate/aggregator.h"
#include "skynet/federate/emitter.h"
#include "skynet/lifecycle/manager.h"
#include "skynet/overload/controller.h"
#include "skynet/viz/timeline.h"
#include "skynet/core/pipeline.h"
#include "skynet/core/sharded_engine.h"
#include "skynet/monitors/extended_monitors.h"
#include "skynet/persist/durable.h"
#include "skynet/persist/recovery.h"
#include "skynet/serve/daemon.h"
#include "skynet/serve/engine_options.h"
#include "skynet/serve/report_text.h"
#include "skynet/serve/wire.h"
#include "skynet/sim/engine.h"
#include "skynet/sim/faults.h"
#include "skynet/sim/trace.h"
#include "skynet/topology/generator.h"
#include "skynet/topology/serialization.h"

using namespace skynet;

namespace {

using options = serve::engine_options;

std::unique_ptr<scenario> pick_scenario(const options& opt, const topology& topo, rng& rand) {
    const std::string& n = opt.scenario_name;
    if (n == "random") return make_random_scenario(topo, rand, opt.severe);
    if (n == "hardware") return make_device_hardware_failure(topo, rand, opt.severe);
    if (n == "link") return make_link_failure(topo, rand, opt.severe);
    if (n == "modification") return make_modification_error(topo, rand, opt.severe);
    if (n == "software") return make_device_software_failure(topo, rand, opt.severe);
    if (n == "infrastructure") return make_infrastructure_failure(topo, rand, opt.severe);
    if (n == "route") return make_route_error(topo, rand, opt.severe);
    if (n == "ddos") return make_security_ddos(topo, rand, opt.severe ? 3 : 1);
    if (n == "config") return make_configuration_error(topo, rand, opt.severe);
    if (n == "gray") return make_gray_failure(topo, rand, opt.severe);
    if (n == "flapping-link") return make_flapping_link(topo, rand, opt.severe);
    if (n == "storm") return make_multi_cause_storm(topo, rand, opt.severe);
    if (n == "maintenance") return make_maintenance_window(topo, rand);
    if (n == "slow-burn") return make_slow_burn_degradation(topo, rand, opt.severe);
    if (n == "cable-cut") {
        for (const device& d : topo.devices()) {
            if (d.role == device_role::isr) {
                return make_internet_entry_cut(
                    topo, d.loc.ancestor_at(hierarchy_level::logic_site), 0.5);
            }
        }
    }
    return nullptr;
}

/// Writes `text` to `path` via a temp file + atomic rename (the same
/// crash-safety convention as snapshots): a reader never sees a torn
/// health report.
void write_atomic(const std::string& path, const std::string& text) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
            return;
        }
        out << text;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) std::fprintf(stderr, "health-json rename failed: %s\n", ec.message().c_str());
}

/// Streams the alert source (recorded trace or live simulation) through
/// `engine` — tick-batched ingest either way — and prints the ranked
/// reports. Works for both the sequential and the region-sharded engine.
/// When `faults` is set, every delivery passes through the injector
/// first and reorder-held alerts are released at each tick. When `guard`
/// is active, every delivery then passes the overload controller, so the
/// engine (and the journal, in durable runs) only ever sees admitted
/// alerts.
template <typename Engine>
int run_session(Engine& engine, const options& opt, const topology& topo,
                const customer_registry& customers, fault_injector* faults,
                overload::controller* guard) {
    std::int64_t raw = 0;
    recovery_metrics persist_metrics;
    const bool guarded = guard != nullptr && !guard->pass_through();

    // Incident life-cycle layer: consumes the engine's merged barrier
    // reports (already byte-identical sequential vs sharded vs steal-on),
    // so its lineages and diffs inherit that parity by construction.
    std::optional<lifecycle::manager> mgr;
    if (opt.lifecycle) mgr.emplace(opt.lifecycle_config(), &topo);
    // In durable runs the session's barrier_hook feeds the manager (so
    // checkpoints capture its state *through* the barrier); everywhere
    // else on_barrier below does. Never both.
    bool lifecycle_fed_by_sink = false;
    const auto feed_lifecycle = [&](sim_time now, const network_state& state) {
        if (!mgr) return;
        std::vector<incident_report> closed = engine.take_reports();
        const std::vector<incident_report> open = engine.open_reports(now, state);
        mgr->on_barrier(now, std::move(closed), open, &state);
        // Quiet barriers stay quiet ("no changes" is for /v1/diff, where
        // an empty body would be ambiguous; on a tty it is just noise).
        if (opt.diff && mgr->last_diff().any()) {
            std::printf("%s", mgr->last_diff().render().c_str());
        }
    };

    // Generic over the sink so the replay path can route through a
    // persist::durable_session (same ingest/tick/finish surface) while
    // the simulation path keeps feeding the engine directly.
    const auto deliver = [&](auto& sink, std::vector<traced_alert> batch) {
        if (guarded) batch = guard->admit(std::move(batch));
        if (!batch.empty()) sink.ingest_batch(std::span<const traced_alert>(batch));
    };
    const auto ingest = [&](auto& sink, std::span<const traced_alert> batch) {
        if (faults == nullptr && !guarded) {
            sink.ingest_batch(batch);
            return;
        }
        std::vector<traced_alert> stream(batch.begin(), batch.end());
        if (faults != nullptr) stream = faults->apply(stream);
        deliver(sink, std::move(stream));
    };
    const auto release_held = [&](auto& sink, sim_time now) {
        if (faults == nullptr) return;
        std::vector<traced_alert> due = faults->release(now);
        if (!due.empty()) deliver(sink, std::move(due));
    };
    const auto drain_held = [&](auto& sink) {
        if (faults == nullptr) return;
        std::vector<traced_alert> held = faults->drain();
        if (!held.empty()) deliver(sink, std::move(held));
    };
    // Tick-barrier housekeeping: close the admission window and publish
    // the merged health report (engine barrier metrics + controller
    // counters) if asked to.
    const auto on_barrier = [&](sim_time now, const network_state& state) {
        if (!lifecycle_fed_by_sink) feed_lifecycle(now, state);
        if (guard != nullptr) guard->on_tick(now);
        if (opt.health_json.empty()) return;
        engine_metrics m = engine.barrier_metrics();
        if (guard != nullptr) {
            m.overload += guard->metrics();
            m.degraded.sketched += guard->sketched_decisions();
        }
        if (mgr) m.lifecycle = mgr->metrics();
        write_atomic(opt.health_json, m.to_json() + "\n");
    };

    if (!opt.replay_file.empty() || opt.recover) {
        network_state idle(&topo, &customers);

        std::vector<traced_alert> alerts;
        if (!opt.replay_file.empty()) {
            std::ifstream in(opt.replay_file);
            if (!in) {
                std::fprintf(stderr, "cannot read %s\n", opt.replay_file.c_str());
                return 1;
            }
            std::stringstream buffer;
            buffer << in.rdbuf();
            trace_parse_result trace = parse_trace(buffer.str());
            for (const trace_parse_error& e : trace.errors) {
                std::fprintf(stderr, "%s:%d: %s\n", opt.replay_file.c_str(), e.line,
                             e.message.c_str());
            }
            alerts = std::move(trace.alerts);
            std::printf("replaying %zu alerts from %s\n", alerts.size(),
                        opt.replay_file.c_str());
        }

        // The journal records what the engine saw, so faults degrade the
        // stream *before* the durable sink journals it: replay and resume
        // both see the post-fault alerts.
        const auto stream = [&](auto& sink) {
            sim_time last_tick = 0;
            sim_time last_arrival = 0;
            std::vector<traced_alert> batch;
            for (const traced_alert& t : alerts) {
                ++raw;
                batch.push_back(t);
                last_arrival = t.arrival;
                if (t.arrival - last_tick >= seconds(2)) {
                    ingest(sink, std::span<const traced_alert>(batch));
                    batch.clear();
                    release_held(sink, t.arrival);
                    sink.tick(t.arrival, idle);
                    on_barrier(t.arrival, idle);
                    last_tick = t.arrival;
                }
            }
            ingest(sink, std::span<const traced_alert>(batch));
            drain_held(sink);
            sink.finish(last_arrival + minutes(20), idle);
            on_barrier(last_arrival + minutes(20), idle);
        };

        persist::recovery_result recovered;
        if (opt.recover) {
            persist::recovery_options ropts;
            ropts.dir = opt.checkpoint_dir;
            ropts.tick_state = &idle;
            // Inspect mode continues directly from the snapshot, so the
            // controller state is imported; a resume re-streams from the
            // start and re-derives it deterministically instead.
            if (opt.replay_file.empty()) ropts.controller = guard;
            // The manager is always restored (the resumed engine skips
            // the durable prefix, so it cannot be re-derived) and fed
            // every barrier replayed from the journal suffix.
            if (mgr) ropts.lifecycle = &*mgr;
            try {
                recovered = persist::recover(engine, topo.locations(), nullptr, ropts);
            } catch (const std::exception& e) {
                // recover() prefixes its own messages with "recover:".
                std::fprintf(stderr, "%s\n", e.what());
                return 1;
            }
            for (const std::string& note : recovered.notes) {
                std::printf("recover: %s\n", note.c_str());
            }
            persist_metrics = recovered.metrics;
        }

        if (opt.replay_file.empty()) {
            // Inspect mode: recover alone. Close out the run if the
            // journal never reached its finish barrier, then report.
            if (!recovered.saw_finish) {
                engine.finish(recovered.last_barrier_time + minutes(20), idle);
                feed_lifecycle(recovered.last_barrier_time + minutes(20), idle);
            } else if (opt.diff && mgr) {
                // Nothing new closed; surface the recovered diff as-is.
                std::printf("%s", mgr->last_diff().render().c_str());
            }
        } else if (!opt.checkpoint_dir.empty()) {
            persist::durable_options dopts;
            dopts.dir = opt.checkpoint_dir;
            dopts.checkpoint_every = static_cast<std::uint64_t>(opt.checkpoint_every);
            dopts.crash_after = opt.crash_after;
            dopts.resume_records = recovered.journal_records;
            dopts.next_snapshot_seq = recovered.next_snapshot_seq;
            dopts.base = recovered.metrics;
            dopts.locations = &topo.locations();
            dopts.controller = guard;
            if (mgr) {
                dopts.lifecycle = &*mgr;
                dopts.barrier_hook = [&](sim_time now, const network_state& state) {
                    feed_lifecycle(now, state);
                };
                lifecycle_fed_by_sink = true;
            }
            persist::durable_session<Engine> session(engine, dopts);
            stream(session);
            persist_metrics = session.metrics();
            if (!session.last_error().empty()) {
                std::fprintf(stderr, "checkpoint: %s\n", session.last_error().c_str());
            }
        } else {
            stream(engine);
        }
    } else {
        simulation_engine sim(&topo, &customers,
                              engine_params{.tick = seconds(2), .seed = opt.seed});
        sim.add_default_monitors(monitor_options{.noise_rate = opt.noise});
        if (opt.extended) {
            for (auto& tool : make_extended_monitors(topo)) sim.add_monitor(std::move(tool));
        }

        rng srand(opt.seed + 2);
        auto failure = pick_scenario(opt, topo, srand);
        if (!failure) {
            std::fprintf(stderr, "unknown scenario: %s\n", opt.scenario_name.c_str());
            return 2;
        }
        std::printf("injecting: %s (%s, %s) for %d min\n", failure->name().c_str(),
                    std::string(to_string(failure->cause())).c_str(),
                    opt.severe ? "severe" : "minor", opt.duration_min);
        sim.inject(std::move(failure), minutes(1), minutes(opt.duration_min));

        std::vector<traced_alert> recorded;
        sim.run_until_batched(minutes(1 + opt.duration_min) + minutes(2),
                              [&](std::span<const traced_alert> batch) {
                                  raw += static_cast<std::int64_t>(batch.size());
                                  ingest(engine, batch);
                                  if (!opt.record_file.empty()) {
                                      recorded.insert(recorded.end(), batch.begin(), batch.end());
                                  }
                              },
                              [&](sim_time now) {
                                  release_held(engine, now);
                                  engine.tick(now, sim.state());
                                  on_barrier(now, sim.state());
                              });
        drain_held(engine);
        engine.finish(sim.clock().now(), sim.state());
        on_barrier(sim.clock().now(), sim.state());

        if (!opt.record_file.empty()) {
            std::ofstream out(opt.record_file);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n", opt.record_file.c_str());
                return 1;
            }
            out << serialize_trace(recorded);
            std::printf("recorded %zu alerts to %s\n", recorded.size(),
                        opt.record_file.c_str());
        }
    }

    const preprocessor_stats stats = engine.preprocessing_stats();
    std::printf("alerts: %lld raw -> %lld structured\n", static_cast<long long>(raw),
                static_cast<long long>(stats.emitted_new));
    if (faults != nullptr) {
        const fault_stats& fs = faults->stats();
        std::printf("faults: %llu in, %llu dropped (dropout), %llu duplicated, "
                    "%llu reordered, %llu corrupted, %llu skewed\n",
                    static_cast<unsigned long long>(fs.alerts_in),
                    static_cast<unsigned long long>(fs.dropped_dropout),
                    static_cast<unsigned long long>(fs.duplicated),
                    static_cast<unsigned long long>(fs.reordered),
                    static_cast<unsigned long long>(fs.corrupted),
                    static_cast<unsigned long long>(fs.skewed));
    }
    if (guarded) {
        const overload_metrics& om = guard->metrics();
        std::printf("overload: %llu admitted, %llu shed "
                    "(%llu dup / %llu other / %llu root-cause / %llu failure), "
                    "%llu quarantined, %llu breaker trips\n",
                    static_cast<unsigned long long>(om.admitted),
                    static_cast<unsigned long long>(om.shed_total()),
                    static_cast<unsigned long long>(om.shed_duplicate),
                    static_cast<unsigned long long>(om.shed_other),
                    static_cast<unsigned long long>(om.shed_root_cause),
                    static_cast<unsigned long long>(om.shed_failure),
                    static_cast<unsigned long long>(om.quarantined),
                    static_cast<unsigned long long>(om.breaker_trips));
    }
    if (opt.metrics) {
        engine_metrics m = engine.metrics();
        m.recovery += persist_metrics;
        if (guard != nullptr) {
            m.overload += guard->metrics();
            m.degraded.sketched += guard->sketched_decisions();
        }
        if (faults != nullptr) {
            // The injector, not the engine, knows which sources went dark.
            m.degraded.sources_in_dropout = faults->stats().sources_in_dropout;
        }
        if (mgr) m.lifecycle = mgr->metrics();
        std::printf("%s", m.render().c_str());
    }

    // take_reports is already globally ranked (severity desc, id asc);
    // the shared renderer keeps this listing byte-identical to the
    // daemon's GET /v1/report. With the life-cycle layer on, the manager
    // already drained every barrier's reports, so the managed listing
    // (one representative per lineage) replaces the raw one.
    const serve::report_listing_options lopts{.json = opt.json, .timeline = opt.timeline};
    if (mgr) {
        if (opt.json || opt.timeline) {
            std::printf("%s", serve::render_report_listing(mgr->managed_reports(), lopts).c_str());
        } else {
            std::printf("%s", mgr->render_managed().c_str());
        }
    } else {
        const auto reports = engine.take_reports();
        std::printf("%s", serve::render_report_listing(reports, lopts).c_str());
    }
    return 0;
}

serve::daemon* g_daemon = nullptr;
federate::aggregator* g_aggregator = nullptr;

void handle_stop_signal(int) {
    if (g_daemon != nullptr) g_daemon->request_stop();
    if (g_aggregator != nullptr) g_aggregator->request_stop();
}

/// The reconnect policy the client and the federation emitter share.
serve::retry_policy retry_from(const options& opt) {
    serve::retry_policy policy;
    policy.attempts = opt.retry;
    policy.base_ms = opt.retry_base_ms;
    return policy;
}

/// --serve / --http: run the daemon until SIGTERM/SIGINT.
int run_serve(const options& opt, const topology& topo, const customer_registry& customers,
              const alert_type_registry& registry, const syslog_classifier& syslog) {
    serve::daemon d(topo, customers, registry, &syslog, opt);

    // --federate emit: hang the digest emitter off the daemon's barrier
    // hook. The emitter journals next to the engine checkpoints unless
    // --fed-journal picks its own directory.
    std::unique_ptr<federate::digest_emitter> emitter;
    if (opt.federate.emit()) {
        federate::emitter_config ecfg;
        ecfg.region = opt.federate.emit_region;
        ecfg.aggregator_addr = opt.federate.emit_addr;
        ecfg.journal_dir = !opt.federate.journal_dir.empty() ? opt.federate.journal_dir
                                                             : opt.checkpoint_dir;
        ecfg.heartbeat_ms = opt.federate.heartbeat_ms;
        ecfg.retry = retry_from(opt);
        emitter = std::make_unique<federate::digest_emitter>(std::move(ecfg));
        federate::digest_emitter* em = emitter.get();
        d.set_barrier_hook([em](const std::vector<incident_report>& reports, sim_time now,
                                bool finish) { em->publish(reports, now, finish); });
        d.set_metrics_hook([em](engine_metrics& m) { m.federation += em->metrics(); });
        d.set_recovered_hook([em, &d, &opt] {
            if (error e = em->start()) {
                // Surface it loudly but keep serving: a daemon that can't
                // federate is degraded, not dead.
                std::fprintf(stderr, "federate: %s (emitter disabled)\n", e.message().c_str());
                return;
            }
            // The engine journal can be ahead of the digest journal (it
            // fsyncs on a different cadence, or the digests lived in
            // memory only): re-digest what recovery closed past the
            // emitter's last barrier so the aggregator still converges.
            const sim_time have = em->last_barrier();
            const sim_time engine_at = d.last_barrier();
            if (have < engine_at) {
                em->publish(d.store().reports_closed_after(have), engine_at, d.finished());
            }
            std::printf("federate: emitting as region '%s' to %s\n",
                        opt.federate.emit_region.c_str(), opt.federate.emit_addr.c_str());
        });
    }

    if (error e = d.start()) {
        std::fprintf(stderr, "serve: %s\n", e.message().c_str());
        return 1;
    }
    g_daemon = &d;
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);
    if (!d.ingest_addr().empty()) {
        std::printf("serve: ingest on %s\n", d.ingest_addr().c_str());
    }
    if (!d.http_addr().empty()) std::printf("serve: http on %s\n", d.http_addr().c_str());
    std::fflush(stdout);
    const int rc = d.run();
    if (emitter) emitter->stop();  // final flush of anything unacked
    g_daemon = nullptr;
    return rc;
}

/// --federate aggregate: run the global aggregator until SIGTERM/SIGINT.
int run_aggregator(const options& opt) {
    federate::aggregator_config cfg;
    cfg.listen_addr = opt.federate.aggregate_addr;
    cfg.http_addr = opt.serve.http_addr;
    cfg.health = {opt.federate.lag_ms, opt.federate.stale_ms, opt.federate.partition_ms};
    cfg.report_json = opt.json;
    cfg.report_timeline = opt.timeline;
    federate::aggregator agg(std::move(cfg));
    if (error e = agg.start()) {
        std::fprintf(stderr, "federate: %s\n", e.message().c_str());
        return 1;
    }
    g_aggregator = &agg;
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);
    const int rc = agg.run();
    g_aggregator = nullptr;
    return rc;
}

/// Runs `action` with the options' bounded-retry schedule: up to
/// opt.retry reconnect attempts after the first, exponential backoff
/// with deterministic jitter between them. `err` carries the last
/// transport failure out.
template <typename Action>
bool with_retries(const options& opt, std::string& err, Action&& action) {
    const serve::retry_policy policy = retry_from(opt);
    for (int attempt = 0;; ++attempt) {
        if (action(err)) return true;
        if (attempt >= policy.attempts) return false;
        const auto delay = serve::backoff_delay(policy, attempt);
        std::fprintf(stderr, "connect: %s; retry %d/%d in %lldms\n", err.c_str(), attempt + 1,
                     policy.attempts, static_cast<long long>(delay.count()));
        std::this_thread::sleep_for(delay);
    }
}

/// --connect: HTTP GET/POST or stream a trace into a daemon.
int run_client(const options& opt) {
    const auto addr = serve::parse_addr(opt.client.connect);  // validated upstream
    std::string err;
    if (!opt.client.stream_file.empty()) {
        std::ifstream in(opt.client.stream_file);
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n", opt.client.stream_file.c_str());
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        trace_parse_result trace = parse_trace(buffer.str());
        for (const trace_parse_error& e : trace.errors) {
            std::fprintf(stderr, "%s:%d: %s\n", opt.client.stream_file.c_str(), e.line,
                         e.message.c_str());
        }
        // Same cadence as --replay (2s tick batching, finish 20min after
        // the last arrival) so the daemon reaches bit-identical reports.
        // Retries re-stream from the top, which covers the two intended
        // cases exactly: a daemon that is not up yet (nothing applied),
        // and a daemon restarted with --recover --resume-stream (the
        // already-journaled prefix is skipped, the rest replays).
        std::optional<serve::stream_stats> stats;
        (void)with_retries(opt, err, [&](std::string& e) {
            stats = serve::stream_trace(*addr, trace.alerts, seconds(2), minutes(20), e);
            return stats.has_value();
        });
        if (!stats) {
            std::fprintf(stderr, "stream: %s\n", err.c_str());
            return 1;
        }
        std::printf("streamed %llu records (%llu alerts): %s\n",
                    static_cast<unsigned long long>(stats->records),
                    static_cast<unsigned long long>(stats->alerts), stats->status.c_str());
        return stats->ok() ? 0 : 1;
    }

    const bool post = !opt.client.post_path.empty();
    std::string path = post ? opt.client.post_path : opt.client.get_path;
    // Spare the shell user from percent-encoding: spaces in query values
    // ("--get '/v1/incidents?loc=Region A'") are escaped here.
    std::string encoded;
    for (const char c : path) {
        if (c == ' ') {
            encoded += "%20";
        } else {
            encoded += c;
        }
    }
    std::string body;
    if (!opt.client.data_file.empty()) {
        std::ifstream in(opt.client.data_file, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n", opt.client.data_file.c_str());
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        body = buffer.str();
    }
    serve::http_response response;
    if (!with_retries(opt, err, [&](std::string& e) {
            return serve::http_call(*addr, post ? "POST" : "GET", encoded, body, response, e);
        })) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
    }
    std::fputs(response.body.c_str(), stdout);
    if (response.status < 200 || response.status >= 300) {
        std::fprintf(stderr, "HTTP %d\n", response.status);
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    serve::cli_parse_result parsed = serve::parse_cli(argc, argv);
    if (parsed.mode == serve::run_mode::help) {
        std::printf("%s", serve::cli_usage().c_str());
        return 0;
    }
    for (const serve::option_error& e : parsed.errors) {
        std::fprintf(stderr, "%s\n", e.render().c_str());
    }
    if (!parsed.ok()) {
        std::fprintf(stderr, "%s", serve::cli_usage().c_str());
        return 2;
    }
    const options& opt = parsed.opts;
    const std::vector<serve::option_error> issues = opt.validate(parsed.mode);
    for (const serve::option_error& e : issues) {
        std::fprintf(stderr, "%s\n", e.render().c_str());
    }
    if (!issues.empty()) return 2;

    if (parsed.mode == serve::run_mode::client) return run_client(opt);
    // The aggregator runs no engine, so it needs no topology or
    // registries — dispatch before any of that is built.
    if (opt.federate.aggregate()) return run_aggregator(opt);

    // Topology: preset, or imported file.
    topology topo;
    if (!opt.topo_file.empty()) {
        std::ifstream in(opt.topo_file);
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n", opt.topo_file.c_str());
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        topology_parse_result parsed_topo = import_topology(buffer.str());
        for (const topology_parse_error& e : parsed_topo.errors) {
            std::fprintf(stderr, "%s:%d: %s\n", opt.topo_file.c_str(), e.line,
                         e.message.c_str());
            if (!e.text.empty()) {
                std::fprintf(stderr, "  | %s\n", e.text.c_str());
            }
        }
        if (!parsed_topo.ok()) return 1;
        topo = std::move(parsed_topo.topo);
    } else {
        generator_params params = opt.topo_preset == "tiny"     ? generator_params::tiny()
                                  : opt.topo_preset == "medium" ? generator_params::medium()
                                  : opt.topo_preset == "large"  ? generator_params::large()
                                                                : generator_params::small();
        params.seed = opt.seed;
        topo = generate_topology(params);
    }
    std::printf("topology: %zu devices, %zu links, %zu circuit sets\n", topo.devices().size(),
                topo.links().size(), topo.circuit_sets().size());

    if (!opt.export_topo.empty()) {
        std::ofstream out(opt.export_topo);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", opt.export_topo.c_str());
            return 1;
        }
        out << export_topology(topo);
        std::printf("wrote %s\n", opt.export_topo.c_str());
        return 0;
    }

    rng crand(opt.seed + 1);
    const customer_registry customers = customer_registry::generate(topo, opt.customers, crand);
    alert_type_registry registry = alert_type_registry::with_builtin_catalog();
    if (opt.extended) register_extended_alert_types(registry);
    const syslog_classifier syslog = syslog_classifier::train_from_catalog();

    if (parsed.mode == serve::run_mode::serve) {
        return run_serve(opt, topo, customers, registry, syslog);
    }

    std::unique_ptr<fault_injector> faults;
    if (!opt.faults_spec.empty()) {
        fault_parse_result parsed_faults = parse_fault_spec(opt.faults_spec);
        for (const fault_parse_error& e : parsed_faults.errors) {
            std::fprintf(stderr, "--faults: bad clause '%s': %s\n", e.clause.c_str(),
                         e.message.c_str());
        }
        if (!parsed_faults.ok()) return 2;
        faults = std::make_unique<fault_injector>(parsed_faults.spec);
        std::printf("faults: injecting '%s'\n", opt.faults_spec.c_str());
    }

    overload::controller guard(opt.overload_config(), &topo, &registry);
    if (!guard.pass_through()) {
        std::printf("overload: admission budget %llu/window, breakers %s\n",
                    static_cast<unsigned long long>(opt.admission_budget),
                    opt.breaker ? "on" : "off");
    }

    const skynet_engine::deps deps{&topo, &customers, &registry, &syslog};
    if (opt.shards > 0) {
        sharded_config scfg = opt.sharded();
        if (faults) {
            scfg.worker_stall = faults->worker_stall_hook();
            // Injected stalls without a watchdog would wedge the run;
            // arm a default deadline so the drill recovers on its own.
            if (scfg.worker_stall && scfg.watchdog_deadline_ms == 0) {
                scfg.watchdog_deadline_ms = 250;
            }
        }
        sharded_engine engine(deps, scfg);
        std::printf("engine: region-sharded, %zu shards%s\n", engine.shard_count(),
                    scfg.watchdog_deadline_ms > 0 ? ", watchdog on" : "");
        return run_session(engine, opt, topo, customers, faults.get(), &guard);
    }
    skynet_engine engine(deps, opt.pipeline);
    return run_session(engine, opt, topo, customers, faults.get(), &guard);
}
