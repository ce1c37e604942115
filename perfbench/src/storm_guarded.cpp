// storm_guarded: a synthetic single-region storm through the overload
// controller (breakers on, sketch auto, a 2500-alert window budget) into
// a sequential engine with no journal and lifecycle off. At every window
// barrier the closed reports go to the incident store and the health
// JSON is rebuilt. After the last window the engine is checkpointed once
// (a shutdown snapshot, outside the timed path) so recover_s has a
// subject; the finish barrier follows.
#include <filesystem>

#include "inputs.h"
#include "skynet/core/sharded_engine.h"
#include "skynet/overload/controller.h"
#include "skynet/persist/durable.h"
#include "skynet/persist/recovery.h"
#include "skynet/serve/incident_store.h"
#include "skynet/serve/report_text.h"
#include "skynet/sim/network_state.h"
#include "workloads.h"

namespace perfbench {

using namespace skynet;

namespace {

/// Binding in every window (each carries 4000 alerts) yet loose enough
/// that the locator still opens an incident, as the 16x budget of
/// bench_storm_shedding is there.
constexpr std::uint64_t kWindowBudget = 2500;
constexpr int kQueryRounds = 100;
constexpr int kMinIterations = 8;

/// Replays the admitted batches through a 2-shard engine; the survivor
/// parity reference. Stealing is off for the reason serve_flood.cpp
/// gives.
std::string sharded_listing(const world& w, const skynet_config& engine_cfg,
                            const std::vector<storm_window>& storm,
                            const std::vector<std::vector<std::vector<traced_alert>>>& admitted,
                            sim_time end) {
    sharded_config scfg;
    scfg.shards = 2;
    scfg.steal = false;
    scfg.engine = engine_cfg;
    sharded_engine engine({&w.topo, &w.customers, &w.registry, &w.syslog}, scfg);
    const network_state idle(&w.topo, &w.customers);
    for (std::size_t k = 0; k < storm.size(); ++k) {
        for (const auto& batch : admitted[k]) {
            engine.ingest_batch(std::span<const traced_alert>(batch));
        }
        engine.tick(storm[k].at, idle);
    }
    engine.finish(end, idle);
    return serve::render_report_listing(engine.take_reports());
}

}  // namespace

void run_storm_guarded(const run_config& cfg, result& out) {
    const std::vector<storm_window> storm = make_storm(*make_storm_world(), cfg.seed);
    const auto offered = static_cast<double>(alert_count(storm));
    const sim_time end = storm.back().at + finish_grace;

    skynet_config engine_cfg;  // --sketch auto at the default 65 536-key threshold
    engine_cfg.loc.deterministic_ids = true;  // ids comparable with the sharded replay
    overload::controller_config guard_cfg;
    guard_cfg.admission.max_alerts = kWindowBudget;
    guard_cfg.breaker.enabled = true;
    guard_cfg.sketch = engine_cfg.pre.sketch;

    out.notes.push_back("input: " + std::to_string(alert_count(storm)) + " alerts in " +
                        std::to_string(storm.size()) + " windows");
    const std::string dir = cfg.out_dir + "/storm_guarded.ckpt";
    std::string first_listing;
    tracer& tr = out.trace;
    std::vector<iteration> iters;
    run_iterations(cfg, kMinIterations, out, iters, [&](bool check_pass, bool traced) {
        iteration it;
        const std::size_t mark = tr.size();
        std::filesystem::remove_all(dir);

        const std::int64_t s0 = now_ns();
        const std::unique_ptr<world> w = make_storm_world();
        const skynet_engine::deps deps{&w->topo, &w->customers, &w->registry, &w->syslog};
        skynet_engine engine(deps, engine_cfg);
        overload::controller guard(guard_cfg, &w->topo, &w->registry);
        serve::incident_store store;
        const network_state idle(&w->topo, &w->customers);
        it.setup_s = seconds_between(s0, now_ns());

        std::string health;
        std::size_t live_peak = 0;
        std::vector<std::vector<std::vector<traced_alert>>> admitted_log(storm.size());
        const auto publish = [&](sim_time now) {
            std::vector<incident_report> closed;
            {
                const auto s = tr.time("core.take_reports");
                closed = engine.take_reports();
            }
            {
                const auto s = tr.time("serve.store.append_closed");
                store.append_closed(closed, now);
            }
            {
                const auto s = tr.time("serve.health_json");
                engine_metrics m = engine.barrier_metrics();
                m.overload += guard.metrics();
                m.degraded.sketched += guard.sketched_decisions();
                health = m.to_json() + "\n";
            }
            if (traced) live_peak = std::max(live_peak, engine.live_alert_count());
        };

        std::uint64_t failed_ops = 0;
        std::int64_t paused_ns = 0;
        std::string checkpoint_error;
        const std::int64_t t0 = now_ns();
        try {
            for (std::size_t k = 0; k < storm.size(); ++k) {
                const storm_window& sw = storm[k];
                tr.set_tick(static_cast<int>(k));
                const std::int64_t tick_start = now_ns();
                for (const std::vector<traced_alert>& batch : sw.batches) {
                    std::vector<traced_alert> admitted;
                    {
                        const auto s = tr.time("overload.admit");
                        admitted = guard.admit(batch);
                    }
                    if (admitted.empty()) continue;
                    {
                        const auto s = tr.time("core.ingest_batch");
                        engine.ingest_batch(std::span<const traced_alert>(admitted));
                    }
                    if (check_pass) admitted_log[k].push_back(std::move(admitted));
                }
                {
                    const auto s = tr.time("core.tick");
                    engine.tick(sw.at, idle);
                }
                {
                    const auto s = tr.time("overload.on_tick");
                    guard.on_tick(sw.at);
                }
                publish(sw.at);
                it.tick_ms.push_back(seconds_between(tick_start, now_ns()) * 1e3);
                if (k + 1 == storm.size()) {
                    // Shutdown snapshot after the last window, off the
                    // clock: no journal, one checkpoint of engine, guard
                    // and store.
                    const std::int64_t p0 = now_ns();
                    persist::durable_options dopts;
                    dopts.dir = dir;
                    dopts.checkpoint_every = 0;
                    dopts.locations = &w->topo.locations();
                    dopts.log = &store.log();
                    dopts.controller = &guard;
                    persist::durable_session<skynet_engine> session(engine, dopts);
                    const auto s = tr.time("persist.checkpoint");
                    if (!session.checkpoint_now(sw.at)) {
                        ++failed_ops;
                        checkpoint_error = session.last_error();
                    }
                    paused_ns += now_ns() - p0;
                }
            }
            tr.set_tick(static_cast<int>(storm.size()));
            {
                const auto s = tr.time("core.finish");
                engine.finish(end, idle);
            }
            publish(end);
        } catch (const std::exception& e) {
            ++failed_ops;
            out.check(false, std::string("storm_guarded: barrier threw: ") + e.what());
        }
        it.alerts_per_s = offered / (seconds_between(t0, now_ns()) - paused_ns / 1e9);
        tr.set_tick(-1);

        std::string listing;
        {
            std::vector<incident_report> ranked;
            {
                const auto s = tr.time("serve.store.ranked_reports");
                ranked = store.ranked_reports();
            }
            const auto s = tr.time("serve.render.report_listing");
            listing = serve::render_report_listing(ranked);
        }
        time_local_queries(store, health, kQueryRounds, tr, it.query_us);

        // Recovery of the shutdown snapshot into a fresh engine and guard,
        // then the same finish barrier.
        skynet_engine recovered_engine(deps, engine_cfg);
        overload::controller recovered_guard(guard_cfg, &w->topo, &w->registry);
        serve::incident_store recovered_store;
        persist::recovery_options ropts;
        ropts.dir = dir;
        ropts.tick_state = &idle;
        ropts.controller = &recovered_guard;
        const std::int64_t r0 = now_ns();
        {
            const auto s = tr.time("persist.recover");
            (void)persist::recover(recovered_engine, w->topo.locations(), &recovered_store.log(),
                                   ropts);
        }
        it.recover_s = seconds_between(r0, now_ns());
        recovered_store.reindex();
        recovered_engine.finish(end, idle);
        recovered_store.append_closed(recovered_engine.take_reports(), end);

        const overload_metrics& om = guard.metrics();
        const std::uint64_t sketched = guard.sketched_decisions() + engine.metrics().degraded.sketched;
        out.check(checkpoint_error.empty(), "storm_guarded: checkpoint failed: " + checkpoint_error);
        out.check(serve::render_report_listing(recovered_store.ranked_reports()) == listing,
                  "storm_guarded: recovered listing differs from the uninterrupted one");
        if (check_pass) {
            first_listing = listing;
            out.check(om.shed_total() > 0, "storm_guarded: the guard shed nothing");
            out.check(om.breaker_trips >= 1, "storm_guarded: no breaker tripped");
            out.check(sketched > 0, "storm_guarded: no decision was sketched");
            out.check(om.admitted + om.shed_total() + om.quarantined ==
                          static_cast<std::uint64_t>(offered),
                      "storm_guarded: admitted + shed + quarantined != offered");
            out.check(store.size() > 0, "storm_guarded: no incident opened");
            out.check(sharded_listing(*w, engine_cfg, storm, admitted_log, end) == listing,
                      "storm_guarded: survivor parity: the 2-shard replay of the admitted "
                      "stream differs");
        }
        out.check(listing == first_listing, "storm_guarded: listing differs between iterations");

        it.attempted = storm.size() + 2;  // window barriers, finish, checkpoint
        it.failed = failed_ops;

        const span_totals spans = tr.by_name(mark, tr.size());
        const engine_metrics& em = engine.metrics();
        std::map<std::string, double>& L = it.layer;
        L["overload.admit_ns_per_alert"] = total_ms(spans, "overload.admit") * 1e6 / offered;
        L["overload.on_tick_us"] = mean_us(spans, "overload.on_tick");
        L["overload.admit_ratio"] = static_cast<double>(om.admitted) / offered;
        L["overload.shed"] = static_cast<double>(om.shed_total());
        L["overload.quarantined"] = static_cast<double>(om.quarantined);
        L["sketch.sketched_decisions"] = static_cast<double>(sketched);
        L["sketch.sketched_share"] = static_cast<double>(sketched) / offered;
        L["persist.self_ms"] = total_ms(spans, "persist.checkpoint");
        L["persist.journal_mb"] = file_mb(dir + "/" + persist::journal_filename);
        L["persist.checkpoints"] = checkpoint_error.empty() ? 1.0 : 0.0;
        L["persist.snapshot_mb"] = newest_snapshot_mb(dir);
        fill_engine_layers(em, L);
        L["core.live_alerts_peak"] = static_cast<double>(live_peak);
        L["serve.store.append_us"] = mean_us(spans, "serve.store.append_closed");
        L["serve.store.entries"] = static_cast<double>(store.size());
        L["serve.health_json_us"] = mean_us(spans, "serve.health_json");
        L["serve.report_render_ms"] = total_ms(spans, "serve.render.report_listing");
        L["serve.report_bytes"] = static_cast<double>(listing.size());
        return it;
    });
    std::filesystem::remove_all(dir);
    if (!out.failed_check.empty()) return;

    summarize_end_to_end(iters, /*queries_replayed=*/true, out);
    emit_layers(iters,
                {{"persist.journal_records", "no journal: one shutdown snapshot only"},
                 {"persist.recover_replayed", "no journal suffix to replay"},
                 {"core.sharded", "sequential engine: no shards"},
                 {"lifecycle", "lifecycle off on this workload"},
                 {"serve.http", "in-process path: no HTTP"}},
                out);
}

}  // namespace perfbench
