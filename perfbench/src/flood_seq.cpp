// flood_seq: the recorded 4-region flood replayed closed-loop through the
// batch-CLI production path on the default sequential engine.
//
//   guard (pass-through: admit() skipped, on_tick() at every barrier)
//   -> persist::durable_session (journal, checkpoint every 8 barriers)
//   -> skynet_engine
//   -> barrier hook: take/open reports -> lifecycle::manager::on_barrier
//      -> incident_store::append_closed -> engine_metrics::to_json
//   -> final report listing, then persist::recover of the checkpoint dir.
#include <filesystem>

#include "inputs.h"
#include "skynet/lifecycle/manager.h"
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

constexpr std::uint64_t kCheckpointEvery = 8;
constexpr int kQueryRounds = 300;
constexpr int kMinIterations = 6;

}  // namespace

void run_flood_seq(const run_config& cfg, result& out) {
    const std::vector<record> records = record_region_flood(cfg.seed);
    const auto offered = static_cast<double>(alert_count(records));
    const std::size_t ticks = records.size() - 1;  // the last record is the finish
    const skynet_config engine_cfg{};  // the batch CLI's default sequential engine

    std::size_t ref_incidents = 0;
    const std::string reference =
        reference_listing(*make_flood_world(), engine_cfg, records, ref_incidents);
    if (!out.check(ref_incidents > 0, "flood_seq: the reference replay opened no incident")) {
        return;
    }

    out.notes.push_back("input: " + std::to_string(alert_count(records)) + " alerts in " +
                        std::to_string(ticks) + " ticks; reference listing: " +
                        std::to_string(ref_incidents) + " incidents");
    const std::string dir = cfg.out_dir + "/flood_seq.ckpt";
    tracer& tr = out.trace;
    std::vector<iteration> iters;
    run_iterations(cfg, kMinIterations, out, iters, [&](bool check_pass, bool traced) {
        iteration it;
        const std::size_t mark = tr.size();
        std::filesystem::remove_all(dir);

        // --- set-up: world, engine, guard, lifecycle, store, session.
        const std::int64_t s0 = now_ns();
        const std::unique_ptr<world> w = make_flood_world();
        const skynet_engine::deps deps{&w->topo, &w->customers, &w->registry, &w->syslog};
        skynet_engine engine(deps, engine_cfg);
        overload::controller guard(overload::controller_config{}, &w->topo, &w->registry);
        lifecycle::manager mgr(lifecycle::config{}, &w->topo);
        serve::incident_store store;
        const network_state idle(&w->topo, &w->customers);
        std::string health;
        std::size_t live_peak = 0;
        persist::durable_session<skynet_engine>* session_ptr = nullptr;

        persist::durable_options dopts;
        dopts.dir = dir;
        dopts.checkpoint_every = kCheckpointEvery;
        dopts.locations = &w->topo.locations();
        dopts.log = &store.log();
        dopts.controller = &guard;
        dopts.lifecycle = &mgr;
        // Runs inside the session's tick, before any checkpoint at the
        // barrier, so the snapshot holds the store and manager through it.
        dopts.barrier_hook = [&](sim_time now, const network_state& state) {
            std::vector<incident_report> closed;
            {
                const auto hook = tr.time("lifecycle.hook");
                closed = engine.take_reports();
                const std::vector<incident_report> open = engine.open_reports(now, state);
                const auto s = tr.time("lifecycle.on_barrier");
                mgr.on_barrier(now, closed, open, &state);
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
                m.recovery += session_ptr->metrics();
                m.lifecycle = mgr.metrics();
                health = m.to_json() + "\n";
            }
            if (traced) live_peak = std::max(live_peak, engine.live_alert_count());
        };
        persist::durable_session<skynet_engine> session(engine, dopts);
        session_ptr = &session;
        it.setup_s = seconds_between(s0, now_ns());

        // --- the replay: first ingest to the final barrier's reports in
        // the store.
        std::uint64_t failed_barriers = 0;
        const std::int64_t t0 = now_ns();
        for (std::size_t i = 0; i < records.size(); ++i) {
            const record& r = records[i];
            tr.set_tick(static_cast<int>(i));
            const std::int64_t tick_start = now_ns();
            try {
                if (!r.batch.empty()) {
                    const auto s = tr.time("persist.ingest_batch");
                    session.ingest_batch(std::span<const traced_alert>(r.batch));
                }
                if (r.finish) {
                    const auto s = tr.time("persist.finish");
                    session.finish(r.barrier, idle);
                } else {
                    const auto s = tr.time("persist.tick");
                    session.tick(r.barrier, idle);
                }
                const auto s = tr.time("overload.on_tick");
                guard.on_tick(r.barrier);
            } catch (const std::exception& e) {
                ++failed_barriers;
                out.check(false, std::string("flood_seq: barrier threw: ") + e.what());
            }
            if (!r.finish) it.tick_ms.push_back(seconds_between(tick_start, now_ns()) * 1e3);
        }
        it.alerts_per_s = offered / seconds_between(t0, now_ns());
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

        // --- recovery of the checkpoint directory into a fresh engine,
        // life-cycle manager and store.
        skynet_engine recovered_engine(deps, engine_cfg);
        lifecycle::manager recovered_mgr(lifecycle::config{}, &w->topo);
        serve::incident_store recovered_store;
        persist::recovery_options ropts;
        ropts.dir = dir;
        ropts.tick_state = &idle;
        ropts.lifecycle = &recovered_mgr;
        ropts.replay_closed = [&](sim_time when, const std::vector<incident_report>& closed) {
            if (!closed.empty()) recovered_store.append_closed(closed, when);
        };
        persist::recovery_result recovered;
        const std::int64_t r0 = now_ns();
        {
            const auto s = tr.time("persist.recover");
            recovered = persist::recover(recovered_engine, w->topo.locations(),
                                         &recovered_store.log(), ropts);
        }
        it.recover_s = seconds_between(r0, now_ns());
        recovered_store.reindex();

        // --- checks (every iteration; the first one runs before any
        // number is taken).
        out.check(listing == reference,
                  "flood_seq: listing differs from the plain sequential replay");
        out.check(serve::render_report_listing(recovered_store.ranked_reports()) == listing,
                  "flood_seq: recovered listing differs from the uninterrupted one");
        out.check(recovered.metrics.records_replayed > 0 && recovered.saw_finish,
                  "flood_seq: recovery replayed no journal suffix up to the finish");
        out.check(session.last_error().empty(), "flood_seq: checkpoint failed: " +
                                                    session.last_error());
        if (check_pass) {
            out.check(mgr.lineages().size() > 0, "flood_seq: lifecycle tracked no lineage");
        }

        const recovery_metrics pm = session.metrics();
        const std::uint64_t expected_checkpoints = ticks / kCheckpointEvery;
        it.attempted = records.size() + expected_checkpoints;
        it.failed = failed_barriers + (expected_checkpoints - std::min(expected_checkpoints,
                                                                       pm.checkpoints_written));

        // --- per-layer numbers.
        const span_totals spans = tr.by_name(mark, tr.size());
        const engine_metrics& em = engine.metrics();
        const double stage_ms = static_cast<double>(em.preprocess.latency.total_ns() +
                                                    em.locate.latency.total_ns() +
                                                    em.evaluate.latency.total_ns()) /
                                1e6;
        std::map<std::string, double>& L = it.layer;
        L["overload.on_tick_us"] = mean_us(spans, "overload.on_tick");
        L["overload.admit_ratio"] = 1.0;
        L["sketch.sketched_decisions"] =
            static_cast<double>(em.degraded.sketched + guard.sketched_decisions());
        L["sketch.sketched_share"] = L["sketch.sketched_decisions"] / offered;
        L["persist.self_ms"] = total_ms(spans, "persist.ingest_batch", true) +
                               total_ms(spans, "persist.tick", true) +
                               total_ms(spans, "persist.finish", true) - stage_ms;
        L["persist.journal_records"] = static_cast<double>(pm.journal_records_written);
        L["persist.journal_mb"] = file_mb(dir + "/" + persist::journal_filename);
        L["persist.checkpoints"] = static_cast<double>(pm.checkpoints_written);
        L["persist.snapshot_mb"] = newest_snapshot_mb(dir);
        L["persist.recover_replayed"] = static_cast<double>(recovered.metrics.records_replayed);
        fill_engine_layers(em, L);
        L["core.live_alerts_peak"] = static_cast<double>(live_peak);
        L["lifecycle.hook_ms"] = total_ms(spans, "lifecycle.hook");
        L["lifecycle.on_barrier_ms"] = total_ms(spans, "lifecycle.on_barrier");
        L["lifecycle.lineages"] = static_cast<double>(mgr.lineages().size());
        L["lifecycle.recurrences"] = static_cast<double>(mgr.metrics().recurrences_linked);
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
                {{"overload.admit_ns_per_alert", "pass-through guard: admit() is skipped"},
                 {"overload.shed", "pass-through guard sheds nothing"},
                 {"overload.quarantined", "pass-through guard: breakers off"},
                 {"core.sharded", "sequential engine: no shards"},
                 {"serve.http", "batch path: no HTTP"}},
                out);
}

}  // namespace perfbench
