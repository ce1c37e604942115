// Region-sharded engine tests: the merged ranked output must be
// bit-identical to a sequential skynet_engine run on the same trace
// (same scenario, same seed), for any shard count — the partition
// invariant DESIGN.md "Region-sharded engine" documents. Also covers
// the batch-ingest API, skynet_config::validate(), the open and
// finished report views, engine metrics, and the steal handoff (an
// owner parked on a batch a thief is preparing).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <span>

#include "flood_fixture.h"
#include "skynet/core/pipeline.h"
#include "skynet/core/sharded_engine.h"
#include "skynet/serve/report_text.h"
#include "skynet/sim/engine.h"
#include "skynet/topology/generator.h"

namespace skynet {
namespace {

struct world {
    topology topo;
    customer_registry customers;
    alert_type_registry registry = alert_type_registry::with_builtin_catalog();
    syslog_classifier syslog = syslog_classifier::train_from_catalog();

    explicit world(generator_params p = generator_params::small()) {
        p.legacy_snmp_fraction = 0.0;
        topo = generate_topology(p);
        rng crand(71);
        customers = customer_registry::generate(topo, 300, crand);
    }

    [[nodiscard]] skynet_engine::deps deps() {
        return {&topo, &customers, &registry, &syslog};
    }

    [[nodiscard]] location first_logic_site() const {
        for (const device& d : topo.devices()) {
            if (d.role == device_role::isr) {
                return d.loc.ancestor_at(hierarchy_level::logic_site);
            }
        }
        throw std::runtime_error("no isr");
    }
};

using scenario_factory = std::function<std::unique_ptr<scenario>()>;

/// Replays one simulated episode through `eng`. The simulation is fully
/// deterministic for a given seed, so calling this twice with the same
/// arguments feeds two engines identical (alert, arrival) sequences,
/// tick cadence, and network states.
template <typename Engine>
void drive(world& w, Engine& eng, const scenario_factory& make, sim_duration duration,
           std::uint64_t seed) {
    simulation_engine sim(&w.topo, &w.customers, engine_params{.tick = seconds(2), .seed = seed});
    sim.add_default_monitors(monitor_options{.noise_rate = 0.01});
    sim.inject(make(), minutes(1), duration);
    sim.run_until_batched(
        minutes(1) + duration + minutes(1),
        [&](std::span<const traced_alert> batch) { eng.ingest_batch(batch); },
        [&](sim_time now) { eng.tick(now, sim.state()); });
    eng.finish(sim.clock().now(), sim.state());
}

void expect_identical_reports(const std::vector<incident_report>& seq,
                              const std::vector<incident_report>& sharded) {
    ASSERT_EQ(seq.size(), sharded.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        SCOPED_TRACE("report " + std::to_string(i));
        EXPECT_EQ(seq[i].inc.id, sharded[i].inc.id);
        EXPECT_EQ(seq[i].inc.root.to_string(), sharded[i].inc.root.to_string());
        EXPECT_EQ(seq[i].inc.alerts.size(), sharded[i].inc.alerts.size());
        EXPECT_EQ(seq[i].severity.score, sharded[i].severity.score);
        EXPECT_EQ(seq[i].actionable, sharded[i].actionable);
        EXPECT_EQ(seq[i].render(), sharded[i].render());
    }
}

/// Runs the same episode through a sequential engine (deterministic ids
/// on, matching what the sharded engine forces) and a sharded one, and
/// asserts identical ranked reports plus identical aggregate stats.
void expect_equivalent(world& w, const scenario_factory& make, sim_duration duration,
                       std::uint64_t seed, std::size_t shards) {
    skynet_config cfg;
    cfg.loc.deterministic_ids = true;
    skynet_engine seq(w.deps(), cfg);
    drive(w, seq, make, duration, seed);
    const std::vector<incident_report> seq_reports = seq.take_reports();
    const preprocessor_stats seq_stats = seq.preprocessing_stats();
    const std::int64_t seq_structured = seq.structured_alert_count();

    sharded_config scfg;
    scfg.shards = shards;
    sharded_engine par(w.deps(), scfg);
    drive(w, par, make, duration, seed);
    const std::vector<incident_report> par_reports = par.take_reports();

    expect_identical_reports(seq_reports, par_reports);
    EXPECT_EQ(seq_stats, par.preprocessing_stats());
    EXPECT_EQ(seq_structured, par.structured_alert_count());
}

TEST(ShardedEquivalenceTest, CableCutMatchesSequential) {
    world w;
    const location ls = w.first_logic_site();
    expect_equivalent(
        w, [&] { return make_internet_entry_cut(w.topo, ls, 0.6); }, minutes(6), 81, 4);
}

TEST(ShardedEquivalenceTest, DdosMatchesSequential) {
    world w;
    expect_equivalent(
        w,
        [&] {
            rng srand(82);
            return make_security_ddos(w.topo, srand, 3);
        },
        minutes(6), 83, 4);
}

TEST(ShardedEquivalenceTest, ShardCountInvariance) {
    // 1 shard and 4 shards must produce identical merged rankings.
    world w;
    const location ls = w.first_logic_site();
    const scenario_factory make = [&] { return make_internet_entry_cut(w.topo, ls, 0.5); };

    std::vector<std::vector<incident_report>> runs;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        sharded_config scfg;
        scfg.shards = shards;
        sharded_engine eng(w.deps(), scfg);
        drive(w, eng, make, minutes(5), 91);
        runs.push_back(eng.take_reports());
    }
    expect_identical_reports(runs[0], runs[1]);
}

TEST(ShardedEquivalenceTest, TinyQueueBackpressureStaysCorrect) {
    // A 2-slot queue with unbatched ingest forces the producer through
    // the full-queue wait path; output must be unaffected.
    world w;
    const location ls = w.first_logic_site();
    const scenario_factory make = [&] { return make_internet_entry_cut(w.topo, ls, 0.6); };

    sharded_config roomy;
    sharded_engine a(w.deps(), roomy);
    drive(w, a, make, minutes(5), 97);

    sharded_config tight;
    tight.queue_capacity = 2;
    tight.max_ingest_batch = 1;
    sharded_engine b(w.deps(), tight);
    drive(w, b, make, minutes(5), 97);

    // Precondition: the producer really did wait on a full queue.
    ASSERT_GT(b.metrics().enqueue_full_waits, 0u);
    expect_identical_reports(a.take_reports(), b.take_reports());
}

TEST(StealParityTest, StealOnAndOffMatchSequential) {
    // Deterministic stealing moves *where* a batch is prepared, never
    // the order its effects apply in, so toggling it cannot change a
    // byte of the merged ranking.
    world w;
    const scenario_factory make = [&] {
        rng srand(84);
        return make_security_ddos(w.topo, srand, 3);
    };

    skynet_config cfg;
    cfg.loc.deterministic_ids = true;
    skynet_engine seq(w.deps(), cfg);
    drive(w, seq, make, minutes(5), 85);
    const std::vector<incident_report> seq_reports = seq.take_reports();

    for (const bool steal : {true, false}) {
        SCOPED_TRACE(steal ? "steal on" : "steal off");
        sharded_config scfg;
        scfg.shards = 4;
        scfg.steal = steal;
        // Unbatched ingest: many small stealable jobs per shard.
        scfg.max_ingest_batch = 1;
        sharded_engine par(w.deps(), scfg);
        drive(w, par, make, minutes(5), 85);
        expect_identical_reports(seq_reports, par.take_reports());
        const steal_metrics st = par.metrics().steal;
        if (!steal) {
            EXPECT_EQ(st.batches_stolen, 0u);
            EXPECT_EQ(st.steal_attempts, 0u);
        }
    }
}

TEST(StealParityTest, StealUnderStallKeepsParityAndStealsBatches) {
    // Composes stealing with the PR 5 watchdog stall clause: one shard
    // parks at its gate long enough for idle peers to prepare its queued
    // batches, the watchdog releases it, and the recovered owner applies
    // the thief-prepared work in submission order. The report must stay
    // byte-identical to the sequential run and at least one batch must
    // actually have been stolen — otherwise the test silently stopped
    // covering the thief path.
    world w;
    const scenario_factory make = [&] {
        rng srand(86);
        return make_security_ddos(w.topo, srand, 3);
    };

    skynet_config cfg;
    cfg.loc.deterministic_ids = true;
    skynet_engine seq(w.deps(), cfg);
    drive(w, seq, make, minutes(4), 87);
    const std::vector<incident_report> seq_reports = seq.take_reports();

    sharded_config scfg;
    scfg.shards = 4;
    scfg.max_ingest_batch = 1;
    // A long leash: the stall must outlive the thieves' scan-and-prepare
    // cycle, and the watchdog must recover (not write off) the shard.
    scfg.watchdog_deadline_ms = 500;
    scfg.worker_stall = [](std::size_t shard, std::uint64_t ordinal) {
        return shard == 1 && ordinal == 2;
    };
    sharded_engine par(w.deps(), scfg);
    drive(w, par, make, minutes(4), 87);
    const std::vector<incident_report> par_reports = par.take_reports();

    expect_identical_reports(seq_reports, par_reports);
    const engine_metrics m = par.metrics();
    EXPECT_GE(m.overload.stalls_detected, 1u);
    EXPECT_EQ(m.overload.shards_written_off, 0u);
    EXPECT_GE(m.steal.batches_stolen, 1u);
    EXPECT_GE(m.steal.alerts_stolen, m.steal.batches_stolen);
}

/// The 4-region flood cut down to its first region: region routing puts
/// every alert on one shard, so with two shards the other worker only
/// ever steals, and the owner keeps reaching batches a thief is still
/// preparing.
test_flood::tick_trace one_region_flood() {
    const test_flood::flood_world& w = test_flood::region4_world();
    const test_flood::tick_trace& all = test_flood::region4_flood();
    location region;
    for (const device& d : w.topo.devices()) {
        if (d.role == device_role::isr) {
            region = d.loc.ancestor_at(hierarchy_level::region);
            break;
        }
    }
    test_flood::tick_trace t;
    t.ticks = all.ticks;
    t.end = all.end;
    for (const std::vector<traced_alert>& batch : all.batches) {
        std::vector<traced_alert>& kept = t.batches.emplace_back();
        for (const traced_alert& a : batch) {
            if (region.contains(a.alert.loc)) kept.push_back(a);
        }
        t.total_alerts += kept.size();
    }
    return t;
}

template <typename Engine>
std::string replay_listing(Engine& eng, const test_flood::tick_trace& t) {
    test_flood::flood_world& w = test_flood::region4_world();
    network_state net(&w.topo, &w.customers);
    for (std::size_t i = 0; i < t.ticks.size(); ++i) {
        eng.ingest_batch(std::span<const traced_alert>(t.batches[i]));
        eng.tick(t.ticks[i], net);
    }
    eng.finish(t.end, net);
    return serve::render_report_listing(eng.take_reports());
}

TEST(StealHandoffTest, OwnerWaitsOnStolenBatchesAndKeepsParity) {
    // The owner parks on a stolen job's `stage` until the thief stores
    // the prepared result and notifies. A lost wakeup hangs this test
    // until the suite's ctest TIMEOUT; a torn handoff changes a byte of
    // the listing.
    const test_flood::tick_trace trace = one_region_flood();
    ASSERT_GT(trace.total_alerts, 1000u);
    skynet_config cfg;
    cfg.loc.deterministic_ids = true;
    skynet_engine seq(test_flood::region4_world().deps(), cfg);
    const std::string want = replay_listing(seq, trace);
    ASSERT_NE(want.find("Incident"), std::string::npos) << "the reference listing is empty";

    constexpr int kRounds = 12;
    std::vector<std::string> listings;
    std::uint64_t stolen = 0;
    std::uint64_t owner_waits = 0;
    for (int round = 0; round < kRounds; ++round) {
        sharded_config scfg;
        scfg.shards = 2;
        scfg.steal = true;
        scfg.engine = cfg;
        scfg.max_ingest_batch = 4;  // many short jobs: many handoffs
        sharded_engine eng(test_flood::region4_world().deps(), scfg);
        listings.push_back(replay_listing(eng, trace));
        const steal_metrics st = eng.metrics().steal;
        stolen += st.batches_stolen;
        owner_waits += st.owner_waits;
    }
    // Precondition: the handoff under test really ran.
    ASSERT_GE(stolen, 1u) << "no batch was stolen in " << kRounds << " rounds";
    ASSERT_GE(owner_waits, 1u) << "no owner waited on a thief in " << kRounds << " rounds";
    for (int round = 0; round < kRounds; ++round) {
        EXPECT_EQ(listings[static_cast<std::size_t>(round)], want) << "round " << round;
    }
}

TEST(ShardedEngineTest, RoutesRegionsAndCountsShards) {
    world w;
    sharded_config scfg;
    scfg.shards = 3;
    sharded_engine eng(w.deps(), scfg);
    EXPECT_EQ(eng.shard_count(), 3u);
    EXPECT_EQ(eng.region_count(), 0u);

    // One alert per region, plus one root-located alert that lands in
    // the "" unattributable bucket.
    std::set<std::string> regions;
    for (const device& d : w.topo.devices()) {
        const std::string region(d.loc.segments().front());
        if (!regions.insert(region).second) continue;
        raw_alert a;
        a.source = data_source::snmp;
        a.loc = d.loc;
        a.device = d.id;
        a.timestamp = seconds(10);
        eng.ingest(a, seconds(10));
    }
    ASSERT_GE(regions.size(), 2u);
    raw_alert global;
    global.source = data_source::traffic_stats;
    global.timestamp = seconds(10);
    eng.ingest(global, seconds(10));

    EXPECT_EQ(eng.region_count(), regions.size() + 1);
    (void)eng.take_reports();
}

TEST(ShardedEquivalenceTest, DuplicateNamesAcrossRegionsStayDistinct) {
    // Two regions whose inner segments are *identical* ("City X|LS 1|
    // Site I|Cluster 1" under both "Region A" and "Region B"). The
    // interner must key on full paths, not segments: the colliding
    // city/site names get distinct ids under each region, the shards
    // route them apart, and the merged output equals a sequential run
    // because reports compare by path, never by id (ids are
    // table-local, see location_table.h).
    topology topo;
    const location cl_a{"Region A", "City X", "LS 1", "Site I", "Cluster 1"};
    const location cl_b{"Region B", "City X", "LS 1", "Site I", "Cluster 1"};
    const device_id tor_a = topo.add_device("a-tor1", device_role::tor, cl_a.child("a-tor1"));
    const device_id tor_b = topo.add_device("b-tor1", device_role::tor, cl_b.child("b-tor1"));
    customer_registry customers;
    alert_type_registry registry = alert_type_registry::with_builtin_catalog();
    syslog_classifier syslog = syslog_classifier::train_from_catalog();
    const skynet_engine::deps deps{&topo, &customers, &registry, &syslog};

    const auto feed = [&](auto& eng) {
        network_state state(&topo, &customers);
        sim_time now = seconds(10);
        // Two distinct failure types per cluster: meets the default
        // 2/1+2/5 thresholds' pure-failure clause on both sides.
        for (const char* kind : {"int packet loss", "rate discrepancy"}) {
            for (const auto& [loc, dev] : {std::pair{cl_a, tor_a}, std::pair{cl_b, tor_b}}) {
                raw_alert a;
                a.source = data_source::inband_telemetry;
                a.timestamp = now;
                a.kind = kind;
                a.loc = loc;
                a.device = dev;
                eng.ingest(a, now);
            }
            now += seconds(5);
        }
        eng.tick(now, state);
        eng.finish(now + minutes(30), state);
        return eng.take_reports();
    };

    skynet_config cfg;
    cfg.loc.deterministic_ids = true;
    skynet_engine seq(deps, cfg);
    const std::vector<incident_report> seq_reports = feed(seq);

    sharded_config scfg;
    scfg.shards = 2;
    sharded_engine par(deps, scfg);
    const std::vector<incident_report> par_reports = feed(par);

    // One incident per region, rooted under the right region even
    // though every segment below the region level collides.
    ASSERT_EQ(seq_reports.size(), 2u);
    std::set<std::string> roots;
    for (const incident_report& r : seq_reports) roots.insert(r.inc.root.to_string());
    EXPECT_EQ(roots, (std::set<std::string>{cl_a.to_string(), cl_b.to_string()}));

    expect_identical_reports(seq_reports, par_reports);
    EXPECT_EQ(par.region_count(), 2u);
}

TEST(ShardedEngineTest, ZeroShardConfigClampsToOne) {
    world w(generator_params::tiny());
    sharded_config scfg;
    scfg.shards = 0;
    sharded_engine eng(w.deps(), scfg);
    EXPECT_EQ(eng.shard_count(), 1u);
}

TEST(BatchIngestTest, SpanMatchesIngestLoop) {
    // ingest_batch must be an exact shorthand for the ingest loop.
    world w;
    const location ls = w.first_logic_site();
    std::vector<traced_alert> trace;
    simulation_engine sim(&w.topo, &w.customers, engine_params{.tick = seconds(2), .seed = 7});
    sim.add_default_monitors(monitor_options{.noise_rate = 0.01});
    sim.inject(make_internet_entry_cut(w.topo, ls, 0.6), minutes(1), minutes(4));
    sim.run_until_batched(minutes(6), [&](std::span<const traced_alert> batch) {
        trace.insert(trace.end(), batch.begin(), batch.end());
    });

    skynet_config cfg;
    cfg.loc.deterministic_ids = true;
    skynet_engine looped(w.deps(), cfg);
    for (const traced_alert& t : trace) looped.ingest(t.alert, t.arrival);
    looped.finish(minutes(20), sim.state());

    skynet_engine batched(w.deps(), cfg);
    batched.ingest_batch(std::span<const traced_alert>(trace));
    batched.finish(minutes(20), sim.state());

    EXPECT_EQ(looped.preprocessing_stats(), batched.preprocessing_stats());
    EXPECT_EQ(looped.structured_alert_count(), batched.structured_alert_count());
    expect_identical_reports(looped.take_reports(), batched.take_reports());
}

TEST(BatchIngestTest, RawSpanUsesSharedArrivalTime) {
    world w(generator_params::tiny());
    std::vector<raw_alert> batch;
    raw_alert a;
    a.source = data_source::snmp;
    a.loc = w.topo.devices().front().loc;
    a.device = w.topo.devices().front().id;
    a.timestamp = seconds(30);
    batch.push_back(a);
    batch.push_back(a);

    skynet_engine eng(w.deps());
    eng.ingest_batch(std::span<const raw_alert>(batch), seconds(31));
    EXPECT_EQ(eng.metrics().alerts_in, 2u);
    EXPECT_EQ(eng.metrics().batches_in, 1u);
}

TEST(ConfigValidateTest, DefaultConfigIsValid) {
    EXPECT_FALSE(skynet_config{}.validate());
}

TEST(ConfigValidateTest, RejectsNegativeTimeout) {
    skynet_config cfg;
    cfg.loc.node_timeout = -seconds(1);
    const error e = cfg.validate();
    ASSERT_TRUE(e);
    EXPECT_NE(e.message().find("node_timeout"), std::string::npos);
}

TEST(ConfigValidateTest, RejectsAllZeroThresholds) {
    skynet_config cfg;
    cfg.loc.thresholds = incident_thresholds{
        .pure_failure = 0, .combo_failure = 0, .combo_other = 0, .any = 0};
    const error e = cfg.validate();
    ASSERT_TRUE(e);
    EXPECT_NE(e.message().find("thresholds"), std::string::npos);
}

TEST(ConfigValidateTest, RejectsInvertedRateBounds) {
    skynet_config cfg;
    cfg.eval.min_rate = 0.9;
    cfg.eval.max_rate = 0.1;
    EXPECT_TRUE(cfg.validate());
}

TEST(ConfigValidateTest, EngineConstructorThrowsOnInvalidConfig) {
    world w(generator_params::tiny());
    skynet_config cfg;
    cfg.pre.dedup_window = -minutes(1);
    EXPECT_THROW(skynet_engine(w.deps(), cfg), skynet_error);
}

TEST(ReportScopeTest, OpenThenFinishedViews) {
    world w;
    const location ls = w.first_logic_site();
    skynet_engine eng(w.deps());
    simulation_engine sim(&w.topo, &w.customers, engine_params{.tick = seconds(2), .seed = 55});
    sim.add_default_monitors();
    sim.inject(make_internet_entry_cut(w.topo, ls, 0.6), minutes(1), minutes(5));
    sim.run_until_batched(
        minutes(4), [&](std::span<const traced_alert> batch) { eng.ingest_batch(batch); },
        [&](sim_time now) { eng.tick(now, sim.state()); });

    // Mid-failure: the incident is still open.
    const auto open = eng.open_reports(sim.clock().now(), sim.state());
    ASSERT_FALSE(open.empty());
    EXPECT_TRUE(std::is_sorted(open.begin(), open.end(), [](const auto& x, const auto& y) {
        return report_before(x, y);
    }));

    eng.finish(sim.clock().now(), sim.state());
    const auto finished = eng.take_reports();
    EXPECT_GE(finished.size(), open.size());
    // finished drains: a second call returns nothing.
    EXPECT_TRUE(eng.take_reports().empty());
    EXPECT_TRUE(eng.open_reports(sim.clock().now(), sim.state()).empty());
}

TEST(EngineMetricsTest, SequentialCountersAccumulate) {
    world w;
    const location ls = w.first_logic_site();
    skynet_engine eng(w.deps());
    drive(
        w, eng, [&] { return make_internet_entry_cut(w.topo, ls, 0.6); }, minutes(4), 21);
    const engine_metrics& m = eng.metrics();
    EXPECT_GT(m.alerts_in, 0u);
    EXPECT_GT(m.batches_in, 0u);
    EXPECT_GT(m.ticks, 0u);
    EXPECT_GT(m.preprocess.calls, 0u);
    EXPECT_GT(m.locate.calls, 0u);
    EXPECT_GT(m.evaluate.calls, 0u);
    EXPECT_GT(m.preprocess.latency.count(), 0u);
    EXPECT_GE(m.preprocess.latency.max_ns(), 1u);
    EXPECT_GT(m.reports_emitted, 0u);
    const std::string rendered = m.render();
    EXPECT_NE(rendered.find("preprocess"), std::string::npos);
    EXPECT_NE(rendered.find("p99"), std::string::npos);
}

TEST(EngineMetricsTest, ShardedAggregatesAcrossShards) {
    world w;
    const location ls = w.first_logic_site();
    sharded_config scfg;
    scfg.shards = 2;
    sharded_engine eng(w.deps(), scfg);
    drive(
        w, eng, [&] { return make_internet_entry_cut(w.topo, ls, 0.6); }, minutes(4), 22);

    engine_metrics total = eng.metrics();
    EXPECT_GT(total.alerts_in, 0u);
    EXPECT_GT(total.busy_ns, 0u);
    // Engine-level ticks, not per-shard fan-outs.
    EXPECT_GT(total.ticks, 0u);
    EXPECT_LT(total.ticks, total.preprocess.calls + total.locate.calls + 100000u);

    engine_metrics sum;
    for (std::size_t i = 0; i < eng.shard_count(); ++i) {
        const engine_metrics m = eng.shard_metrics(i);
        sum.alerts_in += m.alerts_in;
    }
    EXPECT_EQ(sum.alerts_in, total.alerts_in);
}

TEST(WorkerFailureTest, FailureSurfacesAtBarrierWithoutHanging) {
    // A shard whose engine throws mid-command must not hang a barrier or
    // std::terminate the process: the failure surfaces as a skynet_error
    // from the next tick(), naming the shard.
    world w;
    std::atomic<bool> arm{false};
    sharded_config scfg;
    scfg.shards = 2;
    scfg.worker_fault = [&](std::size_t shard) {
        if (arm.load() && shard == 1) throw std::runtime_error("injected shard fault");
    };
    sharded_engine eng(w.deps(), scfg);

    // Route one alert per shard so both workers have live regions.
    sim_time now = seconds(10);
    std::size_t fed = 0;
    for (const device& d : w.topo.devices()) {
        raw_alert a;
        a.source = data_source::snmp;
        a.loc = d.loc;
        a.device = d.id;
        a.timestamp = now;
        eng.ingest(a, now);
        if (++fed >= 8) break;
    }
    network_state state(&w.topo, &w.customers);
    eng.tick(now, state);  // healthy barrier
    EXPECT_EQ(eng.failed_shard_count(), 0u);

    arm.store(true);
    raw_alert poison;
    poison.source = data_source::snmp;
    poison.loc = w.topo.devices().front().loc;
    poison.device = w.topo.devices().front().id;
    poison.timestamp = now + seconds(2);
    eng.ingest(poison, now + seconds(2));

    try {
        eng.tick(now + seconds(2), state);
        FAIL() << "tick did not surface the worker failure";
    } catch (const skynet_error& e) {
        EXPECT_NE(std::string(e.what()).find("shard"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("injected shard fault"), std::string::npos);
    }
    EXPECT_EQ(eng.failed_shard_count(), 1u);
    const std::vector<std::string> msgs = eng.failed_shard_messages();
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_NE(msgs[0].find("injected shard fault"), std::string::npos);
}

TEST(WorkerFailureTest, DeadShardDrainsAndCountsDroppedAlerts) {
    // After the failure, further work routed to the dead shard is
    // drained unexecuted and counted; healthy shards keep going and the
    // destructor joins cleanly.
    world w;
    sharded_config scfg;
    scfg.shards = 2;
    scfg.worker_fault = [](std::size_t shard) {
        if (shard == 0) throw std::runtime_error("dead on arrival");
    };
    sharded_engine eng(w.deps(), scfg);

    network_state state(&w.topo, &w.customers);
    sim_time now = seconds(10);
    for (int round = 0; round < 3; ++round) {
        for (const device& d : w.topo.devices()) {
            raw_alert a;
            a.source = data_source::snmp;
            a.loc = d.loc;
            a.device = d.id;
            a.timestamp = now;
            eng.ingest(a, now);
        }
        EXPECT_THROW(eng.tick(now, state), skynet_error);
        now += seconds(2);
    }
    EXPECT_EQ(eng.failed_shard_count(), 1u);
    // Dropped-ingest accounting lands in the degraded metrics block.
    engine_metrics m = eng.metrics();
    EXPECT_GT(m.degraded.alerts_dropped_failed_shard, 0u);
    EXPECT_TRUE(m.degraded.any());
    EXPECT_NE(m.render().find("failed shard"), std::string::npos);
    // finish() surfaces the same failure but still terminates cleanly;
    // the healthy shard's data stays reachable afterwards.
    EXPECT_THROW(eng.finish(now, state), skynet_error);
    (void)eng.take_reports();
}

TEST(LatencyHistogramTest, RecordsAndMerges) {
    latency_histogram h;
    h.record(1'000);
    h.record(2'000);
    h.record(1'000'000);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.max_ns(), 1'000'000u);
    EXPECT_GT(h.mean_us(), 0.0);
    EXPECT_GE(h.percentile_us(99.0), h.percentile_us(50.0));

    latency_histogram other;
    other.record(4'000);
    h += other;
    EXPECT_EQ(h.count(), 4u);
}

}  // namespace
}  // namespace skynet
