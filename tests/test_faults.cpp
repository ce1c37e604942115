// Fault-injection tests: the DSL parser, scripted and random dropout,
// same-seed determinism, and the headline property — for any fault
// seed, a faulted replay never crashes, never emits an incident with an
// inverted time window, and the sequential and region-sharded engines
// still produce bit-identical ranked reports, because the injector
// degrades the single ordered stream *before* ingest and shard ingest
// is lossless (a full queue blocks the producer, even a 2-slot one).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <span>

#include "skynet/core/pipeline.h"
#include "skynet/overload/controller.h"
#include "skynet/core/sharded_engine.h"
#include "skynet/sim/engine.h"
#include "skynet/sim/faults.h"
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
};

using scenario_factory = std::function<std::unique_ptr<scenario>()>;

/// Replays one deterministic simulated episode through `eng`, degrading
/// the stream through a fresh fault_injector built from `spec`. Because
/// the injector is seeded and consumes its rng in stream order, two
/// calls with the same (spec, scenario, seed) feed two engines the
/// *identical* faulted stream.
template <typename Engine>
fault_stats drive_faulted(world& w, Engine& eng, const fault_spec& spec,
                          const scenario_factory& make, sim_duration duration,
                          std::uint64_t seed) {
    fault_injector faults(spec);
    simulation_engine sim(&w.topo, &w.customers, engine_params{.tick = seconds(2), .seed = seed});
    sim.add_default_monitors(monitor_options{.noise_rate = 0.01});
    sim.inject(make(), minutes(1), duration);
    sim.run_until_batched(
        minutes(1) + duration + minutes(1),
        [&](std::span<const traced_alert> batch) {
            const std::vector<traced_alert> degraded = faults.apply(batch);
            eng.ingest_batch(std::span<const traced_alert>(degraded));
        },
        [&](sim_time now) {
            const std::vector<traced_alert> due = faults.release(now);
            if (!due.empty()) eng.ingest_batch(std::span<const traced_alert>(due));
            eng.tick(now, sim.state());
        });
    const std::vector<traced_alert> held = faults.drain();
    if (!held.empty()) eng.ingest_batch(std::span<const traced_alert>(held));
    eng.finish(sim.clock().now(), sim.state());
    return faults.stats();
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
        EXPECT_EQ(seq[i].render(), sharded[i].render());
    }
}

void expect_no_inverted_windows(const std::vector<incident_report>& reports) {
    for (const incident_report& r : reports) {
        EXPECT_LE(r.inc.when.begin, r.inc.when.end)
            << "inverted incident window in " << r.inc.root.to_string();
    }
}

// ---------------------------------------------------------------- DSL

TEST(FaultSpecParseTest, FullSpecRoundTrips) {
    const fault_parse_result r = parse_fault_spec(
        "seed=3;dropout=0.2;drop:ping@60s+120s;dup=0.05;reorder=0.1;"
        "reorder_max=10s;skew=5s;skew_rate=0.3;corrupt=0.02");
    ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors.front().message);
    EXPECT_EQ(r.spec.seed, 3u);
    EXPECT_DOUBLE_EQ(r.spec.dropout_rate, 0.2);
    EXPECT_DOUBLE_EQ(r.spec.duplicate_rate, 0.05);
    EXPECT_DOUBLE_EQ(r.spec.reorder_rate, 0.1);
    EXPECT_EQ(r.spec.reorder_max_delay, seconds(10));
    EXPECT_EQ(r.spec.max_skew, seconds(5));
    EXPECT_DOUBLE_EQ(r.spec.skew_rate, 0.3);
    EXPECT_DOUBLE_EQ(r.spec.corrupt_rate, 0.02);
    ASSERT_EQ(r.spec.dropouts.size(), 1u);
    EXPECT_EQ(r.spec.dropouts[0].source, data_source::ping);
    EXPECT_EQ(r.spec.dropouts[0].from, seconds(60));
    EXPECT_EQ(r.spec.dropouts[0].duration, seconds(120));
    EXPECT_TRUE(r.spec.any());
}

TEST(FaultSpecParseTest, CommaSeparatorAndDurationSuffixes) {
    const fault_parse_result r = parse_fault_spec("skew=1500ms, reorder_max=2m, dup=0.5");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.spec.max_skew, 1500);
    EXPECT_EQ(r.spec.reorder_max_delay, minutes(2));
    EXPECT_DOUBLE_EQ(r.spec.duplicate_rate, 0.5);
}

TEST(FaultSpecParseTest, CollectsEveryBadClause) {
    const fault_parse_result r =
        parse_fault_spec("dropout=1.5;bogus=1;drop:nosuch@0s+1s;dup=0.1;pressure=0.5");
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.errors.size(), 4u);
    // Shard queues never shed, so there is no forced-full clause.
    EXPECT_EQ(r.errors[3].clause, "pressure=0.5");
    EXPECT_EQ(r.errors[3].message, "unknown fault clause");
    // Valid clauses still land so the caller can report-and-refuse.
    EXPECT_DOUBLE_EQ(r.spec.duplicate_rate, 0.1);
}

TEST(FaultSpecParseTest, EmptySpecIsValidAndInert) {
    const fault_parse_result r = parse_fault_spec("");
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.spec.any());
}

TEST(FaultSpecTest, ValidateRejectsOutOfRangeRate) {
    fault_spec spec;
    spec.dropout_rate = 1.5;
    EXPECT_TRUE(spec.validate());
    EXPECT_THROW(fault_injector{spec}, skynet_error);
}

// ----------------------------------------------------------- injector

traced_alert probe(data_source source, sim_time at) {
    traced_alert t;
    t.alert.source = source;
    t.alert.kind = "packet loss";
    t.alert.timestamp = at;
    t.arrival = at;
    return t;
}

TEST(FaultInjectorTest, ScriptedDropoutWindowIsExact) {
    fault_spec spec;
    spec.dropouts.push_back(dropout_window{
        .source = data_source::ping, .from = seconds(60), .duration = seconds(120)});
    fault_injector faults(spec);

    std::vector<traced_alert> out;
    faults.feed(probe(data_source::ping, seconds(59)), out);    // before: passes
    faults.feed(probe(data_source::ping, seconds(60)), out);    // first dark instant
    faults.feed(probe(data_source::ping, seconds(179)), out);   // last dark instant
    faults.feed(probe(data_source::snmp, seconds(100)), out);   // other source: passes
    faults.feed(probe(data_source::ping, seconds(180)), out);   // window closed
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].arrival, seconds(59));
    EXPECT_EQ(out[1].alert.source, data_source::snmp);
    EXPECT_EQ(out[2].arrival, seconds(180));
    EXPECT_EQ(faults.stats().dropped_dropout, 2u);
    EXPECT_EQ(faults.stats().sources_in_dropout, 1u);
}

TEST(FaultInjectorTest, RandomDropoutIsOrderIndependent) {
    // The per-(source, window) coin is a stateless hash, so consuming
    // extra rng draws (here: the skew path on other alerts) must not
    // change which windows are dark.
    fault_spec spec;
    spec.seed = 11;
    spec.dropout_rate = 0.5;
    const auto dark_windows = [&](bool with_skew) {
        fault_spec s = spec;
        if (with_skew) {
            s.skew_rate = 1.0;
            s.max_skew = seconds(1);
        }
        fault_injector faults(s);
        std::vector<bool> dark;
        for (int w = 0; w < 32; ++w) {
            std::vector<traced_alert> out;
            faults.feed(probe(data_source::snmp, minutes(w)), out);
            dark.push_back(out.empty());
        }
        return dark;
    };
    EXPECT_EQ(dark_windows(false), dark_windows(true));
}

TEST(FaultInjectorTest, SameSeedSameStream) {
    fault_spec spec;
    spec.seed = 5;
    spec.duplicate_rate = 0.3;
    spec.reorder_rate = 0.3;
    spec.reorder_max_delay = seconds(4);
    spec.skew_rate = 0.5;
    spec.max_skew = seconds(2);
    spec.corrupt_rate = 0.2;

    const auto run = [&] {
        fault_injector faults(spec);
        std::vector<traced_alert> out;
        for (int i = 0; i < 200; ++i) {
            faults.feed(probe(data_source::snmp, seconds(i)), out);
        }
        for (const traced_alert& t : faults.drain()) out.push_back(t);
        return out;
    };
    const std::vector<traced_alert> a = run();
    const std::vector<traced_alert> b = run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].alert.timestamp, b[i].alert.timestamp);
        EXPECT_EQ(a[i].alert.kind, b[i].alert.kind);
    }
}

TEST(FaultInjectorTest, ReorderHoldsThenReleasesEverything) {
    // Every alert is held for 1..30s; feed() re-emits held alerts whose
    // delay elapsed before the current delivery, release() flushes the
    // rest. Nothing is lost and the combined output stays monotone.
    fault_spec spec;
    spec.reorder_rate = 1.0;
    spec.reorder_max_delay = seconds(30);
    fault_injector faults(spec);

    std::vector<traced_alert> out;
    for (int i = 0; i < 10; ++i) faults.feed(probe(data_source::snmp, seconds(i)), out);
    EXPECT_EQ(faults.stats().reordered, 10u);
    EXPECT_LT(out.size(), 10u);  // at least the last alert is still held

    for (const traced_alert& t : faults.release(minutes(5))) out.push_back(t);
    EXPECT_EQ(out.size(), 10u);
    // Re-delivered in due order: arrivals must be monotone.
    for (std::size_t i = 1; i < out.size(); ++i) {
        EXPECT_LE(out[i - 1].arrival, out[i].arrival);
    }
    EXPECT_TRUE(faults.drain().empty());
}

// ----------------------------------------------------- e2e properties

/// Headline property: the faulted stream reaches both engines
/// identically and shard ingest sheds nothing, so sequential and
/// 4-shard runs must agree bit-for-bit — for every fault seed. The last
/// row puts the shards behind 2-slot queues with one alert per command,
/// so the producer keeps finding a full queue and blocks: lossless
/// backpressure must not change a byte either.
TEST(FaultedParityTest, SequentialMatchesShardedForThreeSeeds) {
    world w;
    fault_spec spec;
    spec.dropout_rate = 0.2;
    spec.duplicate_rate = 0.05;
    spec.reorder_rate = 0.1;
    spec.reorder_max_delay = seconds(10);
    spec.skew_rate = 0.3;
    spec.max_skew = seconds(5);
    spec.corrupt_rate = 0.02;

    struct row {
        std::uint64_t fault_seed;
        std::size_t queue_capacity;
        std::size_t max_ingest_batch;
    };
    const sharded_config roomy;
    const std::size_t cap = roomy.queue_capacity;
    const std::size_t batch = roomy.max_ingest_batch;
    for (const row& r : {row{3, cap, batch}, row{17, cap, batch}, row{4242, cap, batch},
                         row{3, 2, 1}}) {
        SCOPED_TRACE("fault seed " + std::to_string(r.fault_seed) + ", queue capacity " +
                     std::to_string(r.queue_capacity));
        spec.seed = r.fault_seed;
        const scenario_factory make = [&] {
            rng srand(82);
            return make_security_ddos(w.topo, srand, 3);
        };

        skynet_config cfg;
        cfg.loc.deterministic_ids = true;
        skynet_engine seq(w.deps(), cfg);
        const fault_stats seq_faults = drive_faulted(w, seq, spec, make, minutes(5), 83);
        const std::vector<incident_report> seq_reports = seq.take_reports();

        sharded_config scfg;
        scfg.shards = 4;
        scfg.queue_capacity = r.queue_capacity;
        scfg.max_ingest_batch = r.max_ingest_batch;
        sharded_engine par(w.deps(), scfg);
        const fault_stats par_faults = drive_faulted(w, par, spec, make, minutes(5), 83);
        const std::vector<incident_report> par_reports = par.take_reports();

        // Preconditions: there is something to compare, and the 2-slot
        // row's producer really did block on a full queue.
        ASSERT_FALSE(seq_reports.empty());
        if (r.queue_capacity == 2) {
            ASSERT_GT(par.metrics().enqueue_full_waits, 0u);
        }

        // The two injectors saw the same stream and made the same calls.
        EXPECT_EQ(seq_faults.alerts_in, par_faults.alerts_in);
        EXPECT_EQ(seq_faults.dropped_dropout, par_faults.dropped_dropout);
        EXPECT_EQ(seq_faults.corrupted, par_faults.corrupted);

        expect_no_inverted_windows(seq_reports);
        expect_no_inverted_windows(par_reports);
        expect_identical_reports(seq_reports, par_reports);
        EXPECT_EQ(seq.preprocessing_stats(), par.preprocessing_stats());
        // Corruption exercised the reject path on both engines equally.
        EXPECT_EQ(seq.metrics().degraded.alerts_rejected,
                  par.metrics().degraded.alerts_rejected);
    }
}

TEST(FaultedParityTest, HeavyCorruptionNeverCrashesOrInvertsWindows) {
    world w(generator_params::tiny());
    fault_spec spec;
    spec.seed = 99;
    spec.corrupt_rate = 0.5;
    spec.skew_rate = 1.0;
    spec.max_skew = minutes(2);
    spec.reorder_rate = 0.3;

    skynet_config cfg;
    cfg.loc.deterministic_ids = true;
    skynet_engine eng(w.deps(), cfg);
    const scenario_factory make = [&] {
        rng srand(7);
        return make_security_ddos(w.topo, srand, 1);
    };
    const fault_stats fs = drive_faulted(w, eng, spec, make, minutes(4), 31);
    EXPECT_GT(fs.corrupted, 0u);
    expect_no_inverted_windows(eng.take_reports());
    EXPECT_GT(eng.metrics().degraded.alerts_rejected, 0u);
}

/// Exception-safety at every stage boundary: malformed alerts that slip
/// past an admission guard (closed breakers deliberately pass them — the
/// engine owns rejection) must be rejected with a counted reason by both
/// engine shapes, never abort, and never skew the parity invariant.
TEST(MalformedAlertTest, GarbageIsRejectedWithReasonNeverAborts) {
    world w;
    overload::controller_config ccfg;
    ccfg.admission.max_alerts = 100;  // generous: nothing shed, all garbage reaches the engine
    ccfg.breaker.enabled = true;      // default min_samples: stays closed for one batch

    const location good_loc = w.topo.device_at(0).loc;
    const auto base = [&](data_source src, std::string kind) {
        raw_alert a;
        a.source = src;
        a.kind = std::move(kind);
        a.timestamp = seconds(1);
        a.loc = good_loc;
        a.device = static_cast<device_id>(0);
        return a;
    };
    std::vector<raw_alert> batch;
    batch.push_back(base(data_source::snmp, "no such kind"));  // unknown type id
    raw_alert dangling_loc = base(data_source::snmp, "link down");
    dangling_loc.loc_id = static_cast<location_id>(1u << 30);  // garbled interned id
    batch.push_back(dangling_loc);
    raw_alert dangling_dev = base(data_source::snmp, "link down");
    dangling_dev.device = static_cast<device_id>(999999);
    batch.push_back(dangling_dev);
    raw_alert nan_metric = base(data_source::ping, "packet loss");
    nan_metric.metric = std::nan("");
    batch.push_back(nan_metric);
    raw_alert pre_epoch = base(data_source::ping, "packet loss");
    pre_epoch.timestamp = -5;
    batch.push_back(pre_epoch);
    batch.push_back(base(data_source::snmp, "link down"));  // control: one clean alert

    const auto run = [&](auto& eng) {
        overload::controller guard(ccfg, &w.topo, &w.registry);
        network_state idle(&w.topo, &w.customers);
        const std::vector<raw_alert> admitted = guard.admit(batch, seconds(1));
        EXPECT_EQ(admitted.size(), batch.size()) << "closed breakers must pass everything";
        eng.ingest_batch(std::span<const raw_alert>(admitted), seconds(1));
        eng.tick(seconds(2), idle);
        guard.on_tick(seconds(2));
        eng.finish(seconds(4), idle);
    };

    skynet_config cfg;
    cfg.loc.deterministic_ids = true;
    skynet_engine seq(w.deps(), cfg);
    run(seq);

    sharded_config scfg;
    scfg.shards = 4;
    sharded_engine par(w.deps(), scfg);
    run(par);

    // 4 structurally malformed + 1 unclassifiable, counted identically.
    EXPECT_EQ(seq.metrics().degraded.alerts_rejected, 4u);
    EXPECT_EQ(par.metrics().degraded.alerts_rejected, 4u);
    EXPECT_EQ(seq.preprocessing_stats().dropped_unclassified, 1);
    EXPECT_EQ(seq.preprocessing_stats(), par.preprocessing_stats());
    expect_identical_reports(seq.take_reports(), par.take_reports());
}

TEST(DegradedMetricsTest, RenderOmitsBlockWhenClean) {
    engine_metrics m;
    EXPECT_EQ(m.render().find("degraded"), std::string::npos);
    m.degraded.alerts_rejected = 3;
    EXPECT_NE(m.render().find("degraded"), std::string::npos);
}

}  // namespace
}  // namespace skynet
