// A small recorded 4-region flood, shaped like bench_micro_pipeline's
// multi_region_flood: internet-entry cuts at every ISR logic site plus a
// handful of infrastructure, DDoS and hardware failures, all inside the
// same four minutes and spread over all four regions. Recorded once per
// process (the simulation is deterministic), then replayed identically
// through any engine, so sequential and sharded runs see the same
// (alert, arrival) sequence and the same tick cadence.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "skynet/core/pipeline.h"
#include "skynet/sim/engine.h"
#include "skynet/topology/generator.h"

namespace skynet::test_flood {

struct flood_world {
    topology topo;
    customer_registry customers;
    alert_type_registry registry = alert_type_registry::with_builtin_catalog();
    syslog_classifier syslog = syslog_classifier::train_from_catalog();

    flood_world() {
        generator_params p = generator_params::small();
        p.regions = 4;
        p.legacy_snmp_fraction = 0.0;
        topo = generate_topology(p);
        rng crand(47);
        customers = customer_registry::generate(topo, 200, crand);
    }

    [[nodiscard]] skynet_engine::deps deps() { return {&topo, &customers, &registry, &syslog}; }
};

struct tick_trace {
    std::vector<std::vector<traced_alert>> batches;  // one per tick, arrival order
    std::vector<sim_time> ticks;
    sim_time end{0};
    std::size_t total_alerts{0};
};

inline flood_world& region4_world() {
    static flood_world w;
    return w;
}

inline const tick_trace& region4_flood() {
    static const tick_trace trace = [] {
        flood_world& w = region4_world();
        simulation_engine sim(&w.topo, &w.customers, engine_params{.tick = seconds(2), .seed = 9});
        sim.add_default_monitors(monitor_options{.noise_rate = 0.25});
        std::map<std::string, location> sites;  // every ISR logic site, all regions
        for (const device& d : w.topo.devices()) {
            if (d.role != device_role::isr) continue;
            const location ls = d.loc.ancestor_at(hierarchy_level::logic_site);
            sites.emplace(ls.to_string(), ls);
        }
        for (const auto& [key, ls] : sites) {
            sim.inject(make_internet_entry_cut(w.topo, ls, 0.6), minutes(1), minutes(3));
        }
        rng srand(11);
        for (int i = 0; i < 3; ++i) {
            sim.inject(make_infrastructure_failure(w.topo, srand, true), minutes(1), minutes(3));
            sim.inject(make_security_ddos(w.topo, srand, 3), minutes(1), minutes(3));
            sim.inject(make_device_hardware_failure(w.topo, srand, true), minutes(1), minutes(3));
        }
        tick_trace t;
        std::vector<traced_alert> current;
        sim.run_until_batched(
            minutes(5),
            [&](std::span<const traced_alert> batch) {
                current.insert(current.end(), batch.begin(), batch.end());
            },
            [&](sim_time now) {
                t.total_alerts += current.size();
                t.batches.push_back(std::move(current));
                current.clear();
                t.ticks.push_back(now);
            });
        t.end = sim.clock().now();
        return t;
    }();
    return trace;
}

/// Replays the flood through `eng` on an idle network and returns the
/// globally ranked closed reports.
template <typename Engine>
std::vector<incident_report> replay(Engine& eng) {
    flood_world& w = region4_world();
    const tick_trace& t = region4_flood();
    network_state net(&w.topo, &w.customers);
    for (std::size_t i = 0; i < t.ticks.size(); ++i) {
        eng.ingest_batch(std::span<const traced_alert>(t.batches[i]));
        eng.tick(t.ticks[i], net);
    }
    eng.finish(t.end, net);
    return eng.take_reports();
}

}  // namespace skynet::test_flood
