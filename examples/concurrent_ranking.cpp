// §5.1 "scene ranking": two failures at once. One is geographically
// bigger and noisier; the other hurts critical customers. The evaluator
// ranks the critical-customer incident first — the call the operator got
// wrong in the paper's pre-SkyNet war story.
#include <cstdio>

#include "skynet/core/pipeline.h"
#include "skynet/core/sharded_engine.h"
#include "skynet/sim/engine.h"
#include "skynet/topology/generator.h"

using namespace skynet;

namespace {

/// A flap storm across a whole site — very loud (syslog/SNMP alerts from
/// every device) but service keeps flowing.
class flap_storm final : public scenario {
public:
    flap_storm(const topology& t, location site) : loc_(std::move(site)) {
        for (const skynet::link& l : t.links()) {
            if (loc_.contains(t.device_at(l.a).loc) || loc_.contains(t.device_at(l.b).loc)) {
                links_.push_back(l.id);
            }
        }
        victims_ = t.devices_under(loc_);
    }
    std::string name() const override { return "noisy-flap-storm"; }
    root_cause cause() const override { return root_cause::device_software; }
    location scope() const override { return loc_; }
    bool severe() const override { return true; }
    void on_start(network_state& s, rng&, sim_time) override {
        for (link_id lid : links_) s.link_state(lid).flapping = true;
        for (device_id v : victims_) s.device_state(v).cpu = 0.93;
    }
    void on_end(network_state& s, rng&, sim_time) override {
        for (link_id lid : links_) s.link_state(lid).flapping = false;
        for (device_id v : victims_) s.device_state(v).cpu = 0.3;
    }

private:
    location loc_;
    std::vector<link_id> links_;
    std::vector<device_id> victims_;
};

/// Corrupts a cluster's aggregation circuits directly — smaller, but it
/// bleeds the critical customers' packets.
class corrupt_b final : public scenario {
public:
    corrupt_b(const topology& t, location cl) : loc_(std::move(cl)) {
        for (const circuit_set& cs : t.circuit_sets()) {
            if (loc_.contains(t.device_at(cs.a).loc) || loc_.contains(t.device_at(cs.b).loc)) {
                for (link_id lid : cs.circuits) circuits_.push_back(lid);
            }
        }
    }
    std::string name() const override { return "critical-corruption"; }
    root_cause cause() const override { return root_cause::link_error; }
    location scope() const override { return loc_; }
    bool severe() const override { return true; }
    void on_start(network_state& s, rng&, sim_time) override {
        for (link_id lid : circuits_) s.link_state(lid).corruption_loss = 0.3;
    }
    void on_end(network_state& s, rng&, sim_time) override {
        for (link_id lid : circuits_) s.link_state(lid) = link_health{};
    }

private:
    location loc_;
    std::vector<link_id> circuits_;
};

}  // namespace

int main() {
    std::printf("=== Concurrent failures and incident ranking (paper 5.1) ===\n\n");

    const topology topo = generate_topology(generator_params::small());
    const alert_type_registry registry = alert_type_registry::with_builtin_catalog();
    const syslog_classifier syslog = syslog_classifier::train_from_catalog();

    // Hand-build the customer base to make the contrast sharp: cluster A
    // hosts a horde of standard customers; cluster B hosts the critical
    // ones with SLA flows.
    customer_registry customers;
    std::vector<location> clusters = topo.clusters_under(location{});
    const location cluster_a = clusters.at(0);
    const location cluster_b = clusters.at(clusters.size() / 2);

    auto attach_cluster = [&](const location& cluster, customer_tier tier, int n) {
        for (const circuit_set& cs : topo.circuit_sets()) {
            const bool touches = cluster.contains(topo.device_at(cs.a).loc) ||
                                 cluster.contains(topo.device_at(cs.b).loc);
            if (!touches) continue;
            for (int i = 0; i < n; ++i) {
                const customer_id c = customers.add_customer(
                    std::string(to_string(tier)) + "-" + cluster.to_string() + "-" +
                        std::to_string(cs.id) + "-" + std::to_string(i),
                    tier);
                customers.attach(c, cs.id);
                if (tier != customer_tier::standard) {
                    (void)customers.add_sla_flow(c, cs.id, 2.0);
                }
            }
        }
    };
    attach_cluster(cluster_a, customer_tier::standard, 2);
    attach_cluster(cluster_b, customer_tier::critical, 3);

    std::printf("big noisy failure at:   %s (standard customers)\n", cluster_a.to_string().c_str());
    std::printf("critical failure at:    %s (critical customers + SLAs)\n\n",
                cluster_b.to_string().c_str());

    simulation_engine sim(&topo, &customers, engine_params{.tick = seconds(2), .seed = 4});
    sim.add_default_monitors();

    // Failure 1: a flap storm across cluster A's whole site — very loud
    // (syslog/SNMP alerts from every device) but service keeps flowing.
    // Failure 2: cluster B's uplinks corrupt — smaller, but it bleeds the
    // critical customers' packets.
    sim.inject(std::make_unique<flap_storm>(topo, cluster_a.parent()), minutes(1), minutes(6));
    sim.inject(std::make_unique<corrupt_b>(topo, cluster_b), minutes(1), minutes(6));

    // Uncap the display score so the ranking discriminates between two
    // heavy incidents instead of saturating both at 100. Deterministic
    // incident ids make the sequential and sharded rankings comparable.
    skynet_config cfg;
    cfg.eval.score_cap = 1e12;
    cfg.loc.deterministic_ids = true;
    skynet_engine skynet({&topo, &customers, &registry, &syslog}, cfg);
    std::vector<incident_report> ranked;
    sim.run_until_batched(
        minutes(6),
        [&](std::span<const traced_alert> batch) { skynet.ingest_batch(batch); },
        [&](sim_time now) {
            skynet.tick(now, sim.state());
            if (now == minutes(5)) ranked = skynet.open_reports(now, sim.state());
        });

    std::printf("live incident ranking at t+5min (most urgent first):\n");
    for (const incident_report& r : ranked) {
        const bool critical = r.inc.root.contains(cluster_b) || cluster_b.contains(r.inc.root);
        std::printf("  score %6.1f  %s%s\n", r.severity.score, r.inc.root.to_string().c_str(),
                    critical ? "   <- critical customers" : "");
    }
    if (!ranked.empty()) {
        const bool top_is_critical = ranked.front().inc.root.contains(cluster_b) ||
                                     cluster_b.contains(ranked.front().inc.root);
        std::printf("\n%s\n", top_is_critical
                                  ? "The critical-customer incident outranks the bigger, "
                                    "noisier one — operators fix the right thing first."
                                  : "Ranking did not favour the critical incident in this run.");
    }

    // Same episode through the region-sharded engine (the simulation is
    // deterministic, so the replay is identical): the merged live view
    // must rank the incidents in exactly the same order.
    simulation_engine sim2(&topo, &customers, engine_params{.tick = seconds(2), .seed = 4});
    sim2.add_default_monitors();
    sim2.inject(std::make_unique<flap_storm>(topo, cluster_a.parent()), minutes(1), minutes(6));
    sim2.inject(std::make_unique<corrupt_b>(topo, cluster_b), minutes(1), minutes(6));

    sharded_config scfg;
    scfg.shards = 4;
    scfg.engine = cfg;
    sharded_engine sharded({&topo, &customers, &registry, &syslog}, scfg);
    std::vector<incident_report> sharded_ranked;
    sim2.run_until_batched(
        minutes(6),
        [&](std::span<const traced_alert> batch) { sharded.ingest_batch(batch); },
        [&](sim_time now) {
            sharded.tick(now, sim2.state());
            if (now == minutes(5)) sharded_ranked = sharded.open_reports(now, sim2.state());
        });

    bool same = sharded_ranked.size() == ranked.size();
    for (std::size_t i = 0; same && i < ranked.size(); ++i) {
        same = sharded_ranked[i].inc.id == ranked[i].inc.id &&
               sharded_ranked[i].severity.score == ranked[i].severity.score;
    }
    std::printf("\nregion-sharded engine (4 shards) live ranking: %s\n",
                same ? "identical to the sequential engine" : "DIFFERS (unexpected)");
    return 0;
}
