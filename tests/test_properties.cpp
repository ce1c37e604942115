// Cross-module property tests: algebraic laws that must hold for any
// input, checked over randomized samples (seed-parameterized).
#include <gtest/gtest.h>

#include "skynet/core/evaluator.h"
#include "skynet/core/preprocessor.h"
#include "skynet/topology/generator.h"

namespace skynet {
namespace {

class Properties : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, Properties, ::testing::Values(1u, 7u, 42u, 1337u));

location random_location(rng& rand) {
    std::vector<std::string> segments;
    const int depth = static_cast<int>(rand.uniform_int(0, 6));
    for (int i = 0; i < depth; ++i) {
        segments.push_back("s" + std::to_string(rand.uniform_int(0, 3)));
    }
    return location(std::move(segments));
}

TEST_P(Properties, LocationLaws) {
    rng rand(GetParam());
    for (int i = 0; i < 500; ++i) {
        const location a = random_location(rand);
        const location b = random_location(rand);

        // Reflexivity and parent containment.
        EXPECT_TRUE(a.contains(a));
        EXPECT_TRUE(a.parent().contains(a));
        EXPECT_FALSE(a.is_ancestor_of(a));

        // common_ancestor: symmetric, contains both operands.
        const location c = location::common_ancestor(a, b);
        EXPECT_EQ(c, location::common_ancestor(b, a));
        EXPECT_TRUE(c.contains(a));
        EXPECT_TRUE(c.contains(b));

        // ancestor_at is idempotent and level-consistent.
        const location site = a.ancestor_at(hierarchy_level::site);
        EXPECT_EQ(site.ancestor_at(hierarchy_level::site), site);
        EXPECT_LE(site.depth(), depth_of(hierarchy_level::site));

        // Round trip through text.
        if (!a.is_root()) {
            EXPECT_EQ(location::parse(a.to_string()), a);
        }

        // Hash consistency with equality.
        if (a == b) {
            EXPECT_EQ(location_hash{}(a), location_hash{}(b));
        }
    }
}

TEST_P(Properties, TimeRangeLaws) {
    rng rand(GetParam());
    for (int i = 0; i < 500; ++i) {
        const sim_time x = rand.uniform_int(0, 10000);
        const sim_time y = rand.uniform_int(0, 10000);
        time_range r{std::min(x, y), std::max(x, y)};
        const sim_time z = rand.uniform_int(0, 10000);
        r.extend(z);
        EXPECT_TRUE(r.contains(z));
        EXPECT_TRUE(r.contains(std::min(x, y)));
        EXPECT_TRUE(r.contains(std::max(x, y)));
        EXPECT_GE(r.length(), 0);
        EXPECT_TRUE(r.overlaps(r));

        const time_range other{z, z + 100};
        EXPECT_EQ(r.overlaps(other), other.overlaps(r));
    }
}

TEST_P(Properties, TopologyGraphLaws) {
    generator_params params = generator_params::tiny();
    params.seed = GetParam();
    const topology topo = generate_topology(params);
    rng rand(GetParam() + 1);

    for (int i = 0; i < 30; ++i) {
        const device_id a = static_cast<device_id>(rand.index(topo.devices().size()));
        const device_id b = static_cast<device_id>(rand.index(topo.devices().size()));
        // Hop distance is symmetric, zero iff same device.
        const auto d_ab = topo.hop_distance(a, b);
        const auto d_ba = topo.hop_distance(b, a);
        EXPECT_EQ(d_ab, d_ba);
        if (a == b) {
            EXPECT_EQ(d_ab, 0);
        }
        // Adjacency is symmetric and implies distance 1.
        EXPECT_EQ(topo.adjacent(a, b), topo.adjacent(b, a));
        if (a != b && topo.adjacent(a, b)) {
            EXPECT_EQ(d_ab, 1);
        }
    }

    // connected_components partitions its input: disjoint, complete.
    std::vector<device_id> members;
    for (int i = 0; i < 12; ++i) {
        members.push_back(static_cast<device_id>(rand.index(topo.devices().size())));
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    const auto groups = topo.connected_components(members);
    std::vector<device_id> covered;
    for (const auto& group : groups) {
        for (device_id d : group) covered.push_back(d);
    }
    std::sort(covered.begin(), covered.end());
    EXPECT_EQ(covered, members);
}

TEST_P(Properties, CongestionLossMonotoneInLoad) {
    generator_params params = generator_params::tiny();
    params.seed = GetParam();
    const topology topo = generate_topology(params);
    customer_registry customers;
    network_state state(&topo, &customers);

    const circuit_set& cs = topo.circuit_sets().front();
    const double cap = state.live_capacity_gbps(cs.id);
    double last = -1.0;
    for (double frac = 0.0; frac <= 3.0; frac += 0.1) {
        state.set_offered_gbps(cs.id, cap * frac);
        const double loss = state.congestion_loss(cs.id);
        EXPECT_GE(loss, last - 1e-12) << "loss not monotone at " << frac;
        EXPECT_GE(loss, 0.0);
        EXPECT_LE(loss, 0.99);
        last = loss;
    }
}

TEST_P(Properties, BreakRatioBounds) {
    generator_params params = generator_params::tiny();
    params.seed = GetParam();
    const topology topo = generate_topology(params);
    customer_registry customers;
    network_state state(&topo, &customers);
    rng rand(GetParam() + 2);

    for (const link& l : topo.links()) {
        if (rand.chance(0.3)) state.link_state(l.id).up = false;
    }
    for (const circuit_set& cs : topo.circuit_sets()) {
        const double d = state.break_ratio(cs.id);
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 1.0);
    }
}

TEST_P(Properties, SeverityMonotoneInBreakRatio) {
    generator_params params = generator_params::tiny();
    params.seed = GetParam();
    const topology topo = generate_topology(params);
    rng crand(GetParam() + 3);
    const customer_registry customers = customer_registry::generate(topo, 100, crand);
    network_state state(&topo, &customers);
    evaluator eval(&topo, &customers, evaluator_config{.score_cap = 1e12});

    incident inc;
    inc.root = location{};  // whole network: every set is related
    inc.when = time_range{0, minutes(10)};
    structured_alert a;
    a.category = alert_category::failure;
    a.metric = 0.2;
    a.loc = inc.root;
    inc.alerts.push_back(a);

    // Break circuits one by one: the impact factor never decreases.
    double last_impact = 0.0;
    int step = 0;
    for (const link& l : topo.links()) {
        state.link_state(l.id).up = false;
        if (++step % 10 != 0) continue;
        const severity_breakdown s = eval.evaluate(inc, state, minutes(10));
        EXPECT_GE(s.impact_factor, last_impact - 1e-9);
        last_impact = s.impact_factor;
    }
}

TEST_P(Properties, PreprocessorConservesOccurrences) {
    // Dedup never loses occurrences: the consolidated counts sum to the
    // number of classifiable raw alerts routed through emit().
    generator_params params = generator_params::tiny();
    params.seed = GetParam();
    const topology topo = generate_topology(params);
    const alert_type_registry registry = alert_type_registry::with_builtin_catalog();
    const syslog_classifier syslog = syslog_classifier::train_from_catalog();
    preprocessor pre(&topo, &registry, &syslog, {});
    rng rand(GetParam() + 4);

    int fed = 0;
    int last_count = 0;
    const device& d = topo.devices().front();
    for (int i = 0; i < 200; ++i) {
        raw_alert a;
        a.source = data_source::snmp;
        a.kind = "high cpu";
        a.timestamp = seconds(i);
        a.loc = d.loc;
        a.device = d.id;
        ++fed;
        for (const preprocess_event& ev : pre.process(a, a.timestamp)) {
            last_count = ev.alert.count;
        }
    }
    // Everything within one dedup window: one open alert carrying all
    // occurrences.
    EXPECT_EQ(last_count, fed);
}

}  // namespace
}  // namespace skynet
