// Connectivity grouping (§4.2, Figure 5c) against the pairwise rule it
// replaces. The oracle below tests every pair of members — containment,
// shared cluster, adjacency — and closes the relation transitively; the
// indexed grouping must produce the same partition on randomized member
// sets over a generated topology and on each edge case of the rule.
#include <gtest/gtest.h>

#include <numeric>

#include "skynet/common/rng.h"
#include "skynet/core/connectivity.h"
#include "skynet/topology/generator.h"

namespace skynet {
namespace {

/// The pairwise rule, O(n^2): the reference the indexed grouping must
/// reproduce exactly, output order included.
std::vector<std::vector<std::size_t>> pairwise_groups(const topology& topo,
                                                      std::span<const connectivity_member> m) {
    const location_table& table = topo.locations();
    const std::size_t n = m.size();
    std::vector<std::size_t> parent(n);
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    auto find = [&parent](std::size_t x) {
        while (parent[x] != x) x = parent[x];
        return x;
    };
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            bool join = table.contains(m[i].loc, m[j].loc) || table.contains(m[j].loc, m[i].loc);
            if (!join && m[i].device && m[j].device) {
                const location_id ci = table.ancestor_at(topo.device_at(*m[i].device).loc_id,
                                                         hierarchy_level::cluster);
                const location_id cj = table.ancestor_at(topo.device_at(*m[j].device).loc_id,
                                                         hierarchy_level::cluster);
                join = (table.depth(ci) == depth_of(hierarchy_level::cluster) && ci == cj) ||
                       topo.adjacent(*m[i].device, *m[j].device);
            }
            if (join) parent[find(i)] = find(j);
        }
    }
    std::vector<std::vector<std::size_t>> out;
    std::vector<std::size_t> slot(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = find(i);
        if (slot[r] == n) {
            slot[r] = out.size();
            out.emplace_back();
        }
        out[slot[r]].push_back(i);
    }
    return out;
}

using groups = std::vector<std::vector<std::size_t>>;

// --- randomized member sets over a generated topology --------------------

TEST(ConnectivityOracleTest, RandomMemberSetsMatchThePairwiseRule) {
    generator_params p = generator_params::small();
    p.regions = 3;
    const topology topo = generate_topology(p);
    const location_table& table = topo.locations();
    std::vector<location_id> places;  // every device location and its ancestors
    for (const device& d : topo.devices()) {
        if (d.role == device_role::isp) continue;
        for (location_id a = d.loc_id; a != root_location_id; a = table.parent_of(a)) {
            places.push_back(a);
        }
    }
    std::sort(places.begin(), places.end());
    places.erase(std::unique(places.begin(), places.end()), places.end());

    std::size_t multi_member_groups = 0;
    std::size_t singleton_groups = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        rng rand(seed);
        // Sparse sets split into many groups; dense ones glue together.
        const std::size_t size = 2 + rand.index(seed % 3 == 0 ? 160 : 40);
        std::vector<connectivity_member> members;
        std::vector<location_id> picked = places;
        for (std::size_t i = 0; i < size && !picked.empty(); ++i) {
            const std::size_t k = rand.index(picked.size());
            connectivity_member m{.loc = picked[k], .device = std::nullopt};
            picked.erase(picked.begin() + static_cast<std::ptrdiff_t>(k));
            const double roll = rand.uniform_real();
            if (table.level_of(m.loc) == hierarchy_level::device && roll < 0.6) {
                m.device = topo.find_device(table.segment_of(m.loc));
            } else if (roll < 0.8) {
                // A stored alert naming some device, anywhere.
                m.device = static_cast<device_id>(rand.index(topo.devices().size()));
            }
            members.push_back(m);
        }
        SCOPED_TRACE("seed " + std::to_string(seed));
        const groups want = pairwise_groups(topo, members);
        ASSERT_EQ(connectivity_groups(topo, members), want);
        for (const auto& g : want) (g.size() > 1 ? multi_member_groups : singleton_groups)++;
    }
    // Non-vacuous: the sets both joined and split.
    EXPECT_GT(multi_member_groups, 20u);
    EXPECT_GT(singleton_groups, 20u);
}

// --- edge cases, on a hand-built topology ---------------------------------

/// One region, one city, one logic site with two sites. Site A holds
/// cluster A1 (tors a1, a2) and cluster A2 (tor a3); site B holds
/// cluster B1 (tor b1). Border routers r1 (linked to b1) and r2 (no
/// link) sit one level below the logic site, above cluster depth, and
/// two core routers s1, s2 share site B's own location.
struct edge_world {
    topology topo;
    device_id a1, a2, a3, b1, r1, r2, s1, s2;
    location_id site_a, site_b, cluster_a1, cluster_a2, logic_site;

    edge_world() {
        const location ls{"R", "R/C", "R/C/LS"};
        const location sa = ls.child("R/C/LS/SA");
        const location sb = ls.child("R/C/LS/SB");
        a1 = topo.add_device("a1", device_role::tor, sa.child("A1").child("a1"));
        a2 = topo.add_device("a2", device_role::tor, sa.child("A1").child("a2"));
        a3 = topo.add_device("a3", device_role::tor, sa.child("A2").child("a3"));
        b1 = topo.add_device("b1", device_role::tor, sb.child("B1").child("b1"));
        r1 = topo.add_device("r1", device_role::dcbr, ls.child("r1"));
        r2 = topo.add_device("r2", device_role::dcbr, ls.child("r2"));
        s1 = topo.add_device("s1", device_role::csr, sb);
        s2 = topo.add_device("s2", device_role::csr, sb);
        topo.add_link(r1, b1, invalid_circuit_set, 10.0);
        const location_table& t = topo.locations();
        logic_site = *t.find(ls);
        site_a = *t.find(sa);
        site_b = *t.find(sb);
        cluster_a1 = *t.find(sa.child("A1"));
        cluster_a2 = *t.find(sa.child("A2"));
    }

    [[nodiscard]] location_id loc(device_id d) const { return topo.device_at(d).loc_id; }

    /// Checks the indexed grouping against both the oracle and `want`.
    void expect(std::span<const connectivity_member> members, const groups& want) const {
        EXPECT_EQ(pairwise_groups(topo, members), want) << "oracle disagrees with the case";
        EXPECT_EQ(connectivity_groups(topo, members), want);
    }
};

TEST(ConnectivityEdgeTest, SharedClusterJoinsAndSeparateClustersDoNot) {
    const edge_world w;
    const connectivity_member same[] = {{w.loc(w.a1), w.a1}, {w.loc(w.a2), w.a2}};
    w.expect(same, {{0, 1}});
    const connectivity_member apart[] = {{w.loc(w.a1), w.a1}, {w.loc(w.a3), w.a3}};
    w.expect(apart, {{0}, {1}});
}

TEST(ConnectivityEdgeTest, AggregateNodeGluesGroupsBeneathIt) {
    const edge_world w;
    // a1 and a3 sit in different, unlinked clusters; the site above both
    // joins them, and b1 (another site) stays apart.
    const connectivity_member members[] = {
        {w.loc(w.a1), w.a1}, {w.loc(w.a3), w.a3}, {w.loc(w.b1), w.b1}, {w.site_a, std::nullopt}};
    w.expect(members, {{0, 1, 3}, {2}});
    // One level higher the logic site glues everything.
    const connectivity_member all[] = {{w.loc(w.a1), w.a1},
                                       {w.loc(w.b1), w.b1},
                                       {w.logic_site, std::nullopt},
                                       {w.loc(w.r2), w.r2}};
    w.expect(all, {{0, 1, 2, 3}});
    // Glue reaches through a chain of nested aggregates.
    const connectivity_member chain[] = {
        {w.cluster_a2, std::nullopt}, {w.loc(w.a1), std::nullopt}, {w.site_a, std::nullopt}};
    w.expect(chain, {{0, 1, 2}});
}

TEST(ConnectivityEdgeTest, DeviceOutsideTheNodeLocationDecides) {
    const edge_world w;
    // The cluster-A2 node's first stored alert names r1 (outside site A);
    // r1 links to b1, so the node joins b1's node although no location
    // contains the other.
    const connectivity_member members[] = {{w.cluster_a2, w.r1}, {w.loc(w.b1), w.b1}};
    w.expect(members, {{0, 1}});
    // The same node resolving to the unlinked r2 stays apart.
    const connectivity_member unlinked[] = {{w.cluster_a2, w.r2}, {w.loc(w.b1), w.b1}};
    w.expect(unlinked, {{0}, {1}});
}

TEST(ConnectivityEdgeTest, ClusterJoinsOnlyAtClusterDepth) {
    const edge_world w;
    // s1 and s2 share one location, site B: the cluster-level ancestor
    // of both is that site, which is not at cluster depth.
    const connectivity_member members[] = {{w.cluster_a1, w.s1}, {w.cluster_a2, w.s2}};
    w.expect(members, {{0}, {1}});
    // Two nodes in different clusters whose alerts name tors of one
    // cluster do join.
    const connectivity_member clustered[] = {{w.cluster_a2, w.a1}, {w.loc(w.b1), w.a2}};
    w.expect(clustered, {{0, 1}});
}

TEST(ConnectivityEdgeTest, SameLinkedDeviceJoinsItself) {
    const edge_world w;
    // topology::adjacent(d, d) holds for a device with any link.
    const connectivity_member linked[] = {{w.cluster_a1, w.r1}, {w.cluster_a2, w.r1}};
    w.expect(linked, {{0, 1}});
    // ... and not for one without links (r2 has no cluster either).
    const connectivity_member lone[] = {{w.cluster_a1, w.r2}, {w.cluster_a2, w.r2}};
    w.expect(lone, {{0}, {1}});
}

TEST(ConnectivityEdgeTest, EmptyAndSingleMember) {
    const edge_world w;
    EXPECT_TRUE(connectivity_groups(w.topo, {}).empty());
    const connectivity_member one[] = {{root_location_id, std::nullopt}};
    w.expect(one, {{0}});
}

}  // namespace
}  // namespace skynet
