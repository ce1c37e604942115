#include "skynet/core/connectivity.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace skynet {

std::vector<std::vector<std::size_t>> connectivity_groups(
    const topology& topo, std::span<const connectivity_member> members) {
    const std::size_t n = members.size();
    std::vector<std::size_t> parent(n);
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    auto find = [&parent](std::size_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    auto unite = [&](std::size_t a, std::size_t b) { parent[find(a)] = find(b); };

    const location_table& table = topo.locations();

    // Containment: join each member with its nearest member ancestor.
    // Chains of such joins connect every ancestor/descendant pair.
    std::vector<std::pair<location_id, std::size_t>> by_location(n);
    for (std::size_t i = 0; i < n; ++i) by_location[i] = {members[i].loc, i};
    std::sort(by_location.begin(), by_location.end());
    for (std::size_t k = 1; k < n; ++k) {
        // Same location: contains() holds both ways.
        if (by_location[k].first == by_location[k - 1].first) {
            unite(by_location[k].second, by_location[k - 1].second);
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (location_id a = members[i].loc; a != root_location_id;) {
            a = table.parent_of(a);
            const auto it = std::lower_bound(by_location.begin(), by_location.end(),
                                             std::pair{a, std::size_t{0}});
            if (it != by_location.end() && it->first == a) {
                unite(i, it->second);
                break;
            }
        }
    }

    // Shared cluster: join the members in each bucket of a location at
    // cluster depth.
    std::vector<std::pair<location_id, std::size_t>> by_cluster;
    std::vector<std::pair<device_id, std::size_t>> by_device;
    for (std::size_t i = 0; i < n; ++i) {
        if (!members[i].device) continue;
        const device_id d = *members[i].device;
        by_device.emplace_back(d, i);
        const location_id cluster =
            table.ancestor_at(topo.device_at(d).loc_id, hierarchy_level::cluster);
        if (table.depth(cluster) == depth_of(hierarchy_level::cluster)) {
            by_cluster.emplace_back(cluster, i);
        }
    }
    std::sort(by_cluster.begin(), by_cluster.end());
    for (std::size_t k = 1; k < by_cluster.size(); ++k) {
        if (by_cluster[k].first == by_cluster[k - 1].first) {
            unite(by_cluster[k].second, by_cluster[k - 1].second);
        }
    }

    // Adjacency: walk the links of each alerting device once, joining the
    // members on the far side. A linked device is adjacent to itself.
    std::sort(by_device.begin(), by_device.end());
    for (std::size_t k = 0; k < by_device.size(); ++k) {
        const auto [d, first] = by_device[k];
        if (k > 0 && by_device[k - 1].first == d) {
            if (!topo.links_of(d).empty()) unite(first, by_device[k - 1].second);
            continue;
        }
        for (const link_id lid : topo.links_of(d)) {
            const link& l = topo.link_at(lid);
            const device_id other = (l.a == d) ? l.b : l.a;
            const auto it = std::lower_bound(by_device.begin(), by_device.end(),
                                             std::pair{other, std::size_t{0}});
            if (it != by_device.end() && it->first == other) unite(first, it->second);
        }
    }

    // Groups in order of their smallest member index.
    constexpr std::size_t unassigned = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> group_of_root(n, unassigned);
    std::vector<std::vector<std::size_t>> out;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t& slot = group_of_root[find(i)];
        if (slot == unassigned) {
            slot = out.size();
            out.emplace_back();
        }
        out[slot].push_back(i);
    }
    return out;
}

}  // namespace skynet
