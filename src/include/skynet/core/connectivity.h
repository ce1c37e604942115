// Connectivity grouping (§4.2, Figure 5c): the locator splits the
// alert-bearing nodes of its main tree into topology-connected groups
// before it checks the incident thresholds, so an isolated device's
// alerts count toward a different root cause.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "skynet/topology/topology.h"

namespace skynet {

/// One alert-bearing main-tree node, as the grouping sees it.
struct connectivity_member {
    location_id loc{invalid_location_id};
    /// The device the node resolves to: the device of its first stored
    /// alert that names one (which may lie outside `loc`), else the
    /// node's own device when it sits at device level; nullopt for an
    /// aggregate node without device-attributed alerts.
    std::optional<device_id> device;
};

/// Partitions `members` into connectivity groups: the transitive closure
/// of three joins between two members —
///   * containment: one member's location contains the other's, so an
///     aggregate node glues together everything beneath it;
///   * shared cluster: both devices sit under the same location at
///     cluster depth;
///   * adjacency: topology::adjacent() holds between the two devices. A
///     device with any link is adjacent to itself, so two members that
///     resolve to the same linked device join.
/// Runs in O((n·depth + links of the members' devices)·log n): each
/// member joins its nearest member ancestor, its cluster bucket and the
/// members on the far side of its device's links, never every other
/// member.
///
/// Returns member indices: ascending within each group, groups ordered
/// by their smallest index. Callers that pass members in path order get
/// groups in path order of their first member.
[[nodiscard]] std::vector<std::vector<std::size_t>> connectivity_groups(
    const topology& topo, std::span<const connectivity_member> members);

}  // namespace skynet
