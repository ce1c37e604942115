// The locator (§4.2): hierarchical alert tree and incident discovery.
//
// Structured alerts are inserted into a *main tree* indexed by their
// hierarchy location (Algorithm 1). When the alerts under a node exceed
// the incident thresholds — counting each alert type once, and only
// alerts topologically connected to each other (Figure 5c: an isolated
// device's alerts belong to a different root cause) — the subtree is
// replicated as an *incident tree* (Algorithm 2). Nodes expire after
// 5 minutes without updates; incident trees close after 15 idle minutes
// (Algorithm 3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "skynet/alert/alert.h"
#include "skynet/topology/topology.h"

namespace skynet {

/// Incident-generation thresholds in the paper's "A/B+C/D" notation:
/// A failure alerts, or B failure alerts plus C other alerts, or D alerts
/// of any type. 0 disables the clause. Production setting: 2/1+2/5.
struct incident_thresholds {
    int pure_failure = 2;   // A
    int combo_failure = 1;  // B
    int combo_other = 2;    // C
    int any = 5;            // D

    [[nodiscard]] bool met(int failure_types, int total_types) const noexcept {
        const int other = total_types - failure_types;
        if (pure_failure > 0 && failure_types >= pure_failure) return true;
        if (combo_failure > 0 && combo_other > 0 && failure_types >= combo_failure &&
            other >= combo_other) {
            return true;
        }
        if (any > 0 && total_types >= any) return true;
        return false;
    }

    [[nodiscard]] std::string to_string() const;
};

struct locator_config {
    /// Main-tree node expiry (§4.2: max alert delay ~2 min SNMP + ~4 min
    /// worst-case transmission -> 5 minutes).
    sim_duration node_timeout = minutes(5);
    /// Incident-tree idle timeout (timeliness is not critical here).
    sim_duration incident_timeout = minutes(15);
    incident_thresholds thresholds{};
    /// Count alerts per type (same type at different locations counts
    /// once). false reproduces the Figure 9 "type+location" ablation.
    bool count_by_type = true;
    /// Partition alerting devices into topology-connected groups before
    /// threshold checks.
    bool use_connectivity = true;
    /// Derive incident ids from a stable hash of (root location, spawn
    /// time) instead of a per-locator counter. The sharded engine forces
    /// this on so ids agree across shard counts — and with a sequential
    /// engine run on the same trace — making merged rankings comparable.
    bool deterministic_ids = false;
    /// Bounded-memory degradation (overload control): cap on alerts
    /// stored per main-tree node. When full, the oldest-inserted alert is
    /// evicted first, so a storm hammering one location degrades its node
    /// deterministically instead of growing without bound. 0 = unbounded
    /// (the default; behavior unchanged).
    std::size_t max_node_alerts = 0;
    /// Cap on concurrently open incident trees. When exceeded, the
    /// oldest open incident (front-most in spawn order) is force-closed
    /// and surfaced through check()'s closed list. 0 = unbounded.
    std::size_t max_open_incidents = 0;
};

/// A set of alerts attributed to one root cause.
struct incident {
    std::uint64_t id{0};
    /// Root of the incident tree.
    location root;
    /// `root` interned in the owning topology's location table; the
    /// sentinel for hand-built incidents (consumers intern `root` then).
    location_id root_id{invalid_location_id};
    time_range when;
    std::vector<structured_alert> alerts;
    bool closed{false};

    /// Distinct alert types present, by category.
    [[nodiscard]] int type_count(alert_category category) const;
    [[nodiscard]] int total_type_count() const;
    /// Mean metric over failure-category probe alerts (R_k input).
    [[nodiscard]] double avg_failure_loss() const;
    /// Figure 6-style rendering: categorized type counts under the
    /// incident header.
    [[nodiscard]] std::string render() const;
};

class locator {
public:
    /// One alert as stored in a tree node, with its insertion time (the
    /// node-expiry clock runs on insertion, not generation, times).
    struct stored_alert {
        structured_alert alert;
        sim_time inserted{0};
    };

    /// Snapshot of the main tree and the open incident trees, exported
    /// at a barrier and restored into a freshly constructed locator
    /// (same topology, same config) by the persist subsystem. Nodes are
    /// listed in location-path order; incident trees keep their spawn
    /// order (it is part of Algorithm 1's routing semantics).
    struct persist_state {
        struct node_state {
            location_id loc{invalid_location_id};
            sim_time last_update{0};
            std::vector<stored_alert> alerts;
        };
        struct incident_entry {
            incident inc;
            location_id root_id{root_location_id};
            sim_time update_time{0};
            std::vector<node_state> nodes;
        };

        std::vector<node_state> nodes;
        std::vector<incident_entry> incidents;
        std::uint64_t next_incident_id{1};
    };

    locator(const topology* topo, locator_config config = {});

    /// Exports main-tree and incident-tree state; see persist_state.
    [[nodiscard]] persist_state export_state() const;

    /// Replaces all trees with a previously exported state. The restored
    /// locator behaves bit-identically to the exporting one.
    void import_state(persist_state state);

    /// Algorithm 1: routes the alert into matching incident trees and the
    /// main tree.
    void insert(const structured_alert& alert, sim_time now);

    /// Consolidation update: refreshes timestamps of the alert's node.
    void refresh(const structured_alert& alert, sim_time now);

    /// Algorithms 2 + 3: spawn incident trees whose thresholds are met,
    /// expire stale nodes, close idle incidents. Returns incidents closed
    /// by this call.
    [[nodiscard]] std::vector<incident> check(sim_time now);

    /// Force-closes every open incident (end of an experiment episode).
    [[nodiscard]] std::vector<incident> drain(sim_time now);

    /// Snapshot of the currently open incidents (deep copy; prefer
    /// open_incident_view() on hot paths).
    [[nodiscard]] std::vector<incident> open_incidents() const;

    /// Zero-copy view of the open incidents. Pointers are valid until the
    /// next mutating call (insert/refresh/check/drain).
    [[nodiscard]] std::vector<const incident*> open_incident_view() const;

    [[nodiscard]] std::size_t main_tree_size() const noexcept { return nodes_.size(); }

    /// Alerts evicted by max_node_alerts, and incidents force-closed by
    /// max_open_incidents. Process-local overload accounting (not part
    /// of the persisted state).
    [[nodiscard]] std::uint64_t evicted_node_alerts() const noexcept {
        return evicted_node_alerts_;
    }
    [[nodiscard]] std::uint64_t evicted_incidents() const noexcept { return evicted_incidents_; }
    /// Live stored alerts (main-tree nodes + open incident trees): the
    /// locator's share of the engine's memory footprint.
    [[nodiscard]] std::size_t stored_alert_count() const noexcept;

private:
    struct tree_node {
        location_id loc{invalid_location_id};
        /// Table-owned path (stable for the table's lifetime); kept for
        /// the path-ordered sorts that make spawn order deterministic.
        const location* path{nullptr};
        std::vector<stored_alert> alerts;
        sim_time last_update{0};
    };
    struct incident_state {
        incident inc;
        location_id root_id{root_location_id};
        sim_time update_time{0};
        /// Interned locations (node keys) belonging to this incident tree.
        std::unordered_map<location_id, std::vector<stored_alert>> nodes;
        /// Positions in inc.alerts by (type, location) key, so a refresh
        /// touches only the alerts it updates: the latest position per
        /// key, and per position the previous one with the same key
        /// (kNoSlot ends the chain). Mirrors inc.alerts, which only ever
        /// grows (insert, spawn, import).
        std::unordered_map<std::uint64_t, std::uint32_t> last_slot;
        std::vector<std::uint32_t> previous_slot;
    };

    /// The alert's interned id; interns its string path when the caller
    /// (e.g. a test building alerts by hand) left the sentinel.
    [[nodiscard]] location_id ensure_id(const structured_alert& alert) const;
    void add_to_main(const structured_alert& alert, sim_time now);
    /// Adds the alerts appended to st.inc.alerts since the last call to
    /// its slot index.
    static void index_new_alerts(incident_state& st);
    /// Rebuilds incident_by_root_ after incident_states_ changed shape.
    void reindex_incidents();
    /// The open incident whose tree holds `loc`, or nullptr: open roots
    /// never nest, so at most one root sits on `loc`'s ancestor chain.
    [[nodiscard]] incident_state* owner_of(location_id loc);
    /// Counts distinct failure types and total types among the alerts of
    /// the given nodes; with count_by_type disabled, counts distinct
    /// (type, location) pairs instead.
    [[nodiscard]] std::pair<int, int> count_types(
        const std::vector<const tree_node*>& group) const;
    /// Partitions alert-bearing nodes (path-sorted) into connectivity
    /// groups (see skynet/core/connectivity.h), each path-sorted, in path
    /// order of their first node.
    [[nodiscard]] std::vector<std::vector<const tree_node*>> connectivity_groups(
        const std::vector<const tree_node*>& members) const;
    void spawn_incident(const std::vector<const tree_node*>& group, sim_time now);

    const topology* topo_;
    locator_config config_;
    std::unordered_map<location_id, tree_node> nodes_;
    std::vector<incident_state> incident_states_;
    /// Open incident root -> position in incident_states_. Derived state:
    /// rebuilt whenever incident_states_ gains, loses or reorders entries
    /// (spawn, absorb, cap eviction, close, drain, import).
    std::unordered_map<location_id, std::size_t> incident_by_root_;
    std::uint64_t next_incident_id_{1};
    /// Incidents force-closed by the max_open_incidents cap, held until
    /// the surrounding check() folds them into its closed list.
    std::vector<incident> force_closed_;
    std::uint64_t evicted_node_alerts_{0};
    std::uint64_t evicted_incidents_{0};
};

}  // namespace skynet
