#include "skynet/core/locator.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "skynet/alert/type_registry.h"
#include "skynet/common/error.h"
#include "skynet/core/connectivity.h"

namespace skynet {

std::string incident_thresholds::to_string() const {
    return std::to_string(pure_failure) + "/" + std::to_string(combo_failure) + "+" +
           std::to_string(combo_other) + "/" + std::to_string(any);
}

int incident::type_count(alert_category category) const {
    std::unordered_set<alert_type_id> types;
    for (const structured_alert& a : alerts) {
        if (a.category == category) types.insert(a.type);
    }
    return static_cast<int>(types.size());
}

int incident::total_type_count() const {
    std::unordered_set<alert_type_id> types;
    for (const structured_alert& a : alerts) types.insert(a.type);
    return static_cast<int>(types.size());
}

double incident::avg_failure_loss() const {
    double sum = 0.0;
    int n = 0;
    for (const structured_alert& a : alerts) {
        if (a.category != alert_category::failure) continue;
        if (a.metric <= 0.0 || a.metric > 1.0) continue;  // latency metrics excluded
        sum += a.metric;
        ++n;
    }
    return n == 0 ? 0.0 : sum / n;
}

std::vector<incident::type_row> incident::type_rows(alert_category category) const {
    // One pass groups the alerts by type id (and name, for hand-built
    // alerts that carry no id), so strings are touched once per group.
    struct group {
        alert_type_id type;
        std::size_t last;  ///< position of the group's last alert
        type_row row;
    };
    std::vector<group> groups;
    for (std::size_t i = 0; i < alerts.size(); ++i) {
        const structured_alert& a = alerts[i];
        if (a.category != category) continue;
        auto g = std::find_if(groups.begin(), groups.end(), [&a](const group& g) {
            return g.type == a.type && g.row.name == a.type_name;
        });
        if (g == groups.end()) g = groups.insert(groups.end(), group{a.type, i, {a.type_name}});
        g->last = i;
        g->row.source = a.source;
        g->row.count += a.count;
    }
    std::sort(groups.begin(), groups.end(),
              [](const group& a, const group& b) { return a.row.name < b.row.name; });
    // Groups that share a name merge; the source of the last alert wins.
    std::vector<type_row> rows;
    rows.reserve(groups.size());
    std::size_t last = 0;
    for (const group& g : groups) {
        if (rows.empty() || rows.back().name != g.row.name) {
            rows.push_back(g.row);
            last = g.last;
            continue;
        }
        rows.back().count += g.row.count;
        if (g.last > last) {
            rows.back().source = g.row.source;
            last = g.last;
        }
    }
    return rows;
}

std::string incident::render() const {
    std::string out = "Incident " + std::to_string(id) + ":\n[" + root.to_string() + "][" +
                      format_time(when.begin) + " - " + format_time(when.end) + "]\n";
    static constexpr alert_category order[] = {alert_category::failure, alert_category::abnormal,
                                               alert_category::root_cause};
    for (alert_category cat : order) {
        const std::vector<type_row> rows = type_rows(cat);
        if (rows.empty()) continue;
        out += "\n";
        out += (cat == alert_category::failure     ? "Failure alerts\n"
                : cat == alert_category::abnormal ? "Abnormal alerts\n"
                                                  : "Root cause alerts\n");
        for (const type_row& row : rows) {
            out += "  ";
            out += to_string(row.source);
            out += " |- ";
            out += row.name;
            out += " (" + std::to_string(row.count) + ")\n";
        }
    }
    return out;
}

namespace {

/// Ends a chain of incident_state::previous_slot.
constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// (type, interned location) packed into one u64.
std::uint64_t type_location_key(const structured_alert& alert) {
    return (static_cast<std::uint64_t>(alert.type) << 32) |
           static_cast<std::uint64_t>(alert.loc_id);
}

}  // namespace

locator::locator(const topology* topo, locator_config config)
    : topo_(topo), config_(config) {
    if (topo_ == nullptr) throw skynet_error("locator: null topology");
}

locator::persist_state locator::export_state() const {
    const location_table& table = topo_->locations();
    persist_state out;
    out.next_incident_id = next_incident_id_;
    out.nodes.reserve(nodes_.size());
    for (const auto& [loc, node] : nodes_) {
        out.nodes.push_back(persist_state::node_state{
            .loc = loc, .last_update = node.last_update, .alerts = node.alerts});
    }
    // Path order (not id order): canonical across id-assignment races.
    std::sort(out.nodes.begin(), out.nodes.end(),
              [&table](const auto& a, const auto& b) {
                  return table.path_of(a.loc) < table.path_of(b.loc);
              });
    out.incidents.reserve(incident_states_.size());
    for (const incident_state& st : incident_states_) {
        persist_state::incident_entry e;
        e.inc = st.inc;
        e.root_id = st.root_id;
        e.update_time = st.update_time;
        e.nodes.reserve(st.nodes.size());
        for (const auto& [loc, alerts] : st.nodes) {
            e.nodes.push_back(
                persist_state::node_state{.loc = loc, .last_update = 0, .alerts = alerts});
        }
        std::sort(e.nodes.begin(), e.nodes.end(),
                  [&table](const auto& a, const auto& b) {
                      return table.path_of(a.loc) < table.path_of(b.loc);
                  });
        out.incidents.push_back(std::move(e));
    }
    return out;
}

void locator::import_state(persist_state state) {
    const location_table& table = topo_->locations();
    nodes_.clear();
    incident_states_.clear();
    next_incident_id_ = state.next_incident_id;
    for (persist_state::node_state& n : state.nodes) {
        tree_node node;
        node.loc = n.loc;
        node.path = &table.path_of(n.loc);
        node.alerts = std::move(n.alerts);
        node.last_update = n.last_update;
        nodes_.emplace(n.loc, std::move(node));
    }
    incident_states_.reserve(state.incidents.size());
    for (persist_state::incident_entry& e : state.incidents) {
        incident_state st;
        st.inc = std::move(e.inc);
        st.root_id = e.root_id;
        st.update_time = e.update_time;
        for (persist_state::node_state& n : e.nodes) {
            st.nodes.emplace(n.loc, std::move(n.alerts));
        }
        index_new_alerts(st);
        incident_states_.push_back(std::move(st));
    }
    reindex_incidents();
}

location_id locator::ensure_id(const structured_alert& alert) const {
    if (alert.loc_id != invalid_location_id) return alert.loc_id;
    return topo_->locations().intern(alert.loc);
}

void locator::add_to_main(const structured_alert& alert, sim_time now) {
    auto [it, inserted] = nodes_.try_emplace(alert.loc_id);
    tree_node& node = it->second;
    if (inserted) {
        node.loc = alert.loc_id;
        node.path = &topo_->locations().path_of(alert.loc_id);
    }
    std::vector<stored_alert>& alerts = node.alerts.edit();
    alerts.push_back(stored_alert{.alert = alert, .inserted = now});
    node.last_update = now;
    // Bounded-memory degradation: a node at its cap sheds its oldest
    // stored alert (insertion order == arrival order, so front-first).
    while (config_.max_node_alerts != 0 && alerts.size() > config_.max_node_alerts) {
        alerts.erase(alerts.begin());
        ++evicted_node_alerts_;
    }
}

void locator::index_new_alerts(incident_state& st) {
    for (auto slot = static_cast<std::uint32_t>(st.previous_slot.size());
         slot < st.inc.alerts.size(); ++slot) {
        const auto [it, fresh] =
            st.last_slot.try_emplace(type_location_key(st.inc.alerts[slot]), slot);
        st.previous_slot.push_back(fresh ? kNoSlot : it->second);
        it->second = slot;
    }
}

void locator::reindex_incidents() {
    incident_by_root_.clear();
    for (std::size_t i = 0; i < incident_states_.size(); ++i) {
        incident_by_root_.emplace(incident_states_[i].root_id, i);
    }
}

locator::incident_state* locator::owner_of(location_id loc) {
    if (incident_by_root_.empty()) return nullptr;
    const location_table& table = topo_->locations();
    for (location_id a = loc;; a = table.parent_of(a)) {
        if (const auto it = incident_by_root_.find(a); it != incident_by_root_.end()) {
            return &incident_states_[it->second];
        }
        if (a == root_location_id) return nullptr;
    }
}

void locator::insert(const structured_alert& alert, sim_time now) {
    structured_alert a = alert;
    a.loc_id = ensure_id(alert);
    // Algorithm 1: route into the incident tree holding the location
    // first (every node of a tree lies under its root) ...
    if (incident_state* st = owner_of(a.loc_id)) {
        st->nodes[a.loc_id].push_back(stored_alert{.alert = a, .inserted = now});
        st->inc.alerts.push_back(a);
        index_new_alerts(*st);
        st->inc.when.extend(a.when.end);
        st->update_time = now;
    }
    // ... and always into the main tree.
    add_to_main(a, now);
}

void locator::refresh(const structured_alert& alert, sim_time now) {
    structured_alert a = alert;
    a.loc_id = ensure_id(alert);
    const auto update = [&a](structured_alert& stored) {
        stored.when = a.when;
        stored.count = a.count;
        stored.metric = a.metric;
    };
    // Updates a node's alerts of a's type, detaching the list only when
    // one matches.
    const auto update_node = [&a, &update](shared_list<stored_alert>& alerts) {
        const auto same_type = [&a](const stored_alert& s) { return s.alert.type == a.type; };
        const auto first = std::find_if(alerts.begin(), alerts.end(), same_type);
        if (first == alerts.end()) return;
        const auto from = first - alerts.begin();
        std::vector<stored_alert>& own = alerts.edit();
        for (auto s = own.begin() + from; s != own.end(); ++s) {
            if (same_type(*s)) update(s->alert);
        }
    };
    // Consolidation update: same (type, location) alert recurred; extend
    // the stored alert and keep the node alive.
    if (auto it = nodes_.find(a.loc_id); it != nodes_.end()) {
        it->second.last_update = now;
        update_node(it->second.alerts);
    } else {
        // Node expired between the original emission and this update:
        // treat as a fresh insertion.
        add_to_main(a, now);
    }
    incident_state* st = owner_of(a.loc_id);
    if (st == nullptr) return;
    st->update_time = now;
    st->inc.when.extend(a.when.end);
    auto it = st->nodes.find(a.loc_id);
    if (it == st->nodes.end()) return;
    update_node(it->second);
    if (const auto last = st->last_slot.find(type_location_key(a)); last != st->last_slot.end()) {
        std::vector<structured_alert>& alerts = st->inc.alerts.edit();
        for (std::uint32_t i = last->second; i != kNoSlot; i = st->previous_slot[i]) {
            update(alerts[i]);
        }
    }
}

std::pair<int, int> locator::count_types(const std::vector<const tree_node*>& group) const {
    std::unordered_set<std::uint64_t> failure_keys;
    std::unordered_set<std::uint64_t> all_keys;
    for (const tree_node* node : group) {
        for (const stored_alert& s : node->alerts) {
            // (type, interned location) packed into one u64; the location
            // half is zero in count_by_type mode so a type counts once.
            std::uint64_t key = static_cast<std::uint64_t>(s.alert.type) << 32;
            if (!config_.count_by_type) key |= static_cast<std::uint64_t>(s.alert.loc_id);
            all_keys.insert(key);
            if (s.alert.category == alert_category::failure) failure_keys.insert(key);
        }
    }
    return {static_cast<int>(failure_keys.size()), static_cast<int>(all_keys.size())};
}

std::vector<std::vector<const locator::tree_node*>> locator::connectivity_groups(
    const std::vector<const tree_node*>& members) const {
    const location_table& table = topo_->locations();
    std::vector<connectivity_member> resolved(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
        resolved[i].loc = members[i]->loc;
        for (const stored_alert& s : members[i]->alerts) {
            if (s.alert.device) {
                resolved[i].device = s.alert.device;
                break;
            }
        }
        if (!resolved[i].device && table.level_of(members[i]->loc) == hierarchy_level::device) {
            resolved[i].device = topo_->find_device(table.segment_of(members[i]->loc));
        }
    }
    std::vector<std::vector<const tree_node*>> out;
    for (const std::vector<std::size_t>& group : skynet::connectivity_groups(*topo_, resolved)) {
        std::vector<const tree_node*>& nodes = out.emplace_back();
        nodes.reserve(group.size());
        for (const std::size_t i : group) nodes.push_back(members[i]);
    }
    return out;
}

namespace {

/// FNV-1a over the incident root path and spawn time: a stable id that
/// two locators (e.g. different shards, or a sequential engine on the
/// same trace) agree on without sharing a counter.
std::uint64_t stable_incident_id(const location& root, sim_time now) {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const char* data, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= static_cast<unsigned char>(data[i]);
            h *= 1099511628211ull;
        }
    };
    for (const std::string& seg : root.segments()) {
        mix(seg.data(), seg.size());
        mix("|", 1);
    }
    mix(reinterpret_cast<const char*>(&now), sizeof now);
    return h == 0 ? 1 : h;
}

}  // namespace

void locator::spawn_incident(const std::vector<const tree_node*>& group, sim_time now) {
    const location_table& table = topo_->locations();
    location_id root = group.front()->loc;
    for (const tree_node* node : group) root = table.common_ancestor(root, node->loc);

    // Algorithm 2 lines 2-3: the root already has an incident tree — or
    // sits inside one, whose tree is already absorbing these alerts
    // (nested incident trees would double-report).
    if (owner_of(root) != nullptr) return;

    incident_state st;
    st.inc.id = config_.deterministic_ids ? stable_incident_id(table.path_of(root), now)
                                          : next_incident_id_++;
    st.inc.root = table.path_of(root);
    st.inc.root_id = root;
    st.root_id = root;
    st.update_time = now;

    // Replicate the subtree beneath the root from the main tree, in path
    // order so the incident's alert list (and the fp accumulations
    // downstream of it) is independent of hash-map layout.
    std::vector<const tree_node*> subtree;
    for (const auto& [loc, node] : nodes_) {
        if (table.contains(root, loc)) subtree.push_back(&node);
    }
    std::sort(subtree.begin(), subtree.end(),
              [](const tree_node* a, const tree_node* b) { return *a->path < *b->path; });
    sim_time begin = now;
    sim_time end = 0;
    std::size_t total_alerts = 0;
    for (const tree_node* node : subtree) total_alerts += node->alerts.size();
    std::vector<structured_alert>& alerts = st.inc.alerts.edit();
    alerts.reserve(total_alerts);
    for (const tree_node* node : subtree) {
        st.nodes.emplace(node->loc, node->alerts);
        for (const stored_alert& s : node->alerts) {
            alerts.push_back(s.alert);
            begin = std::min(begin, s.alert.when.begin);
            end = std::max(end, s.alert.when.end);
        }
    }
    st.inc.when = time_range{begin, std::max(begin, end)};
    index_new_alerts(st);

    // Algorithm 2 lines 7-9: absorb incidents rooted inside the subtree.
    std::erase_if(incident_states_, [&root, &table](const incident_state& old) {
        return !old.inc.closed && table.contains(root, old.root_id) && old.root_id != root;
    });

    incident_states_.push_back(std::move(st));

    // Bounded-memory degradation: too many concurrent incident trees —
    // force-close the oldest (spawn order), to be surfaced by check().
    while (config_.max_open_incidents != 0 &&
           incident_states_.size() > config_.max_open_incidents) {
        incident_state& victim = incident_states_.front();
        victim.inc.closed = true;
        force_closed_.push_back(std::move(victim.inc));
        incident_states_.erase(incident_states_.begin());
        ++evicted_incidents_;
    }
    reindex_incidents();
}

std::vector<incident> locator::check(sim_time now) {
    // Algorithm 3, main tree: drop nodes idle past the node timeout. A
    // node is expired exactly AT the deadline (>=): "idle for the
    // timeout" includes the barrier that completes it, so a 5-minute
    // timeout means 5 minutes, not 5 minutes plus one tick.
    for (auto it = nodes_.begin(); it != nodes_.end();) {
        if (now >= it->second.last_update + config_.node_timeout) {
            it = nodes_.erase(it);
        } else {
            ++it;
        }
    }

    // Algorithm 2: group alert-bearing nodes, check thresholds, spawn.
    // Path-sorted so grouping and spawn order are independent of the
    // node map's hash layout.
    std::vector<const tree_node*> members;
    members.reserve(nodes_.size());
    for (const auto& [loc, node] : nodes_) {
        if (!node.alerts.empty()) members.push_back(&node);
    }
    std::sort(members.begin(), members.end(),
              [](const tree_node* a, const tree_node* b) { return *a->path < *b->path; });
    std::vector<std::vector<const tree_node*>> groups;
    if (config_.use_connectivity) {
        groups = connectivity_groups(members);
    } else if (!members.empty()) {
        groups.push_back(std::move(members));
    }
    for (const auto& group : groups) {
        const auto [failure_types, total_types] = count_types(group);
        if (config_.thresholds.met(failure_types, total_types)) {
            spawn_incident(group, now);
        }
    }

    // Algorithm 3, incident trees: close idle incidents. The state is
    // erased right after, so the incident is moved out; the closed flag
    // survives the move (trivially copied), keeping the erase predicate
    // valid.
    std::vector<incident> closed;
    // Cap-evicted incidents close first (they were forced out before the
    // idle scan), then the idle ones in spawn order.
    closed = std::move(force_closed_);
    force_closed_.clear();
    for (incident_state& st : incident_states_) {
        if (st.inc.closed) continue;
        // Same exact-at-deadline semantics as the node timeout above.
        if (now >= st.update_time + config_.incident_timeout) {
            st.inc.closed = true;
            closed.push_back(std::move(st.inc));
        }
    }
    const auto is_closed = [](const incident_state& st) { return st.inc.closed; };
    if (std::erase_if(incident_states_, is_closed) > 0) reindex_incidents();
    return closed;
}

std::vector<incident> locator::drain(sim_time now) {
    std::vector<incident> closed = std::move(force_closed_);
    force_closed_.clear();
    closed.reserve(closed.size() + incident_states_.size());
    for (incident_state& st : incident_states_) {
        st.inc.closed = true;
        closed.push_back(std::move(st.inc));
    }
    incident_states_.clear();
    reindex_incidents();
    (void)now;
    return closed;
}

std::vector<incident> locator::open_incidents() const {
    std::vector<incident> out;
    out.reserve(incident_states_.size());
    for (const incident_state& st : incident_states_) out.push_back(st.inc);
    return out;
}

std::size_t locator::stored_alert_count() const noexcept {
    std::size_t count = 0;
    for (const auto& [loc, node] : nodes_) count += node.alerts.size();
    for (const incident_state& st : incident_states_) count += st.inc.alerts.size();
    return count;
}

}  // namespace skynet
