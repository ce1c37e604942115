#include "skynet/core/evaluator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "skynet/common/error.h"

namespace skynet {
namespace {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// log base (1/rate) of x: grows with incident duration, faster for
/// higher loss/overload rates. rate is clamped into (0, 1).
double rate_log(double rate, double x, const evaluator_config& cfg) {
    const double r = std::clamp(rate, cfg.min_rate, cfg.max_rate);
    if (x <= 1.0) return 0.0;
    return std::log(x) / std::log(1.0 / r);
}

}  // namespace

evaluator::evaluator(const topology* topo, const customer_registry* customers,
                     evaluator_config config)
    : topo_(topo), customers_(customers), config_(config) {
    if (topo_ == nullptr || customers_ == nullptr) {
        throw skynet_error("evaluator: null topology or customer registry");
    }
}

location_id evaluator::root_id_of(const incident& inc) const {
    if (inc.root_id != invalid_location_id) return inc.root_id;
    return topo_->locations().intern(inc.root);
}

const std::vector<circuit_set_id>& evaluator::related_circuit_sets(const incident& inc) const {
    const location_id root = root_id_of(inc);
    if (const auto it = related_cache_.find(root); it != related_cache_.end()) {
        return it->second;
    }
    const location_table& table = topo_->locations();
    std::unordered_set<circuit_set_id> seen;
    std::vector<circuit_set_id> out;
    for (const circuit_set& cs : topo_->circuit_sets()) {
        const location_id la = topo_->device_at(cs.a).loc_id;
        const location_id lb = topo_->device_at(cs.b).loc_id;
        if (table.contains(root, la) || table.contains(root, lb)) {
            if (seen.insert(cs.id).second) out.push_back(cs.id);
        }
    }
    return related_cache_.emplace(root, std::move(out)).first->second;
}

severity_breakdown evaluator::evaluate(const incident& inc, const network_state& state,
                                       sim_time now) const {
    severity_breakdown s;
    const std::vector<circuit_set_id>& csets = related_circuit_sets(inc);
    s.circuit_sets = static_cast<int>(csets.size());

    // Equation 1: impact factor.
    double impact = 0.0;
    for (circuit_set_id cs : csets) {
        const double d = state.break_ratio(cs);
        const double l = state.sla_overload_ratio(cs);
        const double g = customers_->importance_factor(cs);
        const double u = static_cast<double>(customers_->customer_count(cs));
        impact += d * g * u + l * g * u;
    }
    s.impact_factor = std::max(1.0, impact);

    // Table 3 inputs for Equation 2.
    s.avg_ping_loss = inc.avg_failure_loss();
    s.max_sla_overload = state.max_sla_overload(csets);
    s.important_customers = customers_->important_customer_count(csets);
    const sim_time end = inc.closed ? inc.when.end : std::max(inc.when.end, now);
    s.duration = std::max<sim_duration>(0, end - inc.when.begin);

    // Equation 2: time factor. Duration is measured in seconds; the
    // sigmoid keeps small important-customer counts influential without
    // letting large ones run away.
    const double x = to_seconds(s.duration) + sigmoid(static_cast<double>(s.important_customers));
    s.time_factor = std::max(rate_log(s.avg_ping_loss, x, config_),
                             rate_log(s.max_sla_overload, x, config_));

    // Equation 3, with the Figure 10a display cap.
    s.score = std::min(config_.score_cap, s.impact_factor * s.time_factor);
    return s;
}

reachability_matrix evaluator::build_matrix(const incident& inc) const {
    // Matrix endpoints: every cluster seen as a probe endpoint in the
    // incident's end-to-end alerts, as interned ids (interning the path
    // for hand-built alerts carrying the sentinel).
    location_table& table = topo_->locations();
    const auto endpoint_id = [&table](const location& path, location_id id) {
        return id != invalid_location_id ? id : table.intern(path);
    };
    std::unordered_set<location_id> endpoint_set;
    for (const structured_alert& a : inc.alerts) {
        if (a.src_loc) endpoint_set.insert(endpoint_id(*a.src_loc, a.src_id));
        if (a.dst_loc) endpoint_set.insert(endpoint_id(*a.dst_loc, a.dst_id));
    }
    std::vector<location_id> endpoints(endpoint_set.begin(), endpoint_set.end());
    // Path order, not id order: focal_point() breaks score ties by
    // endpoint index, and the pre-interning behaviour sorted by path.
    std::sort(endpoints.begin(), endpoints.end(), [&table](location_id a, location_id b) {
        return table.path_of(a) < table.path_of(b);
    });
    reachability_matrix matrix(table, std::move(endpoints));
    for (const structured_alert& a : inc.alerts) {
        if (!a.src_loc || !a.dst_loc) continue;
        if (a.metric <= 0.0 || a.metric > 1.0) continue;
        matrix.record(endpoint_id(*a.src_loc, a.src_id), endpoint_id(*a.dst_loc, a.dst_id),
                      a.metric);
    }
    return matrix;
}

std::optional<location> evaluator::zoom_in(const incident& inc) const {
    const location_table& table = topo_->locations();
    const location_id root = root_id_of(inc);

    // 1. Reachability-matrix focal point.
    const reachability_matrix matrix = build_matrix(inc);
    if (matrix.size() >= 3) {
        if (const auto focal = matrix.focal_point()) {
            if (inc.root.contains(*focal) && *focal != inc.root) return focal;
        }
    }

    // 2. sFlow packet loss: all affected devices trace back to one node
    //    inside the incident tree.
    // 3. In-band telemetry rate discrepancies, same trace-back.
    for (const char* type_name : {"sflow packet loss", "rate discrepancy", "int packet loss"}) {
        std::optional<location_id> common;
        bool any = false;
        for (const structured_alert& a : inc.alerts) {
            if (a.type_name != type_name) continue;
            any = true;
            const location_id lid =
                a.loc_id != invalid_location_id ? a.loc_id : topo_->locations().intern(a.loc);
            common = common ? table.common_ancestor(*common, lid) : lid;
        }
        if (any && common && table.is_ancestor_of(root, *common)) return table.path_of(*common);
    }

    return std::nullopt;  // emergency procedures fall back to inc.root
}

}  // namespace skynet
