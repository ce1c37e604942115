// The evaluator (§4.3): incident severity and location zoom-in.
//
// Severity y_k = I_k * T_k (Equations 1-3):
//   I_k = max(1, sum_i d_i*g_i*u_i + sum_j l_j*g_j*u_j)   — impact factor
//   T_k = max(log_{1/R_k}(dT_k + Sig(U_k)),
//             log_{1/L_k}(dT_k + Sig(U_k)))               — time factor
// with the Table 3 symbols: d_i circuit-set break ratio, l_i SLA-overload
// ratio, g_i customer importance, u_i customer count, R_k mean ping loss,
// L_k max SLA overshoot, dT_k incident duration, U_k important customers.
//
// Location zoom-in refines the incident location through behaviour
// monitors: the reachability-matrix focal point, sFlow loss trace-back,
// and INT rate discrepancies.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "skynet/core/locator.h"
#include "skynet/sim/network_state.h"
#include "skynet/telemetry/reachability.h"

namespace skynet {

struct evaluator_config {
    /// Incidents scoring below this are filtered from the operator view
    /// (§6.4: threshold 10 cuts incident volume ~2 orders of magnitude
    /// with zero false negatives).
    double severity_threshold = 10.0;
    /// Display cap (Figure 10a caps at 100).
    double score_cap = 100.0;
    /// Floors/ceilings keeping the log bases meaningful.
    double min_rate = 1e-4;
    double max_rate = 0.99;
};

/// Full severity decomposition for one incident (Table 3 inputs echoed
/// back for the report).
struct severity_breakdown {
    double impact_factor{1.0};   // I_k
    double time_factor{0.0};     // T_k
    double score{0.0};           // y_k = I_k * T_k (capped)
    double avg_ping_loss{0.0};   // R_k
    double max_sla_overload{0.0};  // L_k
    int important_customers{0};  // U_k
    sim_duration duration{0};    // dT_k
    int circuit_sets{0};         // N
};

class evaluator {
public:
    evaluator(const topology* topo, const customer_registry* customers,
              evaluator_config config = {});

    /// Circuit sets related to an incident: sets with at least one
    /// endpoint device under the incident root. The list lives in the
    /// evaluator's memo and stays valid as long as the evaluator.
    [[nodiscard]] const std::vector<circuit_set_id>& related_circuit_sets(
        const incident& inc) const;

    /// Computes y_k against the frozen network state; `now` supplies the
    /// duration for still-open incidents.
    [[nodiscard]] severity_breakdown evaluate(const incident& inc, const network_state& state,
                                              sim_time now) const;

    [[nodiscard]] bool passes_filter(const severity_breakdown& s) const noexcept {
        return s.score >= config_.severity_threshold;
    }

    /// Builds the Figure 7 reachability matrix from the incident's
    /// end-to-end alerts (cluster granularity).
    [[nodiscard]] reachability_matrix build_matrix(const incident& inc) const;

    /// Location zoom-in (§4.3). Tries, in order: the reachability-matrix
    /// focal point; sFlow loss trace-back to a common node; INT rate
    /// discrepancies. Returns the refined location, or nullopt when the
    /// general incident location stands.
    [[nodiscard]] std::optional<location> zoom_in(const incident& inc) const;

    [[nodiscard]] const evaluator_config& config() const noexcept { return config_; }

private:
    /// The incident root's interned id; interns the root path for
    /// hand-built incidents that carry the sentinel.
    [[nodiscard]] location_id root_id_of(const incident& inc) const;

    const topology* topo_;
    const customer_registry* customers_;
    evaluator_config config_;
    /// related_circuit_sets depends only on the incident root (the
    /// topology is immutable), and live scoring re-evaluates every open
    /// incident each tick — memoizing by the root's interned id turns
    /// the per-evaluation full circuit-set scan into an integer-keyed
    /// hash lookup. Node-based, so the lists it hands out survive inserts.
    mutable std::unordered_map<location_id, std::vector<circuit_set_id>> related_cache_;
};

}  // namespace skynet
