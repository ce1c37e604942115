// SkyNet engine facade: raw alert streams in, ranked incident reports out.
//
// Wires the three modules of Figure 5a together: the preprocessor
// normalizes and consolidates, the locator clusters alerts into incidents
// on the hierarchical tree, and the evaluator scores severity live while
// an incident is open (operations prioritize on the running score) and
// zooms in on the failure location.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "skynet/common/error.h"
#include "skynet/core/engine_metrics.h"
#include "skynet/core/evaluator.h"
#include "skynet/core/locator.h"
#include "skynet/core/preprocessor.h"
#include "skynet/sim/trace.h"

namespace skynet {

struct skynet_config {
    preprocessor_config pre{};
    locator_config loc{};
    evaluator_config eval{};

    /// Sanity-checks the settings (negative windows/timeouts, thresholds
    /// that can never fire, inverted rate bounds). Empty error = valid.
    [[nodiscard]] error validate() const;
};

/// One prepare_batch() result: per-alert classification outputs, index-
/// aligned with the batch they were prepared from, ready to be applied
/// by ingest_batch_prepared(). This is the unit of work the sharded
/// engine's thieves compute on behalf of a loaded peer.
struct prepared_batch {
    std::vector<prepared_alert> alerts;
};

/// A finished (or snapshot of an open) incident with its evaluation.
struct incident_report {
    incident inc;
    severity_breakdown severity;
    /// Refined location from zoom-in; nullopt when emergency procedures
    /// fall back to the incident root.
    std::optional<location> zoomed;
    /// True when the severity filter keeps this incident in the operator
    /// view (score >= threshold).
    bool actionable{false};

    /// Figure 6-style rendering with the risk score and zoomed location.
    [[nodiscard]] std::string render() const;
};

/// Global ranking used by every report view: most severe first, ties
/// broken by incident id so the order is stable across engines.
[[nodiscard]] inline bool report_before(const incident_report& a,
                                        const incident_report& b) noexcept {
    if (a.severity.score != b.severity.score) return a.severity.score > b.severity.score;
    return a.inc.id < b.inc.id;
}

class skynet_engine {
public:
    /// Construction dependencies; all non-owning. topo, customers and
    /// registry are required; syslog may be null (syslog alerts are then
    /// dropped as unclassified).
    struct deps {
        const topology* topo{nullptr};
        const customer_registry* customers{nullptr};
        const alert_type_registry* registry{nullptr};
        const syslog_classifier* syslog{nullptr};
    };

    /// Snapshot of everything the engine would lose in a crash: the
    /// preprocessor's consolidation buffers, the locator's trees, the
    /// live-score peaks and the not-yet-drained finished reports.
    /// Exported at a barrier (between tick() calls) and restored into a
    /// freshly constructed engine with the same deps and config; the
    /// restored engine's future outputs are bit-identical to the
    /// exporting one's. engine_metrics are observability, not state, and
    /// are deliberately not part of the snapshot.
    struct persist_state {
        preprocessor::persist_state pre;
        locator::persist_state loc;
        std::int64_t structured_count{0};
        /// Peak severity per open incident, sorted by incident id.
        std::vector<std::pair<std::uint64_t, severity_breakdown>> live_scores;
        std::vector<incident_report> finished;
    };

    explicit skynet_engine(deps d, skynet_config config = {});

    /// Exports the crash-relevant state; see persist_state.
    [[nodiscard]] persist_state export_state() const;

    /// Replaces the engine state with a previously exported snapshot.
    void import_state(persist_state state);

    /// Feeds one raw alert at its arrival time.
    void ingest(const raw_alert& raw, sim_time now);

    /// Feeds a batch that all arrived at `now` (e.g. one poll sweep).
    void ingest_batch(std::span<const raw_alert> batch, sim_time now);

    /// Feeds a batch with per-alert arrival times (e.g. one simulator
    /// tick's deliveries); equivalent to looping ingest() in order.
    void ingest_batch(std::span<const traced_alert> batch);

    /// The stateless half of ingest_batch() for stolen work: classifies
    /// every alert without touching engine state. Thread-safe (see
    /// preprocessor::prepare) — a thief worker may run it while the
    /// owner is ingesting other batches.
    [[nodiscard]] prepared_batch prepare_batch(std::span<const traced_alert> batch) const;

    /// Applies a prepare_batch() result; equivalent to
    /// ingest_batch(batch) byte-for-byte, with the classification work
    /// already paid. `prep` must be index-aligned with `batch`.
    void ingest_batch_prepared(std::span<const traced_alert> batch, prepared_batch&& prep);

    /// Periodic maintenance (call ~once per simulated tick): preprocessor
    /// flush, locator timeout checks, live severity evaluation of open
    /// incidents against `state`. Closed incidents move to the finished
    /// buffer.
    void tick(sim_time now, const network_state& state);

    /// Force-closes open incidents (end of an experiment episode).
    void finish(sim_time now, const network_state& state);

    /// Drains finished incident reports, ranked (severity desc, then
    /// incident id).
    [[nodiscard]] std::vector<incident_report> take_reports();

    /// Snapshot reports of currently open incidents (live ranking view),
    /// evaluated against `state` at `now` and ranked like take_reports().
    [[nodiscard]] std::vector<incident_report> open_reports(sim_time now,
                                                            const network_state& state) const;

    [[nodiscard]] const preprocessor_stats& preprocessing_stats() const noexcept {
        return pre_.stats();
    }
    [[nodiscard]] std::int64_t structured_alert_count() const noexcept { return structured_count_; }
    [[nodiscard]] const locator& tree() const noexcept { return locator_; }
    [[nodiscard]] const evaluator& scorer() const noexcept { return evaluator_; }
    /// Where the time goes: per-stage counters and latency histograms.
    [[nodiscard]] const engine_metrics& metrics() const noexcept { return metrics_; }
    /// Metrics as of the last barrier. For the sequential engine this is
    /// the same snapshot as metrics(); the name exists so generic callers
    /// (CLI --health-json) treat both engines uniformly — the sharded
    /// engine's barrier_metrics() is a cheap cached merge.
    [[nodiscard]] const engine_metrics& barrier_metrics() const noexcept { return metrics_; }
    /// Live alerts held across the preprocessor's consolidation buffers,
    /// the locator's main tree and the open incident trees: the memory-
    /// footprint proxy the storm-shedding bench tracks.
    [[nodiscard]] std::size_t live_alert_count() const noexcept {
        return pre_.pending_count() + locator_.stored_alert_count();
    }

private:
    void ingest_one_prepared(const raw_alert& raw, sim_time now, prepared_alert&& prep);
    [[nodiscard]] incident_report finalize(const incident& inc, sim_time now,
                                           const network_state& state);
    void sync_overload_counters() noexcept;

    preprocessor pre_;
    locator locator_;
    evaluator evaluator_;
    std::int64_t structured_count_{0};
    /// Best severity observed while each incident was open (scores decay
    /// once the underlying breakage heals; operations act on the peak).
    std::unordered_map<std::uint64_t, severity_breakdown> live_scores_;
    std::vector<incident_report> finished_;
    engine_metrics metrics_;
};

}  // namespace skynet
