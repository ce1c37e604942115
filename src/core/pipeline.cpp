#include "skynet/core/pipeline.h"

#include <algorithm>
#include <cstdio>

namespace skynet {

error skynet_config::validate() const {
    if (pre.dedup_window < 0) return error("preprocessor: negative dedup_window");
    if (pre.persistence_window < 0) return error("preprocessor: negative persistence_window");
    if (pre.correlation_window < 0) return error("preprocessor: negative correlation_window");
    if (pre.persistence_threshold < 0) {
        return error("preprocessor: negative persistence_threshold");
    }
    if (const char* msg = pre.sketch.check()) {
        return error(std::string("preprocessor: ") + msg);
    }
    if (loc.node_timeout <= 0) return error("locator: node_timeout must be positive");
    if (loc.incident_timeout <= 0) return error("locator: incident_timeout must be positive");
    const incident_thresholds& t = loc.thresholds;
    if (t.pure_failure < 0 || t.combo_failure < 0 || t.combo_other < 0 || t.any < 0) {
        return error("locator: negative incident threshold");
    }
    if (t.pure_failure == 0 && t.any == 0 && (t.combo_failure == 0 || t.combo_other == 0)) {
        return error("locator: all-zero incident thresholds can never fire");
    }
    if (eval.severity_threshold < 0) return error("evaluator: negative severity_threshold");
    if (eval.score_cap <= 0) return error("evaluator: score_cap must be positive");
    if (eval.min_rate <= 0 || eval.max_rate >= 1.0 || eval.min_rate >= eval.max_rate) {
        return error("evaluator: rate bounds must satisfy 0 < min_rate < max_rate < 1");
    }
    return error{};
}

std::string incident_report::render() const {
    std::string out = inc.render();
    char buf[128];
    std::snprintf(buf, sizeof buf, "Risk score: %.1f%s\n", severity.score,
                  actionable ? "" : " (below threshold, filtered)");
    out += buf;
    if (zoomed) {
        out += "Zoomed location: " + zoomed->to_string() + "\n";
    }
    return out;
}

skynet_engine::skynet_engine(deps d, skynet_config config)
    : pre_(d.topo, d.registry, d.syslog, config.pre),
      locator_(d.topo, config.loc),
      evaluator_(d.topo, d.customers, config.eval) {
    if (error e = config.validate()) throw skynet_error("skynet_engine: " + e.message());
}

skynet_engine::persist_state skynet_engine::export_state() const {
    persist_state state;
    state.pre = pre_.export_state();
    state.loc = locator_.export_state();
    state.structured_count = structured_count_;
    state.live_scores.assign(live_scores_.begin(), live_scores_.end());
    std::sort(state.live_scores.begin(), state.live_scores.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    state.finished = finished_;
    return state;
}

void skynet_engine::import_state(persist_state state) {
    pre_.import_state(std::move(state.pre));
    locator_.import_state(std::move(state.loc));
    structured_count_ = state.structured_count;
    live_scores_.clear();
    live_scores_.insert(state.live_scores.begin(), state.live_scores.end());
    finished_ = std::move(state.finished);
}

void skynet_engine::ingest(const raw_alert& raw, sim_time now) {
    ++metrics_.alerts_in;
    stage_timer pre(metrics_.preprocess);
    std::vector<preprocess_event> events = pre_.process(raw, now);
    pre.stop(1);
    // Snapshot (not increment): the preprocessor owns the running counts.
    metrics_.degraded.alerts_rejected =
        static_cast<std::uint64_t>(pre_.stats().rejected_malformed);
    metrics_.degraded.skew_clamped = static_cast<std::uint64_t>(pre_.stats().skew_clamped);
    sync_overload_counters();

    stage_timer locate(metrics_.locate);
    for (preprocess_event& ev : events) {
        ++structured_count_;
        if (ev.is_update) {
            locator_.refresh(ev.alert, now);
        } else {
            locator_.insert(ev.alert, now);
        }
    }
    locate.stop(events.size());
}

void skynet_engine::ingest_batch(std::span<const raw_alert> batch, sim_time now) {
    ++metrics_.batches_in;
    for (const raw_alert& raw : batch) ingest(raw, now);
}

void skynet_engine::ingest_batch(std::span<const traced_alert> batch) {
    ++metrics_.batches_in;
    for (const traced_alert& t : batch) ingest(t.alert, t.arrival);
}

prepared_batch skynet_engine::prepare_batch(std::span<const traced_alert> batch) const {
    prepared_batch out;
    out.alerts.reserve(batch.size());
    for (const traced_alert& t : batch) out.alerts.push_back(pre_.prepare(t.alert, t.arrival));
    return out;
}

void skynet_engine::ingest_batch_prepared(std::span<const traced_alert> batch,
                                          prepared_batch&& prep) {
    if (prep.alerts.size() != batch.size())
        throw skynet_error("ingest_batch_prepared: misaligned prepared batch");
    ++metrics_.batches_in;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ingest_one_prepared(batch[i].alert, batch[i].arrival, std::move(prep.alerts[i]));
    }
}

void skynet_engine::ingest_one_prepared(const raw_alert& raw, sim_time now,
                                        prepared_alert&& prep) {
    ++metrics_.alerts_in;
    stage_timer pre(metrics_.preprocess);
    std::vector<preprocess_event> events = pre_.apply_prepared(raw, now, std::move(prep));
    pre.stop(1);
    // Snapshot (not increment): the preprocessor owns the running counts.
    metrics_.degraded.alerts_rejected =
        static_cast<std::uint64_t>(pre_.stats().rejected_malformed);
    metrics_.degraded.skew_clamped = static_cast<std::uint64_t>(pre_.stats().skew_clamped);
    sync_overload_counters();

    stage_timer locate(metrics_.locate);
    for (preprocess_event& ev : events) {
        ++structured_count_;
        if (ev.is_update) {
            locator_.refresh(ev.alert, now);
        } else {
            locator_.insert(ev.alert, now);
        }
    }
    locate.stop(events.size());
}

void skynet_engine::tick(sim_time now, const network_state& state) {
    ++metrics_.ticks;
    stage_timer pre(metrics_.preprocess);
    std::vector<preprocess_event> events = pre_.flush(now);
    pre.stop(events.size());

    stage_timer locate(metrics_.locate);
    for (preprocess_event& ev : events) {
        ++structured_count_;
        if (ev.is_update) {
            locator_.refresh(ev.alert, now);
        } else {
            locator_.insert(ev.alert, now);
        }
    }
    std::vector<incident> closed = locator_.check(now);
    locate.stop(events.size());
    sync_overload_counters();

    stage_timer eval(metrics_.evaluate);
    std::uint64_t evaluated = 0;
    for (incident& done : closed) {
        finished_.push_back(finalize(done, now, state));
        ++metrics_.reports_emitted;
        ++evaluated;
    }

    // Live severity: keep the peak score seen while open.
    for (const incident& open : locator_.open_incidents()) {
        const severity_breakdown s = evaluator_.evaluate(open, state, now);
        auto [it, inserted] = live_scores_.try_emplace(open.id, s);
        if (!inserted && s.score > it->second.score) it->second = s;
        ++evaluated;
    }
    eval.stop(evaluated);
}

void skynet_engine::finish(sim_time now, const network_state& state) {
    tick(now, state);
    stage_timer eval(metrics_.evaluate);
    std::uint64_t evaluated = 0;
    for (incident& closed : locator_.drain(now)) {
        finished_.push_back(finalize(closed, now, state));
        ++metrics_.reports_emitted;
        ++evaluated;
    }
    eval.stop(evaluated);
}

void skynet_engine::sync_overload_counters() noexcept {
    // Snapshot (not increment): the cap owners keep the running counts.
    metrics_.overload.evicted_pending = pre_.evicted_pending();
    metrics_.overload.evicted_node_alerts = locator_.evicted_node_alerts();
    metrics_.overload.evicted_incidents = locator_.evicted_incidents();
    metrics_.degraded.sketched = pre_.sketched_counts();
}

incident_report skynet_engine::finalize(const incident& inc, sim_time now,
                                        const network_state& state) {
    incident_report report;
    report.inc = inc;
    report.severity = evaluator_.evaluate(inc, state, now);
    if (const auto it = live_scores_.find(inc.id); it != live_scores_.end()) {
        if (it->second.score > report.severity.score) report.severity = it->second;
        live_scores_.erase(it);
    }
    report.zoomed = evaluator_.zoom_in(inc);
    report.actionable = evaluator_.passes_filter(report.severity);
    return report;
}

std::vector<incident_report> skynet_engine::take_reports() {
    std::vector<incident_report> out = std::move(finished_);
    finished_.clear();
    std::sort(out.begin(), out.end(), report_before);
    return out;
}

std::vector<incident_report> skynet_engine::open_reports(sim_time now,
                                                         const network_state& state) const {
    std::vector<incident_report> out;
    std::vector<incident> open = locator_.open_incidents();
    out.reserve(open.size());
    for (incident& inc : open) {
        incident_report report;
        report.severity = evaluator_.evaluate(inc, state, now);
        if (const auto it = live_scores_.find(inc.id); it != live_scores_.end()) {
            if (it->second.score > report.severity.score) report.severity = it->second;
        }
        report.zoomed = evaluator_.zoom_in(inc);
        report.actionable = evaluator_.passes_filter(report.severity);
        report.inc = std::move(inc);
        out.push_back(std::move(report));
    }
    // Ranked view: most severe first (the paper's incident ranking).
    std::sort(out.begin(), out.end(), report_before);
    return out;
}

}  // namespace skynet
