#include "skynet/core/engine_metrics.h"

#include <cstdio>

namespace skynet {

double latency_histogram::percentile_us(double p) const noexcept {
    if (count_ == 0) return 0.0;
    if (p < 0.0) p = 0.0;
    if (p > 100.0) p = 100.0;
    const double target = p / 100.0 * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < bucket_count; ++b) {
        seen += buckets_[b];
        if (static_cast<double>(seen) >= target) {
            return static_cast<double>(std::uint64_t{1} << (b + 1)) / 1000.0;
        }
    }
    return static_cast<double>(max_ns_) / 1000.0;
}

latency_histogram& latency_histogram::operator+=(const latency_histogram& other) noexcept {
    for (std::size_t b = 0; b < bucket_count; ++b) buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
    if (other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
    return *this;
}

stage_metrics& stage_metrics::operator+=(const stage_metrics& other) noexcept {
    calls += other.calls;
    items += other.items;
    latency += other.latency;
    return *this;
}

engine_metrics& engine_metrics::operator+=(const engine_metrics& other) noexcept {
    preprocess += other.preprocess;
    locate += other.locate;
    evaluate += other.evaluate;
    degraded += other.degraded;
    recovery += other.recovery;
    overload += other.overload;
    steal += other.steal;
    federation += other.federation;
    lifecycle += other.lifecycle;
    alerts_in += other.alerts_in;
    batches_in += other.batches_in;
    ticks += other.ticks;
    reports_emitted += other.reports_emitted;
    enqueue_full_waits += other.enqueue_full_waits;
    if (other.max_queue_depth > max_queue_depth) max_queue_depth = other.max_queue_depth;
    busy_ns += other.busy_ns;
    return *this;
}

std::string engine_metrics::render() const {
    std::string out;
    char buf[192];
    auto stage_line = [&](const char* name, const stage_metrics& s) {
        std::snprintf(buf, sizeof buf,
                      "  %-10s %10llu calls %10llu items  mean %8.1fus  p99 %8.1fus  total %8.1fms\n",
                      name, static_cast<unsigned long long>(s.calls),
                      static_cast<unsigned long long>(s.items), s.latency.mean_us(),
                      s.latency.percentile_us(99.0),
                      static_cast<double>(s.latency.total_ns()) / 1e6);
        out += buf;
    };
    std::snprintf(buf, sizeof buf,
                  "engine metrics: %llu alerts in %llu batches, %llu ticks, %llu reports\n",
                  static_cast<unsigned long long>(alerts_in),
                  static_cast<unsigned long long>(batches_in),
                  static_cast<unsigned long long>(ticks),
                  static_cast<unsigned long long>(reports_emitted));
    out += buf;
    stage_line("preprocess", preprocess);
    stage_line("locate", locate);
    stage_line("evaluate", evaluate);
    if (busy_ns > 0 || enqueue_full_waits > 0 || max_queue_depth > 0) {
        std::snprintf(buf, sizeof buf,
                      "  queue: max depth %llu, full-queue waits %llu; worker busy %.1fms\n",
                      static_cast<unsigned long long>(max_queue_depth),
                      static_cast<unsigned long long>(enqueue_full_waits),
                      static_cast<double>(busy_ns) / 1e6);
        out += buf;
    }
    if (degraded.any()) {
        std::snprintf(buf, sizeof buf,
                      "  degraded: %llu rejected, %llu skew-clamped, %llu sources in dropout, "
                      "%llu dropped (failed shard), %llu log out-of-order, %llu sketched\n",
                      static_cast<unsigned long long>(degraded.alerts_rejected),
                      static_cast<unsigned long long>(degraded.skew_clamped),
                      static_cast<unsigned long long>(degraded.sources_in_dropout),
                      static_cast<unsigned long long>(degraded.alerts_dropped_failed_shard),
                      static_cast<unsigned long long>(degraded.log_out_of_order),
                      static_cast<unsigned long long>(degraded.sketched));
        out += buf;
    }
    if (recovery.any()) {
        std::snprintf(buf, sizeof buf,
                      "  recovery: %llu journal records (%llu flushes), %llu checkpoints; "
                      "%llu replayed, %llu tail bytes truncated, %llu snapshots skipped\n",
                      static_cast<unsigned long long>(recovery.journal_records_written),
                      static_cast<unsigned long long>(recovery.journal_flushes),
                      static_cast<unsigned long long>(recovery.checkpoints_written),
                      static_cast<unsigned long long>(recovery.records_replayed),
                      static_cast<unsigned long long>(recovery.truncated_tail_bytes),
                      static_cast<unsigned long long>(recovery.snapshots_skipped));
        out += buf;
    }
    if (overload.any()) {
        std::snprintf(buf, sizeof buf,
                      "  overload: %llu admitted, %llu shed (%llu dup, %llu other, %llu root-cause, "
                      "%llu failure), %llu quarantined\n",
                      static_cast<unsigned long long>(overload.admitted),
                      static_cast<unsigned long long>(overload.shed_total()),
                      static_cast<unsigned long long>(overload.shed_duplicate),
                      static_cast<unsigned long long>(overload.shed_other),
                      static_cast<unsigned long long>(overload.shed_root_cause),
                      static_cast<unsigned long long>(overload.shed_failure),
                      static_cast<unsigned long long>(overload.quarantined));
        out += buf;
        std::snprintf(buf, sizeof buf,
                      "            breaker %llu trips / %llu reopens / %llu closes (%llu probes); "
                      "watchdog %llu stalls, %llu recovered, %llu written off\n",
                      static_cast<unsigned long long>(overload.breaker_trips),
                      static_cast<unsigned long long>(overload.breaker_reopens),
                      static_cast<unsigned long long>(overload.breaker_closes),
                      static_cast<unsigned long long>(overload.probes_admitted),
                      static_cast<unsigned long long>(overload.stalls_detected),
                      static_cast<unsigned long long>(overload.stalls_recovered),
                      static_cast<unsigned long long>(overload.shards_written_off));
        out += buf;
        if (overload.evicted_node_alerts != 0 || overload.evicted_incidents != 0 ||
            overload.evicted_pending != 0) {
            std::snprintf(buf, sizeof buf,
                          "            evicted: %llu node alerts, %llu incidents, %llu pending\n",
                          static_cast<unsigned long long>(overload.evicted_node_alerts),
                          static_cast<unsigned long long>(overload.evicted_incidents),
                          static_cast<unsigned long long>(overload.evicted_pending));
            out += buf;
        }
    }
    if (steal.any()) {
        std::snprintf(buf, sizeof buf,
                      "  steal: %llu batches (%llu alerts) prepared by thieves; "
                      "%llu attempts, %llu misses, %llu owner waits, %llu parks\n",
                      static_cast<unsigned long long>(steal.batches_stolen),
                      static_cast<unsigned long long>(steal.alerts_stolen),
                      static_cast<unsigned long long>(steal.steal_attempts),
                      static_cast<unsigned long long>(steal.steal_misses),
                      static_cast<unsigned long long>(steal.owner_waits),
                      static_cast<unsigned long long>(steal.worker_parks));
        out += buf;
        std::snprintf(buf, sizeof buf,
                      "         thief prepare %.1fms; interning: %llu entries, "
                      "%llu contended locks\n",
                      static_cast<double>(steal.prepare_ns) / 1e6,
                      static_cast<unsigned long long>(steal.intern_entries),
                      static_cast<unsigned long long>(steal.intern_lock_contention));
        out += buf;
    }
    if (federation.any()) {
        std::snprintf(buf, sizeof buf,
                      "  federation: %llu digests emitted (%llu bytes, acked seq %llu); "
                      "%llu sessions ok, %llu failed, %llu retries\n",
                      static_cast<unsigned long long>(federation.digests_emitted),
                      static_cast<unsigned long long>(federation.digest_bytes),
                      static_cast<unsigned long long>(federation.acked_seq),
                      static_cast<unsigned long long>(federation.sessions_ok),
                      static_cast<unsigned long long>(federation.sessions_failed),
                      static_cast<unsigned long long>(federation.send_retries));
        out += buf;
        std::snprintf(buf, sizeof buf,
                      "              %llu applied, %llu duplicates dropped, %llu gaps; "
                      "regions %llu live / %llu lagging / %llu stale / %llu partitioned\n",
                      static_cast<unsigned long long>(federation.digests_applied),
                      static_cast<unsigned long long>(federation.duplicates_dropped),
                      static_cast<unsigned long long>(federation.gaps_detected),
                      static_cast<unsigned long long>(federation.regions_live),
                      static_cast<unsigned long long>(federation.regions_lagging),
                      static_cast<unsigned long long>(federation.regions_stale),
                      static_cast<unsigned long long>(federation.regions_partitioned));
        out += buf;
    }
    if (lifecycle.any()) {
        std::snprintf(buf, sizeof buf,
                      "  lifecycle: %llu lineages tracked, %llu recurrences linked, "
                      "%llu flapping, %llu re-alerts suppressed; "
                      "%llu auto-closed, %llu reopened, %llu diffs\n",
                      static_cast<unsigned long long>(lifecycle.tracked),
                      static_cast<unsigned long long>(lifecycle.recurrences_linked),
                      static_cast<unsigned long long>(lifecycle.flaps_collapsed),
                      static_cast<unsigned long long>(lifecycle.realerts_suppressed),
                      static_cast<unsigned long long>(lifecycle.auto_closed),
                      static_cast<unsigned long long>(lifecycle.reopened),
                      static_cast<unsigned long long>(lifecycle.diffs_emitted));
        out += buf;
    }
    return out;
}

std::string engine_metrics::to_json() const {
    std::string out;
    out.reserve(2048);
    char buf[160];
    auto u = [&](const char* key, std::uint64_t v, bool last = false) {
        std::snprintf(buf, sizeof buf, "\"%s\":%llu%s", key, static_cast<unsigned long long>(v),
                      last ? "" : ",");
        out += buf;
    };
    auto stage = [&](const char* name, const stage_metrics& s, bool last = false) {
        std::snprintf(buf, sizeof buf,
                      "\"%s\":{\"calls\":%llu,\"items\":%llu,\"mean_us\":%.3f,\"p99_us\":%.3f,"
                      "\"max_us\":%.3f,\"total_ms\":%.3f}%s",
                      name, static_cast<unsigned long long>(s.calls),
                      static_cast<unsigned long long>(s.items), s.latency.mean_us(),
                      s.latency.percentile_us(99.0),
                      static_cast<double>(s.latency.max_ns()) / 1000.0,
                      static_cast<double>(s.latency.total_ns()) / 1e6, last ? "" : ",");
        out += buf;
    };
    out += "{";
    u("alerts_in", alerts_in);
    u("batches_in", batches_in);
    u("ticks", ticks);
    u("reports_emitted", reports_emitted);
    out += "\"stages\":{";
    stage("preprocess", preprocess);
    stage("locate", locate);
    stage("evaluate", evaluate, true);
    out += "},\"queue\":{";
    u("max_depth", max_queue_depth);
    u("full_waits", enqueue_full_waits);
    u("busy_ns", busy_ns, true);
    out += "},\"degraded\":{";
    u("alerts_rejected", degraded.alerts_rejected);
    u("skew_clamped", degraded.skew_clamped);
    u("sources_in_dropout", degraded.sources_in_dropout);
    u("alerts_dropped_failed_shard", degraded.alerts_dropped_failed_shard);
    u("log_out_of_order", degraded.log_out_of_order);
    u("sketched", degraded.sketched, true);
    out += "},\"recovery\":{";
    u("journal_records_written", recovery.journal_records_written);
    u("journal_flushes", recovery.journal_flushes);
    u("checkpoints_written", recovery.checkpoints_written);
    u("records_replayed", recovery.records_replayed);
    u("truncated_tail_bytes", recovery.truncated_tail_bytes);
    u("snapshots_skipped", recovery.snapshots_skipped, true);
    out += "},\"overload\":{";
    u("admitted", overload.admitted);
    u("shed_duplicate", overload.shed_duplicate);
    u("shed_other", overload.shed_other);
    u("shed_root_cause", overload.shed_root_cause);
    u("shed_failure", overload.shed_failure);
    u("shed_bytes", overload.shed_bytes);
    u("breaker_trips", overload.breaker_trips);
    u("breaker_reopens", overload.breaker_reopens);
    u("breaker_closes", overload.breaker_closes);
    u("quarantined", overload.quarantined);
    u("probes_admitted", overload.probes_admitted);
    u("stalls_detected", overload.stalls_detected);
    u("stalls_recovered", overload.stalls_recovered);
    u("shards_written_off", overload.shards_written_off);
    u("evicted_node_alerts", overload.evicted_node_alerts);
    u("evicted_incidents", overload.evicted_incidents);
    u("evicted_pending", overload.evicted_pending, true);
    out += "},\"steal\":{";
    u("batches_stolen", steal.batches_stolen);
    u("alerts_stolen", steal.alerts_stolen);
    u("steal_attempts", steal.steal_attempts);
    u("steal_misses", steal.steal_misses);
    u("owner_waits", steal.owner_waits);
    u("worker_parks", steal.worker_parks);
    u("prepare_ns", steal.prepare_ns);
    u("intern_lock_contention", steal.intern_lock_contention);
    u("intern_entries", steal.intern_entries, true);
    out += "},\"federation\":{";
    u("digests_emitted", federation.digests_emitted);
    u("digest_bytes", federation.digest_bytes);
    u("acked_seq", federation.acked_seq);
    u("sessions_ok", federation.sessions_ok);
    u("sessions_failed", federation.sessions_failed);
    u("send_retries", federation.send_retries);
    u("digests_applied", federation.digests_applied);
    u("duplicates_dropped", federation.duplicates_dropped);
    u("gaps_detected", federation.gaps_detected);
    u("regions_live", federation.regions_live);
    u("regions_lagging", federation.regions_lagging);
    u("regions_stale", federation.regions_stale);
    u("regions_partitioned", federation.regions_partitioned, true);
    out += "},\"lifecycle\":{";
    u("tracked", lifecycle.tracked);
    u("recurrences_linked", lifecycle.recurrences_linked);
    u("flaps_collapsed", lifecycle.flaps_collapsed);
    u("realerts_suppressed", lifecycle.realerts_suppressed);
    u("auto_closed", lifecycle.auto_closed);
    u("reopened", lifecycle.reopened);
    u("diffs_emitted", lifecycle.diffs_emitted, true);
    out += "}}";
    return out;
}

}  // namespace skynet
