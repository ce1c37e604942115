// Engine observability: per-stage counters and latency histograms.
//
// Both the sequential skynet_engine and the region-sharded engine expose
// an engine_metrics snapshot so benches and the CLI can report where the
// time goes — preprocessing vs. locating vs. evaluation — plus, for the
// sharded engine, queue backpressure and per-shard utilization. Metrics
// use the wall clock and never feed back into the simulated pipeline, so
// they cannot perturb results.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace skynet {

/// Log2-bucketed latency histogram over nanoseconds: bucket i counts
/// samples in [2^i, 2^(i+1)). Fixed memory, allocation-free record path.
class latency_histogram {
public:
    static constexpr std::size_t bucket_count = 40;  // up to ~2^40 ns ≈ 18 min

    void record(std::uint64_t ns) noexcept {
        std::size_t b = 0;
        while ((ns >> (b + 1)) != 0 && b + 1 < bucket_count) ++b;
        ++buckets_[b];
        ++count_;
        sum_ns_ += ns;
        if (ns > max_ns_) max_ns_ = ns;
    }

    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] std::uint64_t total_ns() const noexcept { return sum_ns_; }
    [[nodiscard]] std::uint64_t max_ns() const noexcept { return max_ns_; }
    [[nodiscard]] double mean_us() const noexcept {
        return count_ == 0 ? 0.0 : static_cast<double>(sum_ns_) / (1000.0 * count_);
    }
    /// Approximate percentile (upper bound of the containing bucket), in
    /// microseconds. p in [0, 100].
    [[nodiscard]] double percentile_us(double p) const noexcept;

    latency_histogram& operator+=(const latency_histogram& other) noexcept;

private:
    std::array<std::uint64_t, bucket_count> buckets_{};
    std::uint64_t count_{0};
    std::uint64_t sum_ns_{0};
    std::uint64_t max_ns_{0};
};

/// One pipeline stage (preprocess / locate / evaluate).
struct stage_metrics {
    std::uint64_t calls{0};
    /// Units the stage consumed or produced (alerts, incidents, ...).
    std::uint64_t items{0};
    latency_histogram latency;

    stage_metrics& operator+=(const stage_metrics& other) noexcept;
};

/// Graceful-degradation counters: what the pipeline shed, clamped, or
/// refused instead of crashing or silently corrupting reports. Rendered
/// by --metrics; the fault-injection suite asserts every injected
/// pathology lands in exactly one of these.
struct degraded_metrics {
    std::uint64_t alerts_rejected{0};     ///< malformed input refused with a reason
    std::uint64_t skew_clamped{0};        ///< future timestamps clamped to arrival
    std::uint64_t sources_in_dropout{0};  ///< distinct sources seen dark (fault layer)
    /// Ingest alerts drained unexecuted on a shard whose worker failed.
    std::uint64_t alerts_dropped_failed_shard{0};
    /// Incident-log appends that broke the close-order invariant: the
    /// history query silently degraded from a binary-searched start to a
    /// full linear scan (see incident_log::out_of_order_appends()).
    std::uint64_t log_out_of_order{0};
    /// Counting decisions served by the count-min sketch instead of an
    /// exact table (preprocessor consolidation past the cardinality
    /// threshold, overload-guard dedup past it). Nonzero means counts in
    /// the current window may be overestimates — never underestimates.
    std::uint64_t sketched{0};

    [[nodiscard]] bool any() const noexcept {
        return alerts_rejected != 0 || skew_clamped != 0 || sources_in_dropout != 0 ||
               alerts_dropped_failed_shard != 0 || log_out_of_order != 0 || sketched != 0;
    }

    degraded_metrics& operator+=(const degraded_metrics& other) noexcept {
        alerts_rejected += other.alerts_rejected;
        skew_clamped += other.skew_clamped;
        sources_in_dropout += other.sources_in_dropout;
        alerts_dropped_failed_shard += other.alerts_dropped_failed_shard;
        log_out_of_order += other.log_out_of_order;
        sketched += other.sketched;
        return *this;
    }
};

/// Durability accounting: what the persist subsystem wrote, replayed,
/// skipped or truncated. Zero everywhere when durability is off; a
/// recovery that had to degrade (torn journal tail, corrupt snapshot)
/// shows up here instead of as a crash.
struct recovery_metrics {
    std::uint64_t journal_records_written{0};  ///< batch + barrier records appended
    std::uint64_t journal_flushes{0};          ///< fsync-grade flush calls
    std::uint64_t checkpoints_written{0};      ///< snapshot files persisted
    std::uint64_t records_replayed{0};         ///< journal records re-applied on recover
    std::uint64_t truncated_tail_bytes{0};     ///< torn journal tail dropped on recover
    std::uint64_t snapshots_skipped{0};        ///< corrupt/stale snapshots passed over

    [[nodiscard]] bool any() const noexcept {
        return journal_records_written != 0 || journal_flushes != 0 ||
               checkpoints_written != 0 || records_replayed != 0 || truncated_tail_bytes != 0 ||
               snapshots_skipped != 0;
    }

    recovery_metrics& operator+=(const recovery_metrics& other) noexcept {
        journal_records_written += other.journal_records_written;
        journal_flushes += other.journal_flushes;
        checkpoints_written += other.checkpoints_written;
        records_replayed += other.records_replayed;
        truncated_tail_bytes += other.truncated_tail_bytes;
        snapshots_skipped += other.snapshots_skipped;
        return *this;
    }
};

/// Overload-control accounting: what the admission guard shed, the
/// per-source circuit breakers quarantined, the shard watchdog recovered
/// or wrote off, and the bounded-memory caps evicted. All zero when the
/// overload layer is disabled (the default).
struct overload_metrics {
    std::uint64_t admitted{0};            ///< alerts passed by the admission guard
    std::uint64_t shed_duplicate{0};      ///< shed first: in-window duplicates
    std::uint64_t shed_other{0};          ///< shed second: abnormal/unclassified
    std::uint64_t shed_root_cause{0};     ///< shed third: root-cause alerts
    std::uint64_t shed_failure{0};        ///< shed last: failure alerts
    std::uint64_t shed_bytes{0};          ///< approximate payload bytes shed
    std::uint64_t breaker_trips{0};       ///< closed -> open transitions
    std::uint64_t breaker_reopens{0};     ///< half-open probe failed, reopened
    std::uint64_t breaker_closes{0};      ///< half-open probes clean, re-closed
    std::uint64_t quarantined{0};         ///< alerts refused by an open breaker
    std::uint64_t probes_admitted{0};     ///< half-open probe alerts let through
    std::uint64_t stalls_detected{0};     ///< watchdog deadline expiries
    std::uint64_t stalls_recovered{0};    ///< stalled shards resumed, work intact
    std::uint64_t shards_written_off{0};  ///< wedged shards declared failed
    std::uint64_t evicted_node_alerts{0};  ///< locator per-node cap evictions
    std::uint64_t evicted_incidents{0};    ///< open-incident cap force-closes
    std::uint64_t evicted_pending{0};      ///< preprocessor pending-state evictions

    [[nodiscard]] std::uint64_t shed_total() const noexcept {
        return shed_duplicate + shed_other + shed_root_cause + shed_failure;
    }

    [[nodiscard]] bool any() const noexcept {
        return admitted != 0 || shed_total() != 0 || shed_bytes != 0 || breaker_trips != 0 ||
               breaker_reopens != 0 || breaker_closes != 0 || quarantined != 0 ||
               probes_admitted != 0 || stalls_detected != 0 || stalls_recovered != 0 ||
               shards_written_off != 0 || evicted_node_alerts != 0 || evicted_incidents != 0 ||
               evicted_pending != 0;
    }

    overload_metrics& operator+=(const overload_metrics& other) noexcept {
        admitted += other.admitted;
        shed_duplicate += other.shed_duplicate;
        shed_other += other.shed_other;
        shed_root_cause += other.shed_root_cause;
        shed_failure += other.shed_failure;
        shed_bytes += other.shed_bytes;
        breaker_trips += other.breaker_trips;
        breaker_reopens += other.breaker_reopens;
        breaker_closes += other.breaker_closes;
        quarantined += other.quarantined;
        probes_admitted += other.probes_admitted;
        stalls_detected += other.stalls_detected;
        stalls_recovered += other.stalls_recovered;
        shards_written_off += other.shards_written_off;
        evicted_node_alerts += other.evicted_node_alerts;
        evicted_incidents += other.evicted_incidents;
        evicted_pending += other.evicted_pending;
        return *this;
    }
};

/// Work-stealing + lock-free-interning accounting for the sharded
/// engine: how often idle workers prepared batches for loaded peers, how
/// often owners had to wait on a thief, and how contended the
/// location_table's stripes were. All zero for the sequential engine
/// and when stealing is disabled (--steal off).
struct steal_metrics {
    std::uint64_t batches_stolen{0};   ///< batches a thief prepared for a peer
    std::uint64_t alerts_stolen{0};    ///< alerts inside those batches
    std::uint64_t steal_attempts{0};   ///< idle-worker scans of peer boards
    std::uint64_t steal_misses{0};     ///< scans that found nothing stealable
    std::uint64_t owner_waits{0};      ///< owner reached a batch still being prepared
    std::uint64_t worker_parks{0};     ///< idle workers that went to sleep
    std::uint64_t prepare_ns{0};       ///< thief time spent preparing stolen work
    /// Gauges sampled at the barrier, not counters (merged by max).
    std::uint64_t intern_lock_contention{0};  ///< location_table contended locks
    std::uint64_t intern_entries{0};          ///< interned location count

    [[nodiscard]] bool any() const noexcept {
        return batches_stolen != 0 || alerts_stolen != 0 || steal_attempts != 0 ||
               steal_misses != 0 || owner_waits != 0 || worker_parks != 0 || prepare_ns != 0 ||
               intern_lock_contention != 0 || intern_entries != 0;
    }

    steal_metrics& operator+=(const steal_metrics& other) noexcept {
        batches_stolen += other.batches_stolen;
        alerts_stolen += other.alerts_stolen;
        steal_attempts += other.steal_attempts;
        steal_misses += other.steal_misses;
        owner_waits += other.owner_waits;
        worker_parks += other.worker_parks;
        prepare_ns += other.prepare_ns;
        if (other.intern_lock_contention > intern_lock_contention)
            intern_lock_contention = other.intern_lock_contention;
        if (other.intern_entries > intern_entries) intern_entries = other.intern_entries;
        return *this;
    }
};

/// Federation accounting: the emitter side counts digests leaving a
/// region, the aggregator side counts digests merging into the global
/// view. A process is one or the other, so each health report naturally
/// renders only its own half; the merged struct carries both so the
/// /v1/health JSON shape is identical everywhere.
struct federation_metrics {
    // Emitter side (per-region daemon with --federate emit:).
    std::uint64_t digests_emitted{0};  ///< digests published (journal + queue)
    std::uint64_t digest_bytes{0};     ///< framed digest bytes published
    std::uint64_t sessions_ok{0};      ///< emitter sessions acked by the aggregator
    std::uint64_t sessions_failed{0};  ///< sessions that died before the ack
    std::uint64_t send_retries{0};     ///< backoff retries across all sessions
    /// Highest digest sequence the aggregator has acked (gauge, max-merge).
    std::uint64_t acked_seq{0};
    // Aggregator side (--federate aggregate:).
    std::uint64_t digests_applied{0};     ///< digests merged into the global view
    std::uint64_t duplicates_dropped{0};  ///< re-sent digests skipped by seq gating
    std::uint64_t gaps_detected{0};       ///< missing sequence numbers observed
    /// Region-health gauges sampled at query time (merged by max).
    std::uint64_t regions_live{0};
    std::uint64_t regions_lagging{0};
    std::uint64_t regions_stale{0};
    std::uint64_t regions_partitioned{0};

    [[nodiscard]] bool any() const noexcept {
        return digests_emitted != 0 || digest_bytes != 0 || sessions_ok != 0 ||
               sessions_failed != 0 || send_retries != 0 || acked_seq != 0 ||
               digests_applied != 0 || duplicates_dropped != 0 || gaps_detected != 0 ||
               regions_live != 0 || regions_lagging != 0 || regions_stale != 0 ||
               regions_partitioned != 0;
    }

    federation_metrics& operator+=(const federation_metrics& other) noexcept {
        digests_emitted += other.digests_emitted;
        digest_bytes += other.digest_bytes;
        sessions_ok += other.sessions_ok;
        sessions_failed += other.sessions_failed;
        send_retries += other.send_retries;
        if (other.acked_seq > acked_seq) acked_seq = other.acked_seq;
        digests_applied += other.digests_applied;
        duplicates_dropped += other.duplicates_dropped;
        gaps_detected += other.gaps_detected;
        if (other.regions_live > regions_live) regions_live = other.regions_live;
        if (other.regions_lagging > regions_lagging) regions_lagging = other.regions_lagging;
        if (other.regions_stale > regions_stale) regions_stale = other.regions_stale;
        if (other.regions_partitioned > regions_partitioned)
            regions_partitioned = other.regions_partitioned;
        return *this;
    }
};

/// Incident life-cycle accounting: what the lifecycle manager linked,
/// collapsed, suppressed, auto-closed, and re-opened on top of the raw
/// detection stream. All zero when the lifecycle layer is disabled (the
/// default).
struct lifecycle_metrics {
    std::uint64_t tracked{0};              ///< lineages (managed incidents) created
    std::uint64_t recurrences_linked{0};   ///< incidents linked to a prior lineage
    std::uint64_t flaps_collapsed{0};      ///< lineages that crossed the flap threshold
    std::uint64_t realerts_suppressed{0};  ///< re-alerts swallowed while flapping
    std::uint64_t auto_closed{0};          ///< quiet + healthy early closes
    std::uint64_t reopened{0};             ///< auto-closed lineages that recurred
    std::uint64_t diffs_emitted{0};        ///< non-empty barrier diffs produced

    [[nodiscard]] bool any() const noexcept {
        return tracked != 0 || recurrences_linked != 0 || flaps_collapsed != 0 ||
               realerts_suppressed != 0 || auto_closed != 0 || reopened != 0 ||
               diffs_emitted != 0;
    }

    lifecycle_metrics& operator+=(const lifecycle_metrics& other) noexcept {
        tracked += other.tracked;
        recurrences_linked += other.recurrences_linked;
        flaps_collapsed += other.flaps_collapsed;
        realerts_suppressed += other.realerts_suppressed;
        auto_closed += other.auto_closed;
        reopened += other.reopened;
        diffs_emitted += other.diffs_emitted;
        return *this;
    }
};

struct engine_metrics {
    stage_metrics preprocess;  ///< raw -> structured conversion + flush
    stage_metrics locate;      ///< main-tree insert/refresh + incident checks
    stage_metrics evaluate;    ///< severity scoring + zoom-in
    degraded_metrics degraded;  ///< graceful-degradation accounting
    recovery_metrics recovery;  ///< durability / crash-recovery accounting
    overload_metrics overload;  ///< overload-control accounting
    steal_metrics steal;        ///< work-stealing / interning accounting
    federation_metrics federation;  ///< multi-region digest streaming accounting
    lifecycle_metrics lifecycle;    ///< incident life-cycle accounting
    std::uint64_t alerts_in{0};
    std::uint64_t batches_in{0};
    std::uint64_t ticks{0};
    std::uint64_t reports_emitted{0};
    // Sharded-engine extras; zero for the sequential engine.
    std::uint64_t enqueue_full_waits{0};  ///< producer stalls on a full queue
    std::uint64_t max_queue_depth{0};     ///< deepest command backlog sampled
    std::uint64_t busy_ns{0};             ///< worker time spent executing commands

    engine_metrics& operator+=(const engine_metrics& other) noexcept;
    /// Multi-line human-readable summary (CLI --metrics, bench logs).
    [[nodiscard]] std::string render() const;
    /// Machine-readable health report: one JSON object covering the
    /// per-stage, degraded, recovery, and overload blocks. Written by the
    /// CLI's --health-json at every tick barrier.
    [[nodiscard]] std::string to_json() const;
};

/// Tiny scope timer feeding a stage: construct, do the work, stop().
class stage_timer {
public:
    explicit stage_timer(stage_metrics& stage) noexcept
        : stage_(&stage), start_(std::chrono::steady_clock::now()) {}

    /// Records elapsed time plus `items` processed; one call per stage.
    void stop(std::uint64_t items = 0) noexcept {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
        ++stage_->calls;
        stage_->items += items;
        stage_->latency.record(static_cast<std::uint64_t>(ns));
    }

private:
    stage_metrics* stage_;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace skynet
