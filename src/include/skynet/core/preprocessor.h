// The preprocessor (§4.1).
//
// Converts the twelve heterogeneous raw-alert streams into the uniform
// structured format (type, category, time range, hierarchy location) and
// fights the volume problem with three consolidation methods:
//   1. identical alerts   — same (type, location) within a window merge
//      into one alert whose time range and count grow;
//   2. single-source      — sporadic probe blips are held until they
//      persist; related traffic anomalies at adjacent locations merge;
//   3. cross-source       — a traffic drop alone is expected behaviour;
//      it is emitted (as "abnormal traffic decline") only when a failure
//      or root-cause alert corroborates it nearby, otherwise discarded.
// Syslog free text is classified to a type via the FT-tree classifier;
// link alerts are split onto both endpoint devices.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "skynet/alert/type_registry.h"
#include "skynet/sketch/counting.h"
#include "skynet/syslog/classifier.h"
#include "skynet/syslog/template_miner.h"
#include "skynet/topology/topology.h"

namespace skynet {

struct preprocessor_config {
    /// Identical-alert consolidation window: a repeat within this window
    /// updates the open alert instead of creating a new one.
    sim_duration dedup_window = minutes(5);
    /// Probe-type failure alerts (ping/internet loss) must recur this many
    /// times ...
    int persistence_threshold = 2;
    /// ... within this window before they are emitted (sporadic loss is
    /// ignored, persistent loss recorded).
    sim_duration persistence_window = seconds(45);
    /// How long a lone traffic-drop waits for corroboration before being
    /// discarded.
    sim_duration correlation_window = seconds(60);
    /// Merge traffic surge/drop alerts at adjacent locations.
    bool consolidate_related = true;
    /// Enable the cross-source rule (traffic drop needs corroboration).
    bool cross_source = true;
    /// Split link-attributed alerts onto both endpoint devices.
    bool split_link_alerts = true;
    /// Bounded-memory degradation (overload control): cap on the entry
    /// count of *each* consolidation table (open, persistence,
    /// correlation). When a table is full, the entry with the oldest
    /// last_seen is evicted — canonical (type, location) order breaking
    /// ties — so a storm degrades deterministically instead of growing
    /// without bound. 0 = unbounded (the default; behavior unchanged).
    std::size_t max_pending_alerts = 0;
    /// Cap on the cross-source corroboration history (oldest sightings
    /// dropped first). 0 = unbounded.
    std::size_t max_sightings = 0;
    /// Sketch-based counting for flood-scale cardinalities: below
    /// sketch.threshold distinct keys per consolidation table everything
    /// is exact (bit-identical to sketch-off), above it new keys are
    /// counted in a count-min sketch with bounded memory and bounded
    /// overestimation (never undercounts). See DESIGN.md "Sketched
    /// counting".
    sketch::sketch_config sketch{};
};

/// Counters for the Figure 8b before/after comparison.
struct preprocessor_stats {
    std::int64_t raw_in{0};
    std::int64_t emitted_new{0};
    std::int64_t emitted_update{0};
    std::int64_t merged_identical{0};
    std::int64_t dropped_sporadic{0};
    std::int64_t dropped_unclassified{0};
    std::int64_t dropped_uncorroborated{0};
    std::int64_t merged_related{0};
    /// Malformed inputs refused with a reason (dangling device/link
    /// references, non-finite metrics, pre-epoch timestamps, inverted
    /// time ranges) instead of corrupting downstream state.
    std::int64_t rejected_malformed{0};
    /// Alerts whose generation timestamp was ahead of their arrival time
    /// (clock skew); the timestamp is clamped to the arrival.
    std::int64_t skew_clamped{0};

    /// Accumulation across engines (the sharded engine's merged view).
    preprocessor_stats& operator+=(const preprocessor_stats& other) noexcept {
        raw_in += other.raw_in;
        emitted_new += other.emitted_new;
        emitted_update += other.emitted_update;
        merged_identical += other.merged_identical;
        dropped_sporadic += other.dropped_sporadic;
        dropped_unclassified += other.dropped_unclassified;
        dropped_uncorroborated += other.dropped_uncorroborated;
        merged_related += other.merged_related;
        rejected_malformed += other.rejected_malformed;
        skew_clamped += other.skew_clamped;
        return *this;
    }

    friend bool operator==(const preprocessor_stats&, const preprocessor_stats&) = default;
};

/// One output of a process() call.
struct preprocess_event {
    structured_alert alert;
    /// False: a brand-new structured alert. True: consolidation update of
    /// a previously emitted alert (same type+location); the locator
    /// refreshes node timestamps instead of inserting again.
    bool is_update{false};
};

/// Result of the pure classification stage (prepare()): everything
/// process() computes *before* touching consolidation state — the
/// reject check, the skew clamp, syslog classification, interning, and
/// the link/pair split. A thief worker can run this stage for a batch
/// it stole; the owning shard later replays apply_prepared() in
/// submission order, which is where every counter and consolidation
/// table is touched — so outputs stay byte-identical to plain process().
struct prepared_alert {
    bool rejected{false};
    bool skew_clamped{false};
    bool unclassified{false};
    /// Routed split outputs; a link/pair alert fans out to at most two
    /// endpoints, so the storage is inline (no per-alert allocation).
    std::array<structured_alert, 2> routes;
    std::uint8_t route_count{0};
};

class preprocessor {
public:
    /// Snapshot of the consolidation state, exported at a barrier and
    /// restored into a freshly constructed preprocessor (same topology,
    /// registry and config) by the persist subsystem. Entries are held in
    /// a canonical order (type, then location path) so two exports of the
    /// same logical state are byte-identical regardless of hash-map
    /// layout or location-id assignment order.
    struct persist_state {
        struct open_entry {
            structured_alert alert;
            sim_time last_seen{0};
        };
        struct pending_entry {
            structured_alert alert;
            int occurrences{1};
            sim_time first_seen{0};
            sim_time last_seen{0};
            sim_time last_counted_ts{-1};
        };
        struct sighting_entry {
            location_id loc{invalid_location_id};
            sim_time at{0};
        };

        preprocessor_stats stats;
        std::vector<open_entry> open;
        std::vector<pending_entry> persistence;
        std::vector<pending_entry> correlation;
        /// Time order (oldest first), as pruning expects.
        std::vector<sighting_entry> sightings;
    };

    preprocessor(const topology* topo, const alert_type_registry* registry,
                 const syslog_classifier* syslog, preprocessor_config config = {});

    /// Exports the consolidation state in canonical order; see
    /// persist_state. Call only between process()/flush() calls.
    [[nodiscard]] persist_state export_state() const;

    /// Replaces the consolidation state with a previously exported one.
    /// The restored preprocessor behaves bit-identically to the one that
    /// exported (same future outputs for the same future inputs).
    void import_state(persist_state state);

    /// Feeds one raw alert; returns zero or more structured outputs.
    /// `now` is the arrival time (>= alert timestamp under delivery
    /// delays; a timestamp ahead of `now` is clock skew and is clamped).
    /// Malformed alerts are rejected with a reason (see reject_reason),
    /// never asserted on — degraded monitor streams must not take the
    /// pipeline down.
    [[nodiscard]] std::vector<preprocess_event> process(const raw_alert& raw, sim_time now);

    /// The stateless first half of process(): classify + clamp + split,
    /// no counters, no consolidation state. Thread-safe — it touches
    /// only the immutable topology/registry/classifier/config (interning
    /// into the location_table is itself thread-safe), so concurrent
    /// prepare() calls may race with each other and with process() on
    /// *other* preprocessor instances sharing the topology.
    [[nodiscard]] prepared_alert prepare(const raw_alert& raw, sim_time now) const;

    /// The stateful second half: consumes a prepare() result for `raw`,
    /// bumping exactly the counters process() would and routing each
    /// split through the consolidation tables. process(raw, now) ≡
    /// apply_prepared(raw, now, prepare(raw, now)) — process() is
    /// literally implemented that way, so the two paths cannot drift.
    [[nodiscard]] std::vector<preprocess_event> apply_prepared(const raw_alert& raw, sim_time now,
                                                               prepared_alert&& prep);

    /// Why a raw alert would be refused, or nullptr when it is
    /// well-formed. Checks references (device/link/location ids) against
    /// the topology, the metric for non-finite values, and the timestamp
    /// for pre-epoch garbage.
    [[nodiscard]] const char* reject_reason(const raw_alert& raw) const;

    /// Periodic maintenance: expires open alerts, resolves pending
    /// correlation buffers. Returns alerts released by the flush (e.g.
    /// corroborated traffic declines).
    [[nodiscard]] std::vector<preprocess_event> flush(sim_time now);

    [[nodiscard]] const preprocessor_stats& stats() const noexcept { return stats_; }
    void reset_stats() noexcept { stats_ = {}; }

    /// Entries evicted by the max_pending_alerts / max_sightings caps.
    /// Deliberately outside preprocessor_stats (which is persisted in
    /// snapshots with a fixed field count); resets with the process.
    [[nodiscard]] std::uint64_t evicted_pending() const noexcept { return evicted_pending_; }
    /// Lifetime consolidation decisions served by the count-min sketch
    /// instead of an exact table (the degraded.sketched marker). Outside
    /// preprocessor_stats for the same fixed-field-count reason as
    /// evicted_pending(); resets on import_state (reset-on-recover).
    [[nodiscard]] std::uint64_t sketched_counts() const noexcept {
        return policy_.sketched_adds();
    }
    /// True once any consolidation table has spilled into the sketch.
    [[nodiscard]] bool sketch_active() const noexcept { return policy_.sketch_active(); }
    /// Live consolidation entries (open + persistence + correlation):
    /// the preprocessor's share of the engine's memory footprint.
    [[nodiscard]] std::size_t pending_count() const noexcept {
        return open_.size() + pending_persistence_.size() + pending_correlation_.size();
    }

    /// Optional: unclassified syslog lines are fed to `miner` so new
    /// templates surface for manual labeling (§4.1's classification
    /// backlog, kept alive in production). Not owned; may be null.
    void set_template_miner(template_miner* miner) noexcept { miner_ = miner; }

private:
    struct open_alert {
        structured_alert alert;
        sim_time last_seen{0};
    };
    struct pending_alert {
        structured_alert alert;
        int occurrences{1};
        sim_time first_seen{0};
        sim_time last_seen{0};
        /// Generation timestamp of the last counted occurrence: a burst
        /// of identical alerts from one poll (the probe-glitch pattern)
        /// counts once.
        sim_time last_counted_ts{-1};
    };
    /// Recent failure/root-cause sightings used for cross-source
    /// corroboration, pruned by time.
    struct sighting {
        location_id loc{invalid_location_id};
        sim_time at{0};
    };
    /// Latest time among a set of sightings that leave in FIFO order: a
    /// monotonic deque of (sequence, time), sequences increasing and
    /// times non-increasing from the front. Sightings below the first
    /// live sequence have left sightings_; they form a prefix, dropped
    /// lazily, so the first live entry holds the latest live time.
    class latest_sighting {
    public:
        void push(std::uint64_t seq, sim_time at, std::uint64_t first_live);
        /// The latest time among sightings at or after `first_live`.
        [[nodiscard]] std::optional<sim_time> latest(std::uint64_t first_live);

    private:
        void drop_before(std::uint64_t first_live);

        std::vector<std::pair<std::uint64_t, sim_time>> items_;
        std::size_t head_{0};
    };
    /// Per location: its own live sightings, and those at or beneath it.
    struct sighting_scope {
        latest_sighting at;
        latest_sighting within;
    };

    /// Converts one raw alert into (type, category, location); nullopt
    /// when the alert cannot be classified (dropped). Interns the
    /// location (and probe endpoints) so every downstream stage keys on
    /// ids.
    [[nodiscard]] std::optional<structured_alert> to_structured(const raw_alert& raw) const;

    /// Consolidation key: (type, interned location) packed into one u64.
    [[nodiscard]] static std::uint64_t key_of(const structured_alert& alert);

    /// Routes a classified alert through dedup / persistence /
    /// correlation; appends outputs.
    void route(structured_alert alert, sim_time now, std::vector<preprocess_event>& out);

    void emit(structured_alert alert, sim_time now, std::vector<preprocess_event>& out);
    [[nodiscard]] bool corroborated(location_id loc, sim_time now);
    void note_sighting(const structured_alert& alert, sim_time now);
    /// sightings_.pop_front(), keeping first_sighting_seq_ in step.
    void pop_sighting();
    /// Adds the sightings noted since the last call to sighting_scopes_.
    void index_sightings();
    /// The open surge the related-alert rule merges a surge at `loc`
    /// into, or nullptr.
    [[nodiscard]] open_alert* related_surge(location_id loc, sim_time now);
    /// Adds / removes an open_ entry in open_surges_ when it is a surge.
    void index_open(std::uint64_t key, const structured_alert& alert);
    void unindex_open(std::uint64_t key, const structured_alert& alert);
    /// Applies max_pending_alerts to one consolidation table after an
    /// insert: evicts oldest-first (never the entry keyed `keep_key`).
    template <typename Entry>
    void enforce_cap(std::unordered_map<std::uint64_t, Entry>& map, std::uint64_t keep_key);

    const topology* topo_;
    const alert_type_registry* registry_;
    const syslog_classifier* syslog_;
    template_miner* miner_{nullptr};
    preprocessor_config config_;
    preprocessor_stats stats_;
    std::uint64_t evicted_pending_{0};
    /// Count-min overflow shared by all three consolidation tables
    /// (per-table key salts keep their streams from colliding by
    /// construction). Only apply-side code (emit/route/flush) touches it
    /// — prepare() stays const and thread-safe, so the single-writer
    /// contract of the conservative update holds under work stealing.
    sketch::counting_policy policy_;
    /// Simulated time the sketch epoch started; the sketch halves rotate
    /// every dedup_window after it first activates (the sketched analog
    /// of open-table expiry, with estimates decaying over two windows
    /// instead of cliffing), keyed purely off sim time for determinism.
    sim_time sketch_epoch_{0};

    std::unordered_map<std::uint64_t, open_alert> open_;
    std::unordered_map<std::uint64_t, pending_alert> pending_persistence_;
    std::unordered_map<std::uint64_t, pending_alert> pending_correlation_;
    std::deque<sighting> sightings_;
    /// Sequence number of sightings_.front(); the back is this plus
    /// size() - 1.
    std::uint64_t first_sighting_seq_{0};
    /// Sequence of the next sighting index_sightings() adds.
    std::uint64_t sightings_indexed_{0};

    // Derived indexes (rebuilt by import_state, never persisted). Each
    // mirrors its table on every insert, expiry, cap eviction and import,
    // and lives in this engine only: shared topology state stays as
    // built.
    /// Locations with a sighting at or beneath them: corroboration
    /// becomes O(depth) probes instead of a scan of sightings_. Brought up
    /// to date when corroboration asks, so a sighting that leaves before
    /// the next ask never costs an index update. Entries outlive their
    /// sightings (bounded by the locations ever sighted).
    std::unordered_map<location_id, sighting_scope> sighting_scopes_;
    /// Keys of the open_ entries that are traffic surges: the related-
    /// alert rule tests these only, instead of every open alert (on the
    /// recorded flood about 50 of 2,100 open alerts are surges).
    std::vector<std::uint64_t> open_surges_;
};

}  // namespace skynet
