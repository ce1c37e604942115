// Deterministic fault injection on the monitor -> engine ingest path.
//
// SkyNet's value is that it keeps working *during* severe failures
// (§1, §4.2) — which is exactly when its own inputs degrade: monitors
// stop reporting, collection paths duplicate and reorder deliveries,
// clocks skew, and relays garble fields. The fault_injector scripts those pathologies over a recorded or live
// alert stream, seeded so every degraded run is replayable bit-for-bit.
//
// The injector sits *in front of* the engine: it transforms the single
// ordered (alert, arrival) stream before ingest, consuming its rng in
// stream order. Both the sequential and the region-sharded engine then
// consume the identical faulted stream, so report parity between them
// is preserved under any fault seed (the property test_faults.cpp
// checks).
//
// Fault clauses are scriptable through a small text DSL (the CLI's
// --faults flag, and the scenario recipes in EXPERIMENTS.md):
//
//   seed=3;dropout=0.2;drop:ping@60s+120s;dup=0.05;reorder=0.1;
//   reorder_max=10s;skew=5s;skew_rate=0.3;corrupt=0.02;
//   stall:1@4;stall=0.01
//
// Clauses are ';' or ',' separated; durations take ms/s/m suffixes.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "skynet/common/error.h"
#include "skynet/common/rng.h"
#include "skynet/sim/trace.h"

namespace skynet {

/// One scripted per-source dropout window: alerts from `source` whose
/// arrival falls in [from, from + duration) never reach the engine.
struct dropout_window {
    data_source source{data_source::ping};
    sim_time from{0};
    sim_duration duration{0};
};

/// One scripted worker stall (the `stall:<shard>@<ordinal>` clause):
/// shard `shard` parks at its `ordinal`-th command (1-based) until the
/// watchdog releases it.
struct stall_point {
    std::size_t shard{0};
    std::uint64_t ordinal{1};
};

struct fault_spec {
    std::uint64_t seed{1};

    /// Scripted dropout windows (the `drop:<source>@<from>+<for>` clause).
    std::vector<dropout_window> dropouts;
    /// Random dropout: probability that a given source is dark during a
    /// given `dropout_period`-aligned window. Decided by a stateless hash
    /// of (seed, source, window index), so it is independent of stream
    /// order and replayable.
    double dropout_rate{0.0};
    sim_duration dropout_period{minutes(1)};

    /// Probability an alert is delivered twice (collection-path retry).
    double duplicate_rate{0.0};

    /// Probability an alert is held back and re-delivered up to
    /// `reorder_max_delay` later, after alerts that arrived behind it.
    double reorder_rate{0.0};
    sim_duration reorder_max_delay{seconds(10)};

    /// Probability one field of the alert is garbled (unknown kind, bogus
    /// device/link reference, non-finite metric, negative timestamp) —
    /// exercising the preprocessor's reject-with-reason paths.
    double corrupt_rate{0.0};

    /// Bounded clock skew: with probability `skew_rate` the generation
    /// timestamp shifts by a uniform amount in [-max_skew, +max_skew]
    /// (arrival time unchanged). Forward skew past the arrival time is
    /// clamped by the preprocessor and counted as `skew_clamped`.
    sim_duration max_skew{0};
    double skew_rate{0.0};

    /// Scripted worker stalls (the `stall:<shard>@<ordinal>` clause);
    /// drives sharded_config::worker_stall via worker_stall_hook().
    std::vector<stall_point> stalls;
    /// Probability a worker parks at a given command (the `stall=<rate>`
    /// clause). Decided by a stateless hash of (seed, shard, ordinal), so
    /// stall placement is independent of thread interleaving.
    double stall_rate{0.0};

    /// True when at least one fault knob is active.
    [[nodiscard]] bool any() const noexcept;
    /// Rates in [0,1], durations non-negative. Empty error = valid.
    [[nodiscard]] error validate() const;
};

struct fault_parse_error {
    std::string clause;
    std::string message;
};

struct fault_parse_result {
    fault_spec spec;
    std::vector<fault_parse_error> errors;

    [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
};

/// Parses the fault-clause DSL (see header comment for the grammar).
[[nodiscard]] fault_parse_result parse_fault_spec(std::string_view text);

/// What the injector did to the stream; `sources_in_dropout` feeds the
/// engine_metrics degraded block through the CLI.
struct fault_stats {
    std::uint64_t alerts_in{0};
    std::uint64_t dropped_dropout{0};
    std::uint64_t duplicated{0};
    std::uint64_t reordered{0};
    std::uint64_t corrupted{0};
    std::uint64_t skewed{0};
    /// Distinct data sources that hit at least one dropout window.
    std::uint64_t sources_in_dropout{0};
};

class fault_injector {
public:
    explicit fault_injector(fault_spec spec);

    /// Feeds one delivery in arrival order; appends zero or more faulted
    /// deliveries (dropped alerts append nothing, duplicates append two,
    /// reordered alerts appear on a later call once their delay elapses).
    void feed(const traced_alert& t, std::vector<traced_alert>& out);

    /// Batch convenience over feed(): one simulator tick's deliveries in,
    /// the faulted deliveries out.
    [[nodiscard]] std::vector<traced_alert> apply(std::span<const traced_alert> batch);

    /// Releases reorder-held alerts due by `now` (call once per tick).
    [[nodiscard]] std::vector<traced_alert> release(sim_time now);

    /// Releases everything still held (end of the stream).
    [[nodiscard]] std::vector<traced_alert> drain();

    /// Stall predicate for sharded_config::worker_stall; fires at every
    /// scripted stall point and with probability stall_rate per (shard,
    /// ordinal). Stateless (no shared rng), so concurrent workers can
    /// consult it without synchronization and placement is replayable.
    [[nodiscard]] std::function<bool(std::size_t, std::uint64_t)> worker_stall_hook() const;

    [[nodiscard]] const fault_stats& stats() const noexcept { return stats_; }
    [[nodiscard]] const fault_spec& spec() const noexcept { return spec_; }

private:
    struct held_alert {
        sim_time due{0};
        std::uint64_t seq{0};
        traced_alert t;
        bool operator>(const held_alert& other) const noexcept {
            if (due != other.due) return due > other.due;
            return seq > other.seq;
        }
    };

    [[nodiscard]] bool in_dropout(data_source source, sim_time at);
    void corrupt(raw_alert& alert);
    void pop_due(sim_time now, std::vector<traced_alert>& out);

    fault_spec spec_;
    rng rand_;
    fault_stats stats_;
    /// Sources already counted toward sources_in_dropout.
    std::uint32_t dropout_seen_mask_{0};
    std::priority_queue<held_alert, std::vector<held_alert>, std::greater<held_alert>> held_;
    std::uint64_t seq_{0};
};

}  // namespace skynet
