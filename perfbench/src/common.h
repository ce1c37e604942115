// Shared plumbing for the end-to-end benchmark: the static world, the
// in-memory span tracer, the measured-iteration loop, small statistics
// helpers and the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "skynet/alert/type_registry.h"
#include "skynet/core/engine_metrics.h"
#include "skynet/serve/incident_store.h"
#include "skynet/syslog/classifier.h"
#include "skynet/telemetry/customer.h"
#include "skynet/topology/generator.h"
#include "skynet/topology/topology.h"

namespace perfbench {

using steady = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               steady::now().time_since_epoch())
        .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
    return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// Everything the system needs before the first alert: topology,
/// customers, type registry and the trained syslog classifier. Building
/// it is part of the measured set-up time.
struct world {
    skynet::topology topo;
    skynet::customer_registry customers;
    skynet::alert_type_registry registry;
    skynet::syslog_classifier syslog;

    world(const skynet::generator_params& params, int n_customers, std::uint64_t seed);
};

/// The 4-region medium topology the recorded flood runs on.
[[nodiscard]] std::unique_ptr<world> make_flood_world();
/// The small topology the synthetic storm runs on.
[[nodiscard]] std::unique_ptr<world> make_storm_world();

// --- spans ---------------------------------------------------------------

/// One timed call into a layer. `parent` indexes the enclosing span of
/// the same tracer (-1 at top level); `tick` is the replay barrier the
/// call belongs to (-1 outside the replay).
struct span {
    const char* name{""};
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    std::int32_t parent{-1};
    std::int32_t tick{-1};
};

/// In-memory span recorder; single-threaded (a second thread keeps its
/// own tracer and merges it at the end). Disabled, it records nothing and
/// never reads the clock.
class tracer {
public:
    class scope {
    public:
        scope(tracer* t, const char* name) : t_(t), id_(t != nullptr ? t->begin(name) : -1) {}
        ~scope() {
            if (t_ != nullptr) t_->end(id_);
        }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        tracer* t_;
        int id_;
    };

    void enable(bool on) { on_ = on; }
    [[nodiscard]] scope time(const char* name) { return scope(on_ ? this : nullptr, name); }
    void set_tick(int tick) noexcept { tick_ = tick; }

    [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
    [[nodiscard]] const std::vector<span>& spans() const noexcept { return spans_; }

    /// Appends another tracer's spans (parents re-based).
    void merge(const tracer& other);

    struct totals {
        std::int64_t total_ns{0};
        std::int64_t self_ns{0};
        std::uint64_t count{0};
    };
    /// Per-span-name totals and self time (duration minus the part its
    /// direct children cover) over spans [from, to).
    [[nodiscard]] std::map<std::string, totals> by_name(std::size_t from, std::size_t to) const;

private:
    int begin(const char* name);
    void end(int id);

    bool on_{false};
    int tick_{-1};
    std::vector<span> spans_;
    std::vector<int> stack_;
};

// --- statistics ----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> values, double p);

// --- results -------------------------------------------------------------

struct metric {
    std::string name;
    double value{0.0};
    std::string unit;
    /// Why the layer does no work on this workload (value is then 0).
    std::string note;
};

struct result {
    std::vector<metric> end_to_end;
    std::vector<metric> per_layer;
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    /// First failed correctness check; empty while every check passes.
    std::string failed_check;
    /// Spans of the traced iterations plus their layer table (trace run).
    tracer trace;
    std::vector<std::string> notes;

    /// Records a correctness check; false (and remembered) on failure.
    bool check(bool ok, const std::string& what);
    void e2e(std::string name, double value, std::string unit);
    void layer(std::string name, double value, std::string unit, std::string note = {});
};

/// Per-iteration numbers a workload reports; medians across iterations
/// become the run's metrics.
struct iteration {
    bool traced{false};
    double setup_s{0.0};
    double alerts_per_s{0.0};
    double recover_s{0.0};
    std::vector<double> tick_ms;
    std::vector<double> query_us;
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    /// Process peak RSS when the iteration ended, in MB.
    double peak_rss_mb{0.0};
    std::map<std::string, double> layer;
};

struct run_config {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    std::string out_dir{".bench_out"};
    std::string revision{"unknown"};
    bool dirty{false};
};

/// Runs `body` repeatedly: once unmeasured (warm-up plus the correctness
/// checks, which see `check_pass`), then measured iterations until
/// cfg.seconds have elapsed and at least `min_iters` ran. With tracing
/// on, measured iterations alternate untraced / traced so the overhead
/// is read within one process. Stops early when a check fails.
void run_iterations(const run_config& cfg, int min_iters, result& out,
                    std::vector<iteration>& iters,
                    const std::function<iteration(bool check_pass, bool traced)>& body);

/// Fills the end-to-end metrics shared by every workload from the
/// untraced measured iterations. The tick percentiles are taken over each
/// tick's median across the iterations, and so are the query percentiles
/// when `queries_replayed` (every iteration runs the same read rounds);
/// otherwise the queries are pooled. peak_rss_mb is the process peak through
/// the check pass and the first measured iteration: every later
/// iteration repeats the same work, and the peak over more of them only
/// drifts up with their number as allocations scatter over the threads'
/// malloc arenas.
void summarize_end_to_end(const std::vector<iteration>& iters, bool queries_replayed,
                          result& out);

using span_totals = std::map<std::string, tracer::totals>;
/// Total (or self) time of the spans named `name`, in ms.
[[nodiscard]] double total_ms(const span_totals& totals, const std::string& name,
                              bool self = false);
/// Mean duration of the spans named `name`, in µs; 0 when none ran.
[[nodiscard]] double mean_us(const span_totals& totals, const std::string& name);

/// Emits every per-layer metric, in one fixed order for all workloads:
/// the median of iteration::layer[name] over the traced iterations, plus
/// trace.overhead. `not_applied` maps a metric-name prefix to why that
/// layer does no work on this workload.
void emit_layers(const std::vector<iteration>& iters,
                 const std::map<std::string, std::string>& not_applied, result& out);

/// Times `rounds` rounds of the three reads the daemon's HTTP API serves
/// (the published health JSON, an incident page of 20, the JSON report
/// listing), answered in-process from `store`; appends one latency in µs
/// per round.
void time_local_queries(const skynet::serve::incident_store& store, const std::string& health,
                        int rounds, tracer& tr, std::vector<double>& out_us);

/// The core.preprocess/locate/evaluate metrics from an engine's own
/// stage timers (totals, not the log2 percentiles).
void fill_engine_layers(const skynet::engine_metrics& em, std::map<std::string, double>& layer);

/// Size of a file in MB; 0 when it does not exist.
[[nodiscard]] double file_mb(const std::string& path);
/// Size of the newest snap-*.skysnap in `dir`, in MB; 0 when none.
[[nodiscard]] double newest_snapshot_mb(const std::string& dir);

/// Process peak resident set size in MB.
[[nodiscard]] double peak_rss_mb();

/// False for unoptimized or sanitized builds, whose numbers must not be
/// compared with anything.
[[nodiscard]] bool comparable_build();

/// Host and build stamp as one JSON object.
[[nodiscard]] std::string stamp_json(const run_config& cfg);

/// Writes the traced spans plus a per-layer self-time table to `path`
/// and prints the table. False on I/O failure.
bool write_trace(const std::string& path, const std::string& stamp, const result& r);

}  // namespace perfbench
