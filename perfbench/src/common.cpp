#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <thread>

#include "skynet/common/rng.h"
#include "skynet/core/digest.h"
#include "skynet/serve/report_text.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

world::world(const skynet::generator_params& params, int n_customers, std::uint64_t seed)
    : registry(skynet::alert_type_registry::with_builtin_catalog()),
      syslog(skynet::syslog_classifier::train_from_catalog()) {
    skynet::generator_params p = params;
    p.seed = seed;
    topo = skynet::generate_topology(p);
    skynet::rng crand(seed + 1);
    customers = skynet::customer_registry::generate(topo, n_customers, crand);
}

std::unique_ptr<world> make_flood_world() {
    skynet::generator_params p = skynet::generator_params::medium();
    p.regions = 4;
    p.legacy_snmp_fraction = 0.0;
    return std::make_unique<world>(p, 300, 47);
}

std::unique_ptr<world> make_storm_world() {
    return std::make_unique<world>(skynet::generator_params::small(), 300, 1);
}

// --- tracer ----------------------------------------------------------------

int tracer::begin(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(span{name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), tick_});
    stack_.push_back(id);
    return id;
}

void tracer::end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
}

void tracer::merge(const tracer& other) {
    const auto base = static_cast<std::int32_t>(spans_.size());
    for (span s : other.spans_) {
        if (s.parent >= 0) s.parent += base;
        spans_.push_back(s);
    }
}

std::map<std::string, tracer::totals> tracer::by_name(std::size_t from, std::size_t to) const {
    std::map<std::string, totals> out;
    std::vector<std::int64_t> child_ns(to - from, 0);
    for (std::size_t i = from; i < to; ++i) {
        const span& s = spans_[i];
        if (s.parent >= static_cast<std::int32_t>(from)) {
            child_ns[static_cast<std::size_t>(s.parent) - from] += s.end_ns - s.start_ns;
        }
    }
    for (std::size_t i = from; i < to; ++i) {
        const span& s = spans_[i];
        totals& t = out[s.name];
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += s.end_ns - s.start_ns - child_ns[i - from];
        ++t.count;
    }
    return out;
}

// --- statistics ------------------------------------------------------------

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

// --- results ---------------------------------------------------------------

bool result::check(bool ok, const std::string& what) {
    if (!ok && failed_check.empty()) failed_check = what;
    return ok;
}

void result::e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit), {}});
}

void result::layer(std::string name, double value, std::string unit, std::string note) {
    per_layer.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void run_iterations(const run_config& cfg, int min_iters, result& out,
                    std::vector<iteration>& iters,
                    const std::function<iteration(bool, bool)>& body) {
    out.trace.enable(false);
    (void)body(true, false);
    if (!out.failed_check.empty()) return;
    const std::int64_t start = now_ns();
    for (int i = 0; i < min_iters || seconds_between(start, now_ns()) < cfg.seconds; ++i) {
        const bool traced = cfg.trace && i % 2 == 1;
        out.trace.enable(traced);
        iteration it = body(false, traced);
        out.trace.enable(false);
        it.traced = traced;
        it.peak_rss_mb = peak_rss_mb();
        out.attempted += it.attempted;
        out.failed += it.failed;
        iters.push_back(std::move(it));
        if (!out.failed_check.empty()) return;
    }
}

namespace {

/// Iterations the end-to-end numbers come from: the untraced ones.
std::vector<const iteration*> untraced(const std::vector<iteration>& iters) {
    std::vector<const iteration*> out;
    for (const iteration& it : iters) {
        if (!it.traced) out.push_back(&it);
    }
    return out;
}

/// Iterations per-layer numbers come from: the traced ones.
std::vector<const iteration*> traced(const std::vector<iteration>& iters) {
    std::vector<const iteration*> out;
    for (const iteration& it : iters) {
        if (it.traced) out.push_back(&it);
    }
    return out;
}

/// Element-wise median over the iterations of a sample sequence every
/// iteration repeats, up to the shortest such sequence.
std::vector<double> per_index_median(const std::vector<const iteration*>& its,
                                     std::vector<double> iteration::*samples) {
    std::size_t n = (its.front()->*samples).size();
    for (const iteration* it : its) n = std::min(n, (it->*samples).size());
    std::vector<double> out;
    for (std::size_t k = 0; k < n; ++k) {
        std::vector<double> at;
        for (const iteration* it : its) at.push_back((it->*samples)[k]);
        out.push_back(median(std::move(at)));
    }
    return out;
}

}  // namespace

void summarize_end_to_end(const std::vector<iteration>& iters, bool queries_replayed,
                          result& out) {
    std::vector<double> aps;
    std::vector<double> setup;
    std::vector<double> recover;
    std::vector<double> queries;
    const std::vector<const iteration*> measured = untraced(iters);
    for (const iteration* it : measured) {
        aps.push_back(it->alerts_per_s);
        setup.push_back(it->setup_s);
        recover.push_back(it->recover_s);
        queries.insert(queries.end(), it->query_us.begin(), it->query_us.end());
    }
    // Every iteration replays the same ticks, so each tick's latency is
    // its median over the iterations: a host stall that lands on one
    // iteration's tick does not move it. The percentiles are over ticks.
    const std::vector<double> ticks = per_index_median(measured, &iteration::tick_ms);
    if (queries_replayed) queries = per_index_median(measured, &iteration::query_us);
    out.e2e("alerts_per_s", median(aps), "alerts/s");
    out.e2e("tick_p50_ms", percentile(ticks, 50.0), "ms");
    out.e2e("tick_p99_ms", percentile(ticks, 99.0), "ms");
    out.e2e("query_p50_us", percentile(queries, 50.0), "us");
    out.e2e("query_p99_us", percentile(queries, 99.0), "us");
    out.e2e("recover_s", median(recover), "s");
    out.e2e("setup_s", median(setup), "s");
    out.e2e("peak_rss_mb", iters.front().peak_rss_mb, "MB");

    char buf[256];
    const std::size_t tick_samples = ticks.size() * measured.size();
    const std::size_t query_samples = queries.size() * (queries_replayed ? measured.size() : 1);
    std::snprintf(buf, sizeof buf,
                  "samples: %zu iterations of %zu ticks (%zu beyond p99), %zu queries (%zu beyond "
                  "p99)",
                  measured.size(), ticks.size(), tick_samples / 100, query_samples,
                  query_samples / 100);
    out.notes.emplace_back(buf);
    std::string per_iter = "alerts_per_s by iteration:";
    for (const double v : aps) {
        std::snprintf(buf, sizeof buf, " %.0f", v);
        per_iter += buf;
    }
    out.notes.push_back(per_iter);
    std::snprintf(buf, sizeof buf, "process peak RSS at exit: %.1f MB", peak_rss_mb());
    out.notes.emplace_back(buf);
    if (tick_samples < 1000 || query_samples < 1000) {
        out.notes.emplace_back("warning: fewer than 10 samples beyond a p99; raise --seconds");
    }
}

double total_ms(const span_totals& totals, const std::string& name, bool self) {
    const auto found = totals.find(name);
    if (found == totals.end()) return 0.0;
    return static_cast<double>(self ? found->second.self_ns : found->second.total_ns) / 1e6;
}

double mean_us(const span_totals& totals, const std::string& name) {
    const auto found = totals.find(name);
    if (found == totals.end() || found->second.count == 0) return 0.0;
    return static_cast<double>(found->second.total_ns) / 1e3 /
           static_cast<double>(found->second.count);
}

namespace {

/// trace.overhead: 1 - traced / untraced median alerts_per_s.
double trace_overhead(const std::vector<iteration>& iters) {
    std::vector<double> on;
    std::vector<double> off;
    for (const iteration& it : iters) (it.traced ? on : off).push_back(it.alerts_per_s);
    if (on.empty() || off.empty()) return 0.0;
    return 1.0 - median(on) / median(off);
}

struct layer_spec {
    const char* name;
    const char* unit;
};

/// Every per-layer metric, grouped by layer.
constexpr layer_spec kLayerMetrics[] = {
    {"overload.admit_ns_per_alert", "ns"},
    {"overload.on_tick_us", "us"},
    {"overload.admit_ratio", "ratio"},
    {"overload.shed", "count"},
    {"overload.quarantined", "count"},
    {"sketch.sketched_decisions", "count"},
    {"sketch.sketched_share", "ratio"},
    {"persist.self_ms", "ms"},
    {"persist.journal_records", "count"},
    {"persist.journal_mb", "MB"},
    {"persist.checkpoints", "count"},
    {"persist.snapshot_mb", "MB"},
    {"persist.recover_replayed", "count"},
    {"core.preprocess.ms", "ms"},
    {"core.preprocess.ns_per_alert", "ns"},
    {"core.locate.ms", "ms"},
    {"core.locate.calls", "count"},
    {"core.locate.us_per_call", "us"},
    {"core.evaluate.ms", "ms"},
    {"core.evaluate.items", "count"},
    {"core.live_alerts_peak", "count"},
    {"core.sharded.busy_ms", "ms"},
    {"core.sharded.batches_stolen", "count"},
    {"core.sharded.owner_waits", "count"},
    {"core.sharded.enqueue_full_waits", "count"},
    {"core.sharded.max_queue_depth", "count"},
    {"lifecycle.hook_ms", "ms"},
    {"lifecycle.on_barrier_ms", "ms"},
    {"lifecycle.lineages", "count"},
    {"lifecycle.recurrences", "count"},
    {"serve.store.append_us", "us"},
    {"serve.store.entries", "count"},
    {"serve.health_json_us", "us"},
    {"serve.report_render_ms", "ms"},
    {"serve.report_bytes", "bytes"},
    {"serve.http.health_p50_us", "us"},
    {"serve.http.health_p99_us", "us"},
    {"serve.http.incidents_p50_us", "us"},
    {"serve.http.incidents_p99_us", "us"},
    {"serve.http.report_p50_us", "us"},
    {"serve.http.report_p99_us", "us"},
    {"serve.http.requests", "count"},
    {"serve.http.late", "count"},
    {"serve.http.failed", "count"},
    {"serve.http.gen_lag_ms", "ms"},
};

}  // namespace

void emit_layers(const std::vector<iteration>& iters,
                 const std::map<std::string, std::string>& not_applied, result& out) {
    const std::vector<const iteration*> source = traced(iters);
    for (const layer_spec& spec : kLayerMetrics) {
        const std::string name = spec.name;
        std::vector<double> values;
        for (const iteration* it : source) {
            const auto found = it->layer.find(name);
            if (found != it->layer.end()) values.push_back(found->second);
        }
        std::string note;
        std::size_t matched = 0;
        for (const auto& [prefix, why] : not_applied) {
            if (name.starts_with(prefix) && prefix.size() > matched) {
                note = why;
                matched = prefix.size();
            }
        }
        out.layer(name, median(values), spec.unit, note);
    }
    out.layer("trace.overhead", trace_overhead(iters), "ratio");
}

void time_local_queries(const skynet::serve::incident_store& store, const std::string& health,
                        int rounds, tracer& tr, std::vector<double>& out_us) {
    const auto timed = [&](const char* name, const auto& read) {
        const auto s = tr.time(name);
        [[maybe_unused]] const std::size_t bytes = read();
    };
    for (int i = 0; i < rounds; ++i) {
        const std::int64_t start = now_ns();
        timed("serve.query.health", [&] { return std::string(health).size(); });
        timed("serve.query.incidents", [&] {
            skynet::serve::incident_store::query_params q;
            q.limit = 20;
            std::string body;
            for (const auto& item : store.query(q).items) {
                body += skynet::incident_digest_json(item.entry.report);
            }
            return body.size();
        });
        timed("serve.query.report", [&] {
            return skynet::serve::render_report_listing(store.ranked_reports(), {.json = true})
                .size();
        });
        out_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    }
}

void fill_engine_layers(const skynet::engine_metrics& em, std::map<std::string, double>& layer) {
    const auto ms = [](const skynet::stage_metrics& s) {
        return static_cast<double>(s.latency.total_ns()) / 1e6;
    };
    layer["core.preprocess.ms"] = ms(em.preprocess);
    layer["core.preprocess.ns_per_alert"] =
        em.alerts_in == 0 ? 0.0
                          : static_cast<double>(em.preprocess.latency.total_ns()) /
                                static_cast<double>(em.alerts_in);
    layer["core.locate.ms"] = ms(em.locate);
    layer["core.locate.calls"] = static_cast<double>(em.locate.calls);
    layer["core.locate.us_per_call"] =
        em.locate.calls == 0 ? 0.0 : ms(em.locate) * 1e3 / static_cast<double>(em.locate.calls);
    layer["core.evaluate.ms"] = ms(em.evaluate);
    layer["core.evaluate.items"] = static_cast<double>(em.evaluate.items);
}

double file_mb(const std::string& path) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0.0 : static_cast<double>(size) / 1e6;
}

double newest_snapshot_mb(const std::string& dir) {
    std::error_code ec;
    std::string newest;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("snap-") && name.ends_with(".skysnap") && name > newest) {
            newest = name;
        }
    }
    return newest.empty() ? 0.0 : file_mb(dir + "/" + newest);
}

double peak_rss_mb() {
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                        &regs[4 * i + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string model(brand);
        const auto first = model.find_first_not_of(' ');
        const auto last = model.find_last_not_of(' ');
        if (first != std::string::npos) return model.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

std::string json_escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

#if defined(__has_feature)
#define PERFBENCH_HAS_FEATURE(x) __has_feature(x)
#else
#define PERFBENCH_HAS_FEATURE(x) 0
#endif

/// The sanitizer this file was compiled with, as the compiler reports it
/// (GCC's __SANITIZE_*__ macros, clang's __has_feature); "none" if none.
constexpr std::string_view sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || PERFBENCH_HAS_FEATURE(address_sanitizer)
    return "address";
#elif defined(__SANITIZE_THREAD__) || PERFBENCH_HAS_FEATURE(thread_sanitizer)
    return "thread";
#elif PERFBENCH_HAS_FEATURE(memory_sanitizer)
    return "memory";
#elif PERFBENCH_HAS_FEATURE(undefined_behavior_sanitizer)
    return "undefined";
#else
    return "none";
#endif
}

constexpr bool sanitized() { return sanitizer() != "none"; }

constexpr bool optimized() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return true;
#else
    return false;
#endif
}

}  // namespace

bool comparable_build() { return optimized() && !sanitized(); }

std::string stamp_json(const run_config& cfg) {
    const bool comparable = comparable_build();
    char buf[1024];
    std::snprintf(buf, sizeof buf,
                  "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
                  "\"host\":{\"cores\":%u,\"cpu\":\"%s\"},"
                  "\"build\":{\"type\":\"%s\",\"compiler\":\"%s\",\"sanitizer\":\"%s\","
                  "\"optimized\":%s},"
                  "\"revision\":\"%s\",\"dirty\":%s,\"comparable\":%s}",
                  json_escape(cfg.workload).c_str(), static_cast<unsigned long long>(cfg.seed),
                  cfg.seconds, cfg.trace ? 1 : 0, std::thread::hardware_concurrency(),
                  json_escape(cpu_model()).c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                  std::string(sanitizer()).c_str(), optimized() ? "true" : "false",
                  json_escape(cfg.revision).c_str(), cfg.dirty ? "true" : "false",
                  comparable ? "true" : "false");
    return buf;
}

bool write_trace(const std::string& path, const std::string& stamp, const result& r) {
    const std::vector<span>& spans = r.trace.spans();
    struct layer_row {
        std::uint64_t count{0};
        std::int64_t total_ns{0};
        std::int64_t self_ns{0};
    };
    std::map<std::string, layer_row> layers;
    for (const auto& [name, t] : r.trace.by_name(0, spans.size())) {
        const auto dot = name.rfind('.');
        layer_row& row = layers[dot == std::string::npos ? name : name.substr(0, dot)];
        row.count += t.count;
        row.total_ns += t.total_ns;
        row.self_ns += t.self_ns;
    }

    std::printf("layer self time over the traced iterations:\n");
    std::printf("  %-22s %8s %12s %12s\n", "layer", "spans", "total_ms", "self_ms");
    std::string table = "[";
    for (const auto& [name, row] : layers) {
        std::printf("  %-22s %8llu %12.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(row.count),
                    static_cast<double>(row.total_ns) / 1e6,
                    static_cast<double>(row.self_ns) / 1e6);
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"layer\":\"%s\",\"spans\":%llu,\"total_ms\":%.6f,\"self_ms\":%.6f}",
                      table.size() > 1 ? "," : "", name.c_str(),
                      static_cast<unsigned long long>(row.count),
                      static_cast<double>(row.total_ns) / 1e6,
                      static_cast<double>(row.self_ns) / 1e6);
        table += buf;
    }
    table += "]";

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    out << "{\"stamp\":" << stamp << ",\n\"layers\":" << table << ",\n\"spans\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span& s = spans[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.start_ns - origin << ",\"end_ns\":" << s.end_ns - origin
            << ",\"parent\":" << s.parent << ",\"tick\":" << s.tick << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
