// skynet_perfbench: the repository's end-to-end benchmark.
//
//   skynet_perfbench --workload flood_seq|storm_guarded|serve_flood
//                    --seed N --seconds S --trace 0|1
//                    [--out DIR] [--revision REV] [--dirty 0|1]
//
// Prints a host/build stamp, every metric by name with its unit, and as
// its last line one JSON object {"correct","attempted","failed","metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1 (which also writes DIR/trace-<workload>-<seed>.json). A
// failed correctness check is printed and the exit code is 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* why) {
    std::fprintf(stderr,
                 "skynet_perfbench: %s\n"
                 "usage: skynet_perfbench --workload flood_seq|storm_guarded|serve_flood "
                 "--seed N --seconds S --trace 0|1 [--out DIR] [--revision REV] [--dirty 0|1]\n",
                 why);
    return 2;
}

std::string metrics_json(const std::vector<metric>& metrics) {
    std::string out = "{";
    for (const metric& m : metrics) {
        char buf[256];
        const double value = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      out.size() > 1 ? ", " : "", m.name.c_str(), value, m.unit.c_str());
        out += buf;
    }
    return out + "}";
}

void print_metrics(const char* title, const std::vector<metric>& metrics) {
    std::printf("%s:\n", title);
    for (const metric& m : metrics) {
        std::printf("  %-34s %16.6f %-9s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.note.empty() ? "" : " n/a: ", m.note.c_str());
    }
}

}  // namespace

int main(int argc, char** argv) {
    run_config cfg;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (i + 1 >= argc) return usage("missing value");
        const char* value = argv[++i];
        if (arg == "--workload") {
            cfg.workload = value;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(value, nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            cfg.seconds = std::strtod(value, nullptr);
            have_seconds = cfg.seconds > 0;
        } else if (arg == "--trace") {
            cfg.trace = std::string_view(value) == "1";
            have_trace = true;
        } else if (arg == "--out") {
            cfg.out_dir = value;
        } else if (arg == "--revision") {
            cfg.revision = value;
        } else if (arg == "--dirty") {
            cfg.dirty = std::string_view(value) == "1";
        } else {
            return usage("unknown flag");
        }
    }
    if (!have_seed || !have_seconds || !have_trace) {
        return usage("--seed, --seconds and --trace are required");
    }
    void (*run)(const run_config&, result&) = nullptr;
    if (cfg.workload == "flood_seq") run = run_flood_seq;
    if (cfg.workload == "storm_guarded") run = run_storm_guarded;
    if (cfg.workload == "serve_flood") run = run_serve_flood;
    if (run == nullptr) return usage("unknown workload");

    std::error_code ec;
    std::filesystem::create_directories(cfg.out_dir, ec);
    if (ec) return usage("cannot create the output directory");

    const std::string stamp = stamp_json(cfg);
    std::printf("stamp: %s\n", stamp.c_str());
    if (!comparable_build()) {
        std::printf("warning: unoptimized or sanitized build; these numbers are not comparable\n");
    }
    std::fflush(stdout);

    result res;
    run(cfg, res);

    const std::uint64_t attempted = res.attempted == 0 ? 1 : res.attempted;
    if (!res.failed_check.empty()) {
        std::printf("CHECK FAILED: %s\n", res.failed_check.c_str());
        std::fprintf(stderr, "CHECK FAILED: %s\n", res.failed_check.c_str());
        std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {}}\n",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(res.failed));
        return 1;
    }

    std::printf("checks: all passed\n");
    for (const std::string& note : res.notes) std::printf("%s\n", note.c_str());
    std::printf("failed_op_ratio: %llu / %llu = %.6f\n",
                static_cast<unsigned long long>(res.failed),
                static_cast<unsigned long long>(attempted),
                static_cast<double>(res.failed) / static_cast<double>(attempted));
    print_metrics("end-to-end (untraced iterations)", res.end_to_end);
    if (cfg.trace) {
        print_metrics("per-layer (traced iterations)", res.per_layer);
        const std::string path = cfg.out_dir + "/trace-" + cfg.workload + "-" +
                                 std::to_string(cfg.seed) + ".json";
        if (!write_trace(path, stamp, res)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", path.c_str());
    }
    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(res.failed),
                metrics_json(cfg.trace ? res.per_layer : res.end_to_end).c_str());
    return 0;
}
