#include "skynet/serve/engine_options.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "skynet/persist/durable.h"
#include "skynet/serve/net.h"

namespace skynet::serve {

namespace {

/// Strict unsigned parse (the old CLI's atoll accepted trailing junk
/// silently; the unified parser reports it).
bool parse_u64(std::string_view text, std::uint64_t& out) {
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc{} && ptr == text.data() + text.size();
}

bool parse_int(std::string_view text, int& out) {
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc{} && ptr == text.data() + text.size();
}

bool parse_double(std::string_view text, double& out) {
    char* end = nullptr;
    const std::string copy(text);
    out = std::strtod(copy.c_str(), &end);
    return end == copy.c_str() + copy.size() && !copy.empty();
}

void check_addr(std::vector<option_error>& errors, const char* flag, const std::string& text) {
    if (text.empty()) return;
    if (!parse_addr(text)) {
        errors.push_back({flag, "expected unix:PATH or tcp:HOST:PORT, got '" + text + "'"});
    }
}

}  // namespace

overload::controller_config engine_options::overload_config() const {
    overload::controller_config cfg;
    cfg.admission.max_alerts = admission_budget;
    cfg.breaker.enabled = breaker;
    // The guard's dedup/usage accounting follows the same counting policy
    // as the preprocessor, so one --sketch flag governs both layers.
    cfg.sketch = pipeline.pre.sketch;
    return cfg;
}

lifecycle::config engine_options::lifecycle_config() const {
    lifecycle::config cfg;
    cfg.flap_threshold = flap_threshold;
    cfg.recurrence_window = minutes(recurrence_window_min);
    cfg.auto_close_quiet = minutes(auto_close_quiet_min);
    return cfg;
}

sharded_config engine_options::sharded() const {
    sharded_config cfg;
    cfg.engine = pipeline;
    cfg.shards = static_cast<std::size_t>(shards);
    cfg.watchdog_deadline_ms = watchdog_deadline;
    cfg.steal = steal;
    return cfg;
}

std::vector<option_error> engine_options::validate(run_mode mode) const {
    std::vector<option_error> errors;
    if (mode == run_mode::help) return errors;

    // Reconnect policy: shared by the client and the federation emitter.
    if (retry < 0 || retry > 100) errors.push_back({"--retry", "must be in [0, 100]"});
    if (retry_base_ms < 1 || retry_base_ms > 60000) {
        errors.push_back({"--retry-base-ms", "must be in [1, 60000] ms"});
    }

    // Blocks shared by batch and serve runs.
    if (mode != run_mode::client) {
        if (error e = pipeline.validate()) errors.push_back({"pipeline config", e.message()});
        try {
            overload_config().validate();
        } catch (const std::exception& e) {
            errors.push_back({"--admission-budget/--breaker", e.what()});
        }
        if (lifecycle) {
            try {
                lifecycle_config().validate();
            } catch (const std::exception& e) {
                errors.push_back(
                    {"--flap-threshold/--recurrence-window/--auto-close-quiet", e.what()});
            }
        } else {
            // A tuned-but-disabled life-cycle layer is almost certainly a
            // forgotten --lifecycle on; refuse rather than silently ignore.
            const std::pair<const char*, bool> tuned[] = {
                {"--flap-threshold", flap_threshold != 3},
                {"--recurrence-window", recurrence_window_min != 30},
                {"--auto-close-quiet", auto_close_quiet_min != 6},
                {"--diff", diff},
            };
            for (const auto& [flag, set] : tuned) {
                if (set) errors.push_back({flag, "requires --lifecycle on"});
            }
        }
        if (shards < 0) errors.push_back({"--shards", "must be >= 0"});
        if (shards > kMaxShards) {
            errors.push_back({"--shards", "must be <= " + std::to_string(kMaxShards) +
                                              " (each shard costs a worker thread)"});
        }
        if (checkpoint_every < 1) errors.push_back({"--checkpoint-every", "must be >= 1"});
        if (duration_min < 1) errors.push_back({"--duration", "must be >= 1 minute"});
        if (customers < 0) errors.push_back({"--customers", "must be >= 0"});
        if (noise < 0.0 || noise > 1.0) errors.push_back({"--noise", "must be in [0, 1]"});
        if (checkpoint_dir.empty()) {
            if (recover) errors.push_back({"--recover", "requires --checkpoint-dir"});
            if (crash_after > 0) {
                errors.push_back({"--crash-after", "requires --checkpoint-dir"});
            }
        }
        if (!topo_file.empty() && topo_preset != "small") {
            errors.push_back({"--topo", "mutually exclusive with --topo-file"});
        }
    }

    switch (mode) {
        case run_mode::batch:
            if (!checkpoint_dir.empty() && replay_file.empty() && !recover) {
                errors.push_back({"--checkpoint-dir",
                                  "requires --replay or --recover (the journal records "
                                  "replayed traces; use --record to make one)"});
            }
            if (serve.enabled()) {
                errors.push_back({"--serve/--http", "internal: serve options in batch mode"});
            }
            if (federate.emit()) {
                errors.push_back({"--federate", "emit needs a daemon; add --serve"});
            }
            if (!federate.journal_dir.empty() && !federate.emit()) {
                errors.push_back({"--fed-journal", "only meaningful with --federate emit:"});
            }
            if (resume_stream) {
                errors.push_back(
                    {"--resume-stream", "needs a recovering daemon (--serve with --recover)"});
            }
            break;
        case run_mode::serve: {
            check_addr(errors, "--serve", serve.ingest_addr);
            check_addr(errors, "--http", serve.http_addr);
            // One-shot inputs make no sense for a long-running service;
            // stream traces in through the ingest socket instead.
            // (--crash-after stays available: the partition drill kills a
            // daemon at an exact journal-record boundary with it.)
            const std::pair<const char*, bool> rejected[] = {
                {"--replay", !replay_file.empty()},   {"--record", !record_file.empty()},
                {"--export-topo", !export_topo.empty()}, {"--faults", !faults_spec.empty()},
            };
            for (const auto& [flag, set] : rejected) {
                if (set) errors.push_back({flag, "not available with --serve/--http"});
            }
            if (federate.emit() && federate.aggregate()) {
                errors.push_back(
                    {"--federate", "a process is either an emitter or the aggregator, not both"});
            } else if (federate.emit()) {
                check_addr(errors, "--federate", federate.emit_addr);
                if (serve.ingest_addr.empty()) {
                    errors.push_back({"--federate", "emit needs the daemon's --serve ingest"});
                }
                if (federate.emit_region.find_first_of("\t\n\r ") != std::string::npos) {
                    errors.push_back(
                        {"--federate", "region names cannot contain whitespace"});
                }
            } else if (federate.aggregate()) {
                check_addr(errors, "--federate", federate.aggregate_addr);
                if (serve.http_addr.empty()) {
                    errors.push_back(
                        {"--federate", "aggregate needs --http to serve the merged view"});
                }
                // The aggregator runs no engine: digests are its only
                // input and the emitters' journals its only durability.
                const std::pair<const char*, bool> engine_only[] = {
                    {"--serve", !serve.ingest_addr.empty()},
                    {"--checkpoint-dir", !checkpoint_dir.empty()},
                    {"--recover", recover},
                };
                for (const auto& [flag, set] : engine_only) {
                    if (set) {
                        errors.push_back({flag, "not available with --federate aggregate:"});
                    }
                }
            }
            if (!federate.journal_dir.empty() && !federate.emit()) {
                errors.push_back({"--fed-journal", "only meaningful with --federate emit:"});
            }
            if (federate.heartbeat_ms < 0 || federate.heartbeat_ms > 600000) {
                errors.push_back({"--fed-heartbeat-ms", "must be in [0, 600000] ms"});
            }
            if (federate.lag_ms < 1 || federate.lag_ms >= federate.stale_ms ||
                federate.stale_ms >= federate.partition_ms) {
                errors.push_back({"--fed-lag-ms/--fed-stale-ms/--fed-partition-ms",
                                  "staleness thresholds must be strictly increasing and >= 1"});
            }
            if (resume_stream && !recover) {
                errors.push_back({"--resume-stream", "requires --recover"});
            }
            break;
        }
        case run_mode::client: {
            check_addr(errors, "--connect", client.connect);
            const int actions = (client.get_path.empty() ? 0 : 1) +
                                (client.post_path.empty() ? 0 : 1) +
                                (client.stream_file.empty() ? 0 : 1);
            if (actions != 1) {
                errors.push_back({"--connect",
                                  "needs exactly one of --get, --post, --stream-trace"});
            }
            if (!client.post_path.empty() && client.data_file.empty()) {
                errors.push_back({"--post", "requires --data-file"});
            }
            if (client.post_path.empty() && !client.data_file.empty()) {
                errors.push_back({"--data-file", "only meaningful with --post"});
            }
            if (federate.enabled()) {
                errors.push_back({"--federate", "not available with --connect"});
            }
            if (lifecycle) {
                errors.push_back({"--lifecycle", "not available with --connect"});
            }
            if (diff) {
                errors.push_back({"--diff", "not available with --connect"});
            }
            if (resume_stream) {
                errors.push_back({"--resume-stream", "not available with --connect"});
            }
            break;
        }
        case run_mode::help:
            break;
    }
    return errors;
}

cli_parse_result parse_cli(int argc, const char* const* argv) {
    cli_parse_result result;
    engine_options& opt = result.opts;
    bool help = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                result.errors.push_back({std::string(arg), "missing value"});
                return "";
            }
            return argv[++i];
        };
        const auto int_value = [&](int& out) {
            const std::string_view text = value();
            if (!text.empty() && !parse_int(text, out)) {
                result.errors.push_back(
                    {std::string(arg), "expected an integer, got '" + std::string(text) + "'"});
            }
        };
        const auto i64_value = [&](std::int64_t& out) {
            const std::string_view text = value();
            if (text.empty()) return;
            const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
            if (ec != std::errc{} || ptr != text.data() + text.size()) {
                result.errors.push_back(
                    {std::string(arg), "expected an integer, got '" + std::string(text) + "'"});
            }
        };
        const auto u64_value = [&](std::uint64_t& out) {
            const std::string_view text = value();
            if (!text.empty() && !parse_u64(text, out)) {
                result.errors.push_back(
                    {std::string(arg),
                     "expected a non-negative integer, got '" + std::string(text) + "'"});
            }
        };
        if (arg == "--topo") {
            opt.topo_preset = value();
        } else if (arg == "--topo-file") {
            opt.topo_file = value();
        } else if (arg == "--export-topo") {
            opt.export_topo = value();
        } else if (arg == "--scenario") {
            opt.scenario_name = value();
        } else if (arg == "--minor") {
            opt.severe = false;
        } else if (arg == "--duration") {
            int_value(opt.duration_min);
        } else if (arg == "--customers") {
            int_value(opt.customers);
        } else if (arg == "--noise") {
            const std::string_view text = value();
            if (!text.empty() && !parse_double(text, opt.noise)) {
                result.errors.push_back(
                    {"--noise", "expected a number, got '" + std::string(text) + "'"});
            }
        } else if (arg == "--seed") {
            u64_value(opt.seed);
        } else if (arg == "--extended") {
            opt.extended = true;
        } else if (arg == "--shards") {
            const std::string_view text = value();
            if (text == "auto") {
                // One worker per hardware thread; the container may
                // report 0 (unknown), which means "sequential" here.
                opt.shards = static_cast<int>(std::thread::hardware_concurrency());
            } else if (!text.empty() && !parse_int(text, opt.shards)) {
                result.errors.push_back(
                    {"--shards",
                     "expected an integer or 'auto', got '" + std::string(text) + "'"});
            }
        } else if (arg == "--steal") {
            const std::string_view text = value();
            if (text == "on") {
                opt.steal = true;
            } else if (text == "off") {
                opt.steal = false;
            } else if (!text.empty()) {
                result.errors.push_back(
                    {"--steal", "expected on or off, got '" + std::string(text) + "'"});
            }
        } else if (arg == "--metrics") {
            opt.metrics = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--timeline") {
            opt.timeline = true;
        } else if (arg == "--record") {
            opt.record_file = value();
        } else if (arg == "--replay") {
            opt.replay_file = value();
        } else if (arg == "--faults") {
            opt.faults_spec = value();
        } else if (arg == "--checkpoint-dir") {
            opt.checkpoint_dir = value();
        } else if (arg == "--checkpoint-every") {
            int_value(opt.checkpoint_every);
        } else if (arg == "--recover") {
            opt.recover = true;
        } else if (arg == "--crash-after") {
            u64_value(opt.crash_after);
        } else if (arg == "--admission-budget") {
            u64_value(opt.admission_budget);
        } else if (arg == "--breaker") {
            opt.breaker = true;
        } else if (arg == "--sketch") {
            const std::string_view text = value();
            if (const auto mode = sketch::parse_counting_mode(text)) {
                opt.pipeline.pre.sketch.mode = *mode;
            } else if (!text.empty()) {
                result.errors.push_back(
                    {"--sketch", "expected on, off or auto, got '" + std::string(text) + "'"});
            }
        } else if (arg == "--lifecycle") {
            const std::string_view text = value();
            if (text == "on") {
                opt.lifecycle = true;
            } else if (text == "off") {
                opt.lifecycle = false;
            } else if (!text.empty()) {
                result.errors.push_back(
                    {"--lifecycle", "expected on or off, got '" + std::string(text) + "'"});
            }
        } else if (arg == "--flap-threshold") {
            int_value(opt.flap_threshold);
        } else if (arg == "--recurrence-window") {
            int_value(opt.recurrence_window_min);
        } else if (arg == "--auto-close-quiet") {
            int_value(opt.auto_close_quiet_min);
        } else if (arg == "--diff") {
            opt.diff = true;
        } else if (arg == "--sketch-threshold") {
            u64_value(opt.pipeline.pre.sketch.threshold);
        } else if (arg == "--watchdog-deadline") {
            u64_value(opt.watchdog_deadline);
        } else if (arg == "--health-json") {
            opt.health_json = value();
        } else if (arg == "--federate") {
            const std::string_view text = value();
            if (text.starts_with("emit:")) {
                const std::string_view rest = text.substr(5);
                const std::size_t at = rest.find('@');
                if (at == std::string_view::npos || at == 0 || at + 1 == rest.size()) {
                    result.errors.push_back(
                        {"--federate", "emit needs REGION@ADDR, got '" + std::string(text) + "'"});
                } else {
                    opt.federate.emit_region = std::string(rest.substr(0, at));
                    opt.federate.emit_addr = std::string(rest.substr(at + 1));
                }
            } else if (text.starts_with("aggregate:")) {
                const std::string_view rest = text.substr(10);
                if (rest.empty()) {
                    result.errors.push_back({"--federate", "aggregate needs an address"});
                } else {
                    opt.federate.aggregate_addr = std::string(rest);
                }
            } else if (!text.empty()) {
                result.errors.push_back(
                    {"--federate",
                     "expected emit:REGION@ADDR or aggregate:ADDR, got '" + std::string(text) +
                         "'"});
            }
        } else if (arg == "--fed-journal") {
            opt.federate.journal_dir = value();
        } else if (arg == "--fed-heartbeat-ms") {
            int_value(opt.federate.heartbeat_ms);
        } else if (arg == "--fed-lag-ms") {
            i64_value(opt.federate.lag_ms);
        } else if (arg == "--fed-stale-ms") {
            i64_value(opt.federate.stale_ms);
        } else if (arg == "--fed-partition-ms") {
            i64_value(opt.federate.partition_ms);
        } else if (arg == "--retry") {
            int_value(opt.retry);
        } else if (arg == "--retry-base-ms") {
            int_value(opt.retry_base_ms);
        } else if (arg == "--resume-stream") {
            opt.resume_stream = true;
        } else if (arg == "--serve") {
            opt.serve.ingest_addr = value();
        } else if (arg == "--http") {
            opt.serve.http_addr = value();
        } else if (arg == "--connect") {
            opt.client.connect = value();
        } else if (arg == "--get") {
            opt.client.get_path = value();
        } else if (arg == "--post") {
            opt.client.post_path = value();
        } else if (arg == "--data-file") {
            opt.client.data_file = value();
        } else if (arg == "--stream-trace") {
            opt.client.stream_file = value();
        } else if (arg == "--help" || arg == "-h") {
            help = true;
        } else {
            result.errors.push_back({std::string(arg), "unknown option"});
        }
    }
    result.mode = help                   ? run_mode::help
                  : opt.client.enabled() ? run_mode::client
                  // The aggregator is a long-running service too, even
                  // though it runs no ingest listener of its own.
                  : opt.serve.enabled() || opt.federate.aggregate() ? run_mode::serve
                                                                    : run_mode::batch;
    return result;
}

std::string cli_usage() {
    std::string out =
        "usage: skynet_cli [options]\n"
        "  --topo tiny|small|medium|large   topology preset (default small)\n"
        "  --topo-file FILE                 import topology from the text format\n"
        "  --export-topo FILE               write the topology and exit\n"
        "  --scenario NAME                  random|hardware|link|modification|software|\n"
        "                                   infrastructure|route|ddos|config|cable-cut|\n"
        "                                   gray|flapping-link|storm|maintenance|slow-burn\n"
        "  --minor                          inject the minor variant (default severe)\n"
        "  --duration MIN                   failure duration in minutes (default 5)\n"
        "  --customers N                    synthetic customers (default 400)\n"
        "  --noise R                        monitor glitch rate (default 0.02)\n"
        "  --seed N                         simulation seed (default 1)\n"
        "  --extended                       also run the user-telemetry/SRTE sources\n"
        "  --shards N|auto                  run the region-sharded engine with N workers\n"
        "                                   (auto = hardware threads; max 256)\n"
        "  --steal on|off                   deterministic work stealing between shards\n"
        "                                   (default on; reports stay byte-identical)\n"
        "  --metrics                        print per-stage engine metrics\n"
        "  --json                           print incidents as JSON digests\n"
        "  --timeline                       print an ASCII incident timeline\n"
        "  --record FILE                    save the raw alert trace\n"
        "  --replay FILE                    replay a recorded trace (skips the simulator)\n"
        "  --faults SPEC                    degrade the ingest stream deterministically, e.g.\n"
        "                                   'seed=3;dropout=0.2;dup=0.05;reorder=0.1;skew=5s;\n"
        "                                   skew_rate=0.3;corrupt=0.02;drop:ping@60s+120s'\n"
        "                                   (see DESIGN.md fault model)\n"
        "  --checkpoint-dir DIR             journal every batch/tick and write\n"
        "                                   barrier-consistent checkpoints into DIR\n"
        "  --checkpoint-every N             barriers between checkpoints (default 8)\n"
        "  --recover                        restore from --checkpoint-dir (newest valid\n"
        "                                   snapshot + journal replay) before streaming\n";
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "  --crash-after N                  crash drill: exit %d after the Nth journal\n"
                  "                                   record is durable, before it is applied\n",
                  persist::crash_exit_code);
    out += buf;
    out +=
        "  --admission-budget N             overload guard: admit at most N alerts per\n"
        "                                   tick window, shedding duplicates/other first\n"
        "  --breaker                        per-source circuit breakers (quarantine a\n"
        "                                   source emitting sustained garbage)\n"
        "  --lifecycle on|off               incident life-cycle manager: recurrence\n"
        "                                   linking, flap suppression, auto-close with\n"
        "                                   recovery confirmation (default off)\n"
        "  --flap-threshold N               re-opens within the recurrence window that\n"
        "                                   collapse a lineage into one flapping\n"
        "                                   incident (default 3; minimum 2)\n"
        "  --recurrence-window MIN          minutes a closed lineage stays linkable to\n"
        "                                   a recurrence at the same root (default 30)\n"
        "  --auto-close-quiet MIN           quiet minutes (no subtree alerts + healthy\n"
        "                                   ping) before an incident auto-closes\n"
        "                                   (default 6)\n"
        "  --diff                           print the ranked \"what changed\" diff\n"
        "                                   (new/escalated/de-escalated/resolved/\n"
        "                                   flapping) at every tick barrier\n"
        "  --sketch on|off|auto             count-min sketch for hot-path counting\n"
        "                                   (default auto: exact below --sketch-threshold,\n"
        "                                   sketched past it; surfaces as degraded.sketched)\n"
        "  --sketch-threshold N             exact-table cardinality that flips auto mode\n"
        "                                   to the sketch (default 65536)\n"
        "  --watchdog-deadline MS           sharded only: write off / recover a shard\n"
        "                                   making no progress for MS wall-clock ms\n"
        "                                   (defaults to 250 when --faults has stalls)\n"
        "  --health-json FILE               write the merged engine health report as\n"
        "                                   JSON at every tick barrier (atomic rename;\n"
        "                                   same schema as GET /v1/health)\n"
        "daemon mode:\n"
        "  --serve ADDR                     run as a daemon: streaming alert ingest on\n"
        "                                   ADDR (unix:PATH or tcp:HOST:PORT; the wire\n"
        "                                   format is the SKYNETJ1 journal stream)\n"
        "  --http ADDR                      JSON API: GET /v1/health /v1/report\n"
        "                                   /v1/incidents, POST /v1/ingest\n"
        "                                   (tcp:HOST:0 picks a free port, printed)\n"
        "  --resume-stream                  with --recover: the feeder restreams from\n"
        "                                   the top; skip the prefix the journal already\n"
        "                                   applied instead of re-closing incidents\n"
        "federation:\n"
        "  --federate emit:REGION@ADDR      stream this daemon's per-barrier incident\n"
        "                                   digests to the aggregator at ADDR\n"
        "  --federate aggregate:ADDR        run the global aggregator: merge region\n"
        "                                   digests from ADDR, serve the cross-region\n"
        "                                   ranking on --http (/v1/report /v1/regions)\n"
        "  --fed-journal DIR                emit: journal digests in DIR so a restarted\n"
        "                                   emitter still replays everything unacked\n"
        "  --fed-heartbeat-ms MS            emit: idle session cadence so the aggregator\n"
        "                                   can tell idle from partitioned (default 1000)\n"
        "  --fed-lag-ms MS                  aggregate: region health thresholds on the\n"
        "  --fed-stale-ms MS                time since last contact; must increase\n"
        "  --fed-partition-ms MS            (defaults 2000 / 5000 / 15000)\n"
        "client mode:\n"
        "  --connect ADDR                   talk to a daemon instead of running one\n"
        "  --get PATH                       HTTP GET (e.g. '/v1/incidents?loc=Region A')\n"
        "  --post PATH --data-file FILE     HTTP POST the file body\n"
        "  --stream-trace FILE              stream a recorded trace into --connect's\n"
        "                                   ingest socket with replay batching\n"
        "  --retry N                        client/emitter reconnects: N retries after\n"
        "                                   the first attempt (default 0)\n"
        "  --retry-base-ms MS               backoff base, doubling per retry with\n"
        "                                   deterministic jitter (default 100)\n";
    return out;
}

}  // namespace skynet::serve
