// One service-facing option surface for the whole stack.
//
// Five PRs of growth accreted options in layers: the pipeline's
// skynet_config, the sharded engine's steal/watchdog knobs, the
// persist layer's checkpoint settings, the overload controller's
// admission/breaker switches, and now the daemon's listen addresses.
// engine_options is the single aggregate the batch CLI and the daemon
// both parse into, with one validate() that cross-checks every block
// and returns structured errors (option + message) instead of
// exit(2)-ing from scattered call sites.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "skynet/core/pipeline.h"
#include "skynet/core/sharded_engine.h"
#include "skynet/lifecycle/manager.h"
#include "skynet/overload/controller.h"

namespace skynet::serve {

/// One rejected setting: which option and why.
struct option_error {
    std::string option;   ///< flag spelling, e.g. "--checkpoint-every"
    std::string message;

    [[nodiscard]] std::string render() const { return option + ": " + message; }
};

/// What the process is being asked to be.
enum class run_mode : std::uint8_t {
    batch,   ///< classic one-shot: simulate/replay, print, exit
    serve,   ///< long-running daemon (--serve / --http)
    client,  ///< talk to a daemon (--connect)
    help,    ///< --help
};

/// Daemon-only settings.
struct serve_options {
    std::string ingest_addr;  ///< --serve: streaming-ingest socket
    std::string http_addr;    ///< --http: JSON API socket

    [[nodiscard]] bool enabled() const noexcept {
        return !ingest_addr.empty() || !http_addr.empty();
    }
};

/// Federation settings (--federate and friends). A process is either a
/// per-region emitter (a daemon whose barrier reports stream out as
/// digests) or the global aggregator (no engine, merges digests from
/// every region); the one --federate flag picks the role:
///   --federate emit:REGION@ADDR    this daemon is region REGION, its
///                                  digests go to the aggregator at ADDR
///   --federate aggregate:ADDR      run the aggregator, listening on ADDR
struct federate_options {
    std::string emit_region;     ///< emit: region name
    std::string emit_addr;       ///< emit: aggregator address to dial
    std::string aggregate_addr;  ///< aggregate: federation listen address
    std::string journal_dir;     ///< --fed-journal: digest journal directory
    int heartbeat_ms{1000};      ///< --fed-heartbeat-ms; 0 = no idle sessions
    // Staleness thresholds (see federate::health_config); must increase.
    std::int64_t lag_ms{2000};
    std::int64_t stale_ms{5000};
    std::int64_t partition_ms{15000};

    [[nodiscard]] bool emit() const noexcept { return !emit_addr.empty(); }
    [[nodiscard]] bool aggregate() const noexcept { return !aggregate_addr.empty(); }
    [[nodiscard]] bool enabled() const noexcept { return emit() || aggregate(); }
};

/// Client-only settings (--connect and friends).
struct client_options {
    std::string connect;      ///< daemon address to talk to
    std::string get_path;     ///< --get: HTTP GET this path (with query)
    std::string post_path;    ///< --post: HTTP POST this path
    std::string data_file;    ///< --data-file: body for --post
    std::string stream_file;  ///< --stream-trace: trace to stream-ingest

    [[nodiscard]] bool enabled() const noexcept { return !connect.empty(); }
};

/// The unified option aggregate. Field defaults are the library
/// defaults; parse_cli() fills it from argv and validate() cross-checks
/// the blocks for the chosen run mode.
struct engine_options {
    // Topology & scenario.
    std::string topo_preset{"small"};
    std::string topo_file;
    std::string export_topo;
    std::string scenario_name{"random"};
    bool severe{true};
    bool extended{false};
    int duration_min{5};
    int customers{400};
    double noise{0.02};
    std::uint64_t seed{1};

    // Pipeline & sharding.
    /// Upper bound for --shards. Shards cost a thread, a bounded queue
    /// and a steal board each; past a few hundred the fan-out stops
    /// meaning "one worker per region" and starts meaning "misparsed
    /// flag", so validate() refuses rather than oversubscribing.
    static constexpr int kMaxShards = 256;
    skynet_config pipeline{};
    int shards{0};  ///< 0 = sequential engine; --shards auto = hardware_concurrency
    bool steal{true};  ///< --steal on|off: deterministic work stealing between shards
    std::uint64_t watchdog_deadline{0};  ///< ms; 0 = off

    // Overload control.
    std::uint64_t admission_budget{0};  ///< alerts per tick window; 0 = off
    bool breaker{false};

    // Incident life-cycle management (--lifecycle and friends).
    bool lifecycle{false};          ///< --lifecycle on|off (default off)
    int flap_threshold{3};          ///< re-opens within the window that mark flapping
    int recurrence_window_min{30};  ///< minutes a closed lineage stays linkable
    int auto_close_quiet_min{6};    ///< quiet minutes before auto-close
    bool diff{false};               ///< --diff: print the per-barrier "what changed" diff

    // Durability.
    std::string checkpoint_dir;
    int checkpoint_every{8};
    bool recover{false};
    std::uint64_t crash_after{0};

    // Recording / replay / fault injection.
    std::string record_file;
    std::string replay_file;
    std::string faults_spec;

    // Reporting.
    bool json{false};
    bool timeline{false};
    bool metrics{false};
    std::string health_json;

    // Service surfaces.
    serve_options serve;
    client_options client;
    federate_options federate;

    // Reconnect policy shared by the --connect client and the federation
    // emitter: --retry N attempts after the first try, exponential
    // backoff from --retry-base-ms with deterministic jitter.
    int retry{0};
    int retry_base_ms{100};

    /// --resume-stream: a recovered daemon expects its feeder to replay
    /// the original stream from the top and silently skips the prefix the
    /// journal already applied (instead of re-closing incidents). Only
    /// meaningful with --recover.
    bool resume_stream{false};

    /// The overload controller config these options describe.
    [[nodiscard]] overload::controller_config overload_config() const;

    /// The life-cycle manager config these options describe.
    [[nodiscard]] lifecycle::config lifecycle_config() const;

    /// The sharded-engine config these options describe.
    [[nodiscard]] sharded_config sharded() const;

    /// Cross-checks every block for `mode`. Empty vector = valid. Each
    /// entry names the offending flag, so callers can print
    ///   skynet_cli: --crash-after: requires --checkpoint-dir
    /// or serialize the list into an API error.
    [[nodiscard]] std::vector<option_error> validate(run_mode mode) const;
};

/// parse_cli() outcome: the aggregate, the mode argv implies, and any
/// parse-level errors (unknown flag, missing value, malformed number).
struct cli_parse_result {
    engine_options opts;
    run_mode mode{run_mode::batch};
    std::vector<option_error> errors;

    [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
};

/// Parses argv (both the batch CLI's classic flags and the daemon's)
/// without exiting; callers decide how to surface the errors. Mode:
/// --help wins, then --connect (client), then --serve/--http (serve),
/// else batch.
[[nodiscard]] cli_parse_result parse_cli(int argc, const char* const* argv);

/// The full usage text (batch + daemon + client flags).
[[nodiscard]] std::string cli_usage();

}  // namespace skynet::serve
