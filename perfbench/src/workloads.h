// The three workloads. Each builds its inputs from cfg.seed, checks the
// system's outputs, and fills `out` with every end-to-end and per-layer
// metric (or stops at the first failed check).
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

/// Recorded 4-region flood through the batch-CLI production path:
/// pass-through guard, durable session, sequential engine, lifecycle,
/// incident store and health JSON at every barrier, then recovery.
void run_flood_seq(const run_config& cfg, result& out);

/// Synthetic single-region storm through the overload controller
/// (breakers on, sketch auto, admission budget) into a sequential engine.
void run_storm_guarded(const run_config& cfg, result& out);

/// The recorded flood streamed over the SKYNETJ1 wire into a 2-shard
/// daemon while an open-loop poller reads the HTTP API.
void run_serve_flood(const run_config& cfg, result& out);

}  // namespace perfbench
