// Load generation: the recorded multi-region flood, the synthetic guarded
// storm, the replay cadence both the batch CLI and the wire streamer use,
// and the plain sequential reference run the correctness checks compare
// against. Inputs depend only on the seed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "skynet/core/pipeline.h"
#include "skynet/sim/trace.h"

namespace perfbench {

/// One replay step: a batch (possibly empty) followed by a barrier.
struct record {
    std::vector<skynet::traced_alert> batch;
    skynet::sim_time barrier{0};
    bool finish{false};
};

/// The finish barrier lands this long after the last tick (the batch
/// CLI's --replay convention).
inline constexpr skynet::sim_duration finish_grace = skynet::minutes(20);

/// Records the 4-region severe flood: an internet-entry cut at every ISR
/// logic site plus a fixed set of infrastructure, DDoS and hardware
/// failures, observed by the twelve monitors with 25% noise over six
/// simulated minutes. The flood is one fixed recording; the seed shuffles
/// the arrival order of the alerts within each tick. One record per
/// 2-second simulator tick (180), then the finish barrier. Location
/// ids are cleared, as in a trace read back from disk or off the wire, so
/// the system interns them in its own world.
[[nodiscard]] std::vector<record> record_region_flood(std::uint64_t seed);

/// The SKYNETJ1 byte stream (magic plus framed records) for `records`.
[[nodiscard]] std::string wire_stream(const std::vector<record>& records);

[[nodiscard]] std::size_t alert_count(const std::vector<record>& records);

/// Report listing of a plain sequential engine fed `records`; the
/// reference every production path must reproduce byte for byte.
/// `incidents` receives the report count.
[[nodiscard]] std::string reference_listing(const world& w, const skynet::skynet_config& cfg,
                                            const std::vector<record>& records,
                                            std::size_t& incidents);

/// One 2-second admission window of the storm.
struct storm_window {
    skynet::sim_time at{0};
    std::vector<std::vector<skynet::traced_alert>> batches;
};

/// The synthetic single-region storm: device-attributed failure,
/// root-cause and abnormal alerts, verbatim repeats of one hot alert, one
/// data source emitting only malformed alerts, and burst windows whose
/// distinct-key tail exceeds the 65 536-key sketch threshold.
[[nodiscard]] std::vector<storm_window> make_storm(const world& w, std::uint64_t seed);

[[nodiscard]] std::size_t alert_count(const std::vector<storm_window>& storm);

}  // namespace perfbench
