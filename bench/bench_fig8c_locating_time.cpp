// Figure 8c: the time cost of locating vs alert volume.
//
// Replays recorded alert floods of increasing size, up to 10^5 alerts,
// through the preprocessor + locator and measures wall-clock locating
// time, also per alert. The paper's claims (§6.2): time grows with alert
// count and stays under 10 s even at O(10^4-10^5) alerts (minute-level
// SLA), and without the preprocessor it balloons. With the preprocessor
// the per-alert cost should stay roughly flat as the flood grows (near-
// linear growth): per-tick work follows what changed, not all live state.
#include <cstdio>

#include "harness.h"

using namespace skynet;

namespace {

/// Captures the raw alerts of one severe flood episode for replay.
std::vector<std::pair<raw_alert, sim_time>> record_flood(bench::world& w, std::uint64_t seed,
                                                         int concurrent) {
    simulation_engine sim(&w.topo, &w.customers, engine_params{.tick = seconds(2), .seed = seed});
    sim.add_default_monitors(monitor_options{.noise_rate = 0.05});
    rng srand(seed + 1);
    // Stack the deck for volume: infrastructure failures flood the most
    // (a dark site re-alerts from every survivor's viewpoint), plus the
    // random severe mix.
    for (int i = 0; i < concurrent; ++i) {
        std::unique_ptr<scenario> s = (i % 3 == 0)
                                          ? make_infrastructure_failure(w.topo, srand, true)
                                          : make_random_scenario(w.topo, srand, true);
        sim.inject(std::move(s), minutes(1) + seconds(20) * i, minutes(10));
    }
    std::vector<std::pair<raw_alert, sim_time>> out;
    sim.run_until(minutes(13), [&out](const raw_alert& a, sim_time arrival) {
        out.emplace_back(a, arrival);
    });
    return out;
}

double replay(bench::world& w, const std::vector<std::pair<raw_alert, sim_time>>& flood,
              std::size_t limit, bool with_preprocessor) {
    skynet_config cfg;
    if (!with_preprocessor) {
        // Ablation: feed the locator near-raw — disable every
        // consolidation rule so each raw alert becomes a tree insertion.
        cfg.pre.dedup_window = 0;
        cfg.pre.persistence_threshold = 1;
        cfg.pre.cross_source = false;
        cfg.pre.consolidate_related = false;
    }
    skynet_engine skynet({&w.topo, &w.customers, &w.registry, &w.syslog}, cfg);
    network_state state(&w.topo, &w.customers);

    const bench::stopwatch timer;
    sim_time last_tick = 0;
    std::size_t n = 0;
    for (const auto& [alert, arrival] : flood) {
        if (n++ >= limit) break;
        skynet.ingest(alert, arrival);
        if (arrival - last_tick >= seconds(2)) {
            skynet.tick(arrival, state);
            last_tick = arrival;
        }
    }
    skynet.finish(last_tick + minutes(20), state);
    (void)skynet.take_reports();
    return timer.seconds();
}

}  // namespace

int main() {
    std::printf("=== Figure 8c: the time cost of locating ===\n\n");
    bench::world w(generator_params::medium(), 600, 9);

    // Record a large flood once; replay prefixes of increasing size.
    std::vector<std::pair<raw_alert, sim_time>> flood = record_flood(w, 11, 16);
    std::printf("recorded flood: %zu raw alerts\n\n", flood.size());

    std::printf("%10s %18s %12s %22s %12s\n", "alerts", "with preprocessor", "us/alert",
                "without preprocessor", "us/alert");
    for (const std::size_t limit : {2000u, 5000u, 10000u, 20000u, 40000u, 70000u, 100000u}) {
        if (limit > flood.size() * 2) break;
        const std::size_t n = std::min<std::size_t>(limit, flood.size());
        const double with_pre = replay(w, flood, n, true);
        const double without_pre = replay(w, flood, n, false);
        std::printf("%10zu %16.3fs %12.2f %20.3fs %12.2f\n", n, with_pre,
                    with_pre * 1e6 / static_cast<double>(n), without_pre,
                    without_pre * 1e6 / static_cast<double>(n));
    }
    std::printf("\nPaper shape: locating grows with alert count, stays well under\n"
                "the 10 s worst case with the preprocessor (near-linear: the\n"
                "us/alert column stays roughly flat); without it the cost\n"
                "inflates toward minutes.\n");
    return 0;
}
