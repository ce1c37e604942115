#include "inputs.h"

#include <map>

#include "skynet/persist/journal.h"
#include "skynet/serve/report_text.h"
#include "skynet/serve/wire.h"
#include "skynet/sim/engine.h"
#include "skynet/sim/network_state.h"
#include "skynet/sim/scenario.h"

namespace perfbench {

using namespace skynet;

namespace {

/// splitmix64: a stable generator whose draws do not depend on the
/// standard library's distribution implementations.
struct draw {
    std::uint64_t state;
    std::uint64_t next() {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

/// Simulator seed of the one recorded flood.
constexpr std::uint64_t kFloodSeed = 10;

}  // namespace

std::vector<record> record_region_flood(std::uint64_t seed) {
    const std::unique_ptr<world> w = make_flood_world();
    simulation_engine sim(&w->topo, &w->customers,
                          engine_params{.tick = seconds(2), .seed = kFloodSeed});
    sim.add_default_monitors(monitor_options{.noise_rate = 0.25});
    std::map<std::string, location> sites;  // every ISR logic site, all regions
    for (const device& d : w->topo.devices()) {
        if (d.role != device_role::isr) continue;
        const location ls = d.loc.ancestor_at(hierarchy_level::logic_site);
        sites.emplace(ls.to_string(), ls);
    }
    for (const auto& [key, ls] : sites) {
        sim.inject(make_internet_entry_cut(w->topo, ls, 0.6), minutes(1), minutes(4));
    }
    rng srand(11);
    for (int i = 0; i < 8; ++i) {
        sim.inject(make_infrastructure_failure(w->topo, srand, true), minutes(1), minutes(4));
    }
    for (int i = 0; i < 4; ++i) {
        sim.inject(make_security_ddos(w->topo, srand, 3), minutes(1), minutes(4));
    }
    for (int i = 0; i < 8; ++i) {
        sim.inject(make_device_hardware_failure(w->topo, srand, true), minutes(1), minutes(4));
    }
    std::vector<record> out;
    record current;
    sim.run_until_batched(
        minutes(6),
        [&current](std::span<const traced_alert> batch) {
            for (traced_alert t : batch) {
                t.alert.loc_id = invalid_location_id;
                t.alert.src_id = invalid_location_id;
                t.alert.dst_id = invalid_location_id;
                current.batch.push_back(std::move(t));
            }
        },
        [&](sim_time now) {
            current.barrier = now;
            out.push_back(std::move(current));
            current = record{};
        });
    out.push_back(record{.batch = {}, .barrier = sim.clock().now() + finish_grace, .finish = true});

    // The seed shuffles the arrival order within each tick. Another
    // recording would move the heaviest ticks and the checkpointed state,
    // and with them tick_p99 and recover_s, by up to a fifth.
    draw rand{seed * 0x2545f4914f6cdd1dull + 7};
    for (record& r : out) {
        for (std::size_t i = r.batch.size(); i > 1; --i) {
            std::swap(r.batch[i - 1], r.batch[rand.next() % i]);
        }
    }
    return out;
}

std::string wire_stream(const std::vector<record>& records) {
    std::string bytes{persist::journal_magic};
    std::string payload;
    for (const record& r : records) {
        if (!r.batch.empty()) {
            persist::encode_batch_payload(payload, r.batch);
            bytes += serve::frame_record(persist::record_type::batch, payload);
        }
        bytes += serve::frame_record(
            r.finish ? persist::record_type::finish : persist::record_type::tick,
            persist::encode_barrier_payload(r.barrier));
    }
    return bytes;
}

std::size_t alert_count(const std::vector<record>& records) {
    std::size_t n = 0;
    for (const record& r : records) n += r.batch.size();
    return n;
}

std::string reference_listing(const world& w, const skynet_config& cfg,
                              const std::vector<record>& records, std::size_t& incidents) {
    skynet_engine engine({&w.topo, &w.customers, &w.registry, &w.syslog}, cfg);
    const network_state idle(&w.topo, &w.customers);
    for (const record& r : records) {
        if (!r.batch.empty()) engine.ingest_batch(std::span<const traced_alert>(r.batch));
        if (r.finish) {
            engine.finish(r.barrier, idle);
        } else {
            engine.tick(r.barrier, idle);
        }
    }
    const std::vector<incident_report> reports = engine.take_reports();
    incidents = reports.size();
    return serve::render_report_listing(reports);
}

namespace {

constexpr std::size_t kStormWindows = 150;
constexpr std::size_t kWindowAlerts = 4000;
constexpr std::size_t kBatchAlerts = 2000;
constexpr std::size_t kBurstEvery = 150;  // one burst, 0.7% of the ticks: below the p99
constexpr std::size_t kBurstTail = 72000;  // distinct keys per burst window

raw_alert device_alert(const world& w, device_id dev, data_source source, const char* kind,
                       sim_time timestamp) {
    raw_alert a;
    a.source = source;
    a.kind = kind;
    a.device = dev;
    a.loc = w.topo.device_at(dev).loc;
    a.timestamp = timestamp;
    return a;
}

}  // namespace

std::vector<storm_window> make_storm(const world& w, std::uint64_t seed) {
    // Single region: every device under the region of device 0.
    const location region = w.topo.devices().front().loc.ancestor_at(hierarchy_level::region);
    std::vector<device_id> devices;
    for (const device& d : w.topo.devices()) {
        if (d.loc.ancestor_at(hierarchy_level::region) == region) devices.push_back(d.id);
    }
    const device_id hot = devices.front();
    draw rand{seed * 0x2545f4914f6cdd1dull + 1};
    const auto pick = [&] { return devices[rand.next() % devices.size()]; };

    std::vector<storm_window> storm(kStormWindows);
    for (std::size_t win = 0; win < kStormWindows; ++win) {
        const sim_time now = seconds(2) * static_cast<sim_time>(win + 1);
        std::vector<traced_alert> alerts;
        alerts.reserve(kWindowAlerts);
        for (std::size_t k = 0; k < kWindowAlerts; ++k) {
            const std::uint64_t r = rand.next();
            const sim_time ts = now - static_cast<sim_time>((r >> 8) % 5) * 100;
            raw_alert a;
            switch (r % 20) {
                case 0: case 1: case 2: case 3: case 4:  // 25% failure
                    a = device_alert(w, pick(), data_source::traffic_stats, "sflow packet loss", ts);
                    break;
                case 5: case 6: case 7:  // 15% root cause
                    a = device_alert(w, pick(), data_source::snmp, "link down", ts);
                    break;
                case 8: case 9: case 10: case 11:  // 20% abnormal
                    a = device_alert(w, pick(), data_source::traffic_stats, "traffic surge", ts);
                    break;
                case 12:  // 5% from the one malformed source
                    a = device_alert(w, pick(), data_source::patrol_inspection,
                                     "garbled sweep output", ts);
                    break;
                default:  // 35% verbatim repeats of one hot alert
                    a = device_alert(w, hot, data_source::snmp, "link down", now);
                    break;
            }
            alerts.push_back(traced_alert{.alert = std::move(a), .arrival = now});
        }
        if (win % kBurstEvery == kBurstEvery / 2) {
            // Burst: a distinct (device, timestamp) tail past the sketch
            // threshold of the guard's per-window dedup set.
            for (std::size_t k = 0; k < kBurstTail; ++k) {
                const device_id dev = devices[k % devices.size()];
                const auto back = static_cast<sim_time>(1 + k / devices.size());
                alerts.push_back(traced_alert{
                    .alert = device_alert(w, dev, data_source::traffic_stats, "traffic surge",
                                          now - back),
                    .arrival = now});
            }
        }
        storm_window& sw = storm[win];
        sw.at = now;
        for (std::size_t from = 0; from < alerts.size(); from += kBatchAlerts) {
            const std::size_t to = std::min(alerts.size(), from + kBatchAlerts);
            sw.batches.emplace_back(alerts.begin() + static_cast<std::ptrdiff_t>(from),
                                    alerts.begin() + static_cast<std::ptrdiff_t>(to));
        }
    }
    return storm;
}

std::size_t alert_count(const std::vector<storm_window>& storm) {
    std::size_t n = 0;
    for (const storm_window& sw : storm) {
        for (const auto& b : sw.batches) n += b.size();
    }
    return n;
}

}  // namespace perfbench
