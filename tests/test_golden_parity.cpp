// Golden parity: FNV-1a-64 digests of engine outputs, recorded with the
// engine whose locator grouped connectivity pairwise and whose
// preprocessor scanned its sightings and open surges. Every other parity
// suite compares the engine with itself (sequential vs sharded, live vs
// recovered), so none of them can see a change of behaviour; these
// digests pin the behaviour itself:
//   * the sequential engine's ranked listing for each of the CLI's
//     --scenario kinds on seeds 1-3, built exactly as the CLI's batch
//     mode builds it;
//   * the same listing for a small 4-region flood;
//   * the preprocessor's event stream for randomized streams heavy in
//     traffic drops, surges and failure sightings, with out-of-order
//     arrivals, the eviction caps set, and a snapshot/import mid-stream.
//
// The digests depend on the standard library's random distributions and
// on floating-point codegen. On a mismatch the test prints the output
// and the toolchain; re-record only when a behaviour change is intended,
// from the printed "actual" row.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <sstream>
#include <string_view>

#include "flood_fixture.h"
#include "skynet/core/pipeline.h"
#include "skynet/serve/report_text.h"
#include "skynet/sim/engine.h"
#include "skynet/topology/generator.h"

namespace skynet {
namespace {

std::uint64_t fnv1a64(std::string_view text) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string toolchain() {
    std::string out = "compiler: " __VERSION__;
#ifdef NDEBUG
    out += ", NDEBUG";
#endif
#ifdef __OPTIMIZE__
    out += ", optimized";
#endif
    return out;
}

struct golden {
    const char* name;
    std::uint64_t seed;
    std::size_t count;  // incidents (listings) or events (preprocessor streams)
    std::uint64_t digest;
};

/// Finds the recorded row for (name, seed); nullptr when none is recorded.
const golden* find_golden(const std::vector<golden>& table, std::string_view name,
                          std::uint64_t seed) {
    for (const golden& g : table) {
        if (g.seed == seed && name == g.name) return &g;
    }
    return nullptr;
}

/// Asserts one recorded cell; on a mismatch (or a missing row) prints
/// the output, the toolchain and the row to paste when re-recording on
/// purpose.
void expect_golden(const golden* want, std::string_view name, std::uint64_t seed,
                   std::size_t count, const std::string& output) {
    const std::uint64_t digest = fnv1a64(output);
    if (want != nullptr && count == want->count && digest == want->digest) return;
    std::ostringstream msg;
    msg << name << " seed " << seed << ": ";
    if (want == nullptr) {
        msg << "no recorded row";
    } else {
        msg << "recorded " << want->count << " / 0x" << std::hex << want->digest << std::dec;
    }
    msg << ", actual " << count << " / 0x" << std::hex << digest << std::dec << "\n"
        << toolchain() << "\nactual row: {\"" << name << "\", " << seed << ", " << count
        << ", 0x" << std::hex << digest << std::dec << "ull},\n--- output ---\n"
        << output;
    ADD_FAILURE() << msg.str();
}

// --- the CLI's batch mode, one --scenario kind at a time -----------------

/// The CLI's default world for one --seed: small topology generated with
/// the seed, 400 customers, builtin catalog.
struct cli_world {
    topology topo;
    customer_registry customers;
    alert_type_registry registry = alert_type_registry::with_builtin_catalog();

    explicit cli_world(std::uint64_t seed) {
        generator_params params = generator_params::small();
        params.seed = seed;
        topo = generate_topology(params);
        rng crand(seed + 1);
        customers = customer_registry::generate(topo, 400, crand);
    }
};

const syslog_classifier& classifier() {
    static const syslog_classifier syslog = syslog_classifier::train_from_catalog();
    return syslog;
}

cli_world& cli_world_for(std::uint64_t seed) {
    static std::map<std::uint64_t, std::unique_ptr<cli_world>> worlds;
    auto& slot = worlds[seed];
    if (!slot) slot = std::make_unique<cli_world>(seed);
    return *slot;
}

using scenario_maker = std::function<std::unique_ptr<scenario>(const topology&, rng&)>;

/// The CLI's --scenario kinds (severe, its default), keyed as on the
/// command line.
const std::map<std::string, scenario_maker>& scenario_kinds() {
    static const std::map<std::string, scenario_maker> kinds = {
        {"random", [](const topology& t, rng& r) { return make_random_scenario(t, r, true); }},
        {"hardware",
         [](const topology& t, rng& r) { return make_device_hardware_failure(t, r, true); }},
        {"link", [](const topology& t, rng& r) { return make_link_failure(t, r, true); }},
        {"modification",
         [](const topology& t, rng& r) { return make_modification_error(t, r, true); }},
        {"software",
         [](const topology& t, rng& r) { return make_device_software_failure(t, r, true); }},
        {"infrastructure",
         [](const topology& t, rng& r) { return make_infrastructure_failure(t, r, true); }},
        {"route", [](const topology& t, rng& r) { return make_route_error(t, r, true); }},
        {"ddos", [](const topology& t, rng& r) { return make_security_ddos(t, r, 3); }},
        {"config",
         [](const topology& t, rng& r) { return make_configuration_error(t, r, true); }},
        {"gray", [](const topology& t, rng& r) { return make_gray_failure(t, r, true); }},
        {"flapping-link",
         [](const topology& t, rng& r) { return make_flapping_link(t, r, true); }},
        {"storm", [](const topology& t, rng& r) { return make_multi_cause_storm(t, r, true); }},
        {"maintenance",
         [](const topology& t, rng& r) { return make_maintenance_window(t, r); }},
        {"slow-burn",
         [](const topology& t, rng& r) { return make_slow_burn_degradation(t, r, true); }},
        {"cable-cut",
         [](const topology& t, rng&) -> std::unique_ptr<scenario> {
             for (const device& d : t.devices()) {
                 if (d.role == device_role::isr) {
                     return make_internet_entry_cut(
                         t, d.loc.ancestor_at(hierarchy_level::logic_site), 0.5);
                 }
             }
             return nullptr;
         }},
    };
    return kinds;
}

/// `skynet_cli --scenario <kind> --seed <seed>`: sequential engine,
/// default config, 5-minute severe failure one minute in, run to minute 8.
std::vector<incident_report> run_cli_scenario(const std::string& kind, std::uint64_t seed) {
    cli_world& w = cli_world_for(seed);
    skynet_engine engine(skynet_engine::deps{&w.topo, &w.customers, &w.registry, &classifier()});
    simulation_engine sim(&w.topo, &w.customers, engine_params{.tick = seconds(2), .seed = seed});
    sim.add_default_monitors(monitor_options{.noise_rate = 0.02});
    rng srand(seed + 2);
    std::unique_ptr<scenario> failure = scenario_kinds().at(kind)(w.topo, srand);
    if (failure == nullptr) throw std::runtime_error("no scenario for " + kind);
    sim.inject(std::move(failure), minutes(1), minutes(5));
    sim.run_until_batched(
        minutes(8), [&](std::span<const traced_alert> batch) { engine.ingest_batch(batch); },
        [&](sim_time now) { engine.tick(now, sim.state()); });
    engine.finish(sim.clock().now(), sim.state());
    return engine.take_reports();
}

/// Scenarios whose failure is expected (benign): an empty listing is the
/// right answer for them, so they are exempt from the non-empty check.
bool benign(std::string_view kind) { return kind == "maintenance"; }

const std::vector<golden> kScenarioGolden = {
    // clang-format off
    {"random", 1, 1, 0x8994f692980e5104ull},
    {"random", 2, 1, 0xf19624175f382c53ull},
    {"random", 3, 1, 0x685ba1bd283ba415ull},
    {"hardware", 1, 1, 0xa0da93fc544d2fa2ull},
    {"hardware", 2, 1, 0xcc7e7f25ca9f57d2ull},
    {"hardware", 3, 1, 0xa8b60426860b8c15ull},
    {"link", 1, 1, 0x3047f9b1da198c2full},
    {"link", 2, 1, 0x22da7de0ace1b6c4ull},
    {"link", 3, 1, 0xc38714b4ed3d3351ull},
    {"modification", 1, 1, 0x3dd326f77eec2282ull},
    {"modification", 2, 1, 0x610e97e902f90e00ull},
    {"modification", 3, 1, 0x16cbaa76034ace27ull},
    {"software", 1, 1, 0xd776c10ac75e6a6ull},
    {"software", 2, 1, 0x4c7417154a351ed8ull},
    {"software", 3, 1, 0xcf6c75bf28291480ull},
    {"infrastructure", 1, 2, 0xfd8596fbb095dd2full},
    {"infrastructure", 2, 1, 0x7fd8fcd9b01e997cull},
    {"infrastructure", 3, 1, 0xbb0666ad6dd071eaull},
    {"route", 1, 1, 0xc07fd81b82f62d1bull},
    {"route", 2, 1, 0xbd2157a9fe974cf2ull},
    {"route", 3, 1, 0xe8d3539a20780c7bull},
    {"ddos", 1, 3, 0x2c629b84c94e0101ull},
    {"ddos", 2, 3, 0x33ad65c967916da7ull},
    {"ddos", 3, 3, 0x312af2cdb82022d5ull},
    {"config", 1, 1, 0x543765de1cf9fe76ull},
    {"config", 2, 1, 0x1a3623abe72eeed6ull},
    {"config", 3, 1, 0x9b1f9eb513156017ull},
    {"gray", 1, 1, 0xf2c03b9070c99c33ull},
    {"gray", 2, 1, 0xd0d06f6c1771f46full},
    {"gray", 3, 1, 0xc6995863d97c4562ull},
    {"flapping-link", 1, 1, 0xd8bf05215d5fa2abull},
    {"flapping-link", 2, 1, 0xe401a3654abdb22ull},
    {"flapping-link", 3, 1, 0xa5ed416c1ccb94ebull},
    {"storm", 1, 3, 0xeff626f8c728d18dull},
    {"storm", 2, 3, 0x729e4f1b94f4fa13ull},
    {"storm", 3, 13, 0x132461f20c3f4022ull},
    {"maintenance", 1, 1, 0xfdf2a744739a8e8bull},
    {"maintenance", 2, 1, 0xb2610023c203eec2ull},
    {"maintenance", 3, 1, 0xd6ce63b95c5c03abull},
    {"slow-burn", 1, 1, 0x8d8f93eb4eb97dc3ull},
    {"slow-burn", 2, 1, 0x7a983e040585dcd8ull},
    {"slow-burn", 3, 1, 0x685150d0599abb3ull},
    {"cable-cut", 1, 1, 0x978f1a67b39c157dull},
    {"cable-cut", 2, 1, 0x586fb0278735a9cfull},
    {"cable-cut", 3, 1, 0xca7bc314395ba2b1ull},
    // clang-format on
};

class GoldenScenarioTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenScenarioTest, ListingMatchesRecordedDigest) {
    const std::string& kind = GetParam();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(kind + " seed " + std::to_string(seed));
        const std::vector<incident_report> reports = run_cli_scenario(kind, seed);
        if (!benign(kind)) {
            EXPECT_FALSE(reports.empty()) << "a failure scenario must produce incidents";
        }
        expect_golden(find_golden(kScenarioGolden, kind, seed), kind, seed, reports.size(),
                      serve::render_report_listing(reports));
    }
}

INSTANTIATE_TEST_SUITE_P(CliKinds, GoldenScenarioTest,
                         ::testing::Values("random", "hardware", "link", "modification",
                                           "software", "infrastructure", "route", "ddos",
                                           "config", "gray", "flapping-link", "storm",
                                           "maintenance", "slow-burn", "cable-cut"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             std::string name;
                             for (const char c : info.param) name += (c == '-') ? '_' : c;
                             return name;
                         });

TEST(GoldenScenarioTest, EveryCliKindIsCovered) {
    EXPECT_EQ(scenario_kinds().size(), 15u);
    EXPECT_EQ(kScenarioGolden.size(), 45u);
}

// --- the small 4-region flood --------------------------------------------

const std::vector<golden> kFloodGolden = {
    // clang-format off
    {"region4_flood", 9, 16, 0x2579bf58ab85e67full},
    // clang-format on
};

TEST(GoldenFloodTest, SequentialListingMatchesRecordedDigest) {
    test_flood::flood_world& w = test_flood::region4_world();
    skynet_engine engine(w.deps());
    const std::vector<incident_report> reports = test_flood::replay(engine);
    ASSERT_FALSE(reports.empty());
    expect_golden(find_golden(kFloodGolden, "region4_flood", 9), "region4_flood", 9,
                  reports.size(), serve::render_report_listing(reports));
}

// --- preprocessor event streams ------------------------------------------

struct stream_world {
    topology topo;
    alert_type_registry registry = alert_type_registry::with_builtin_catalog();
    std::vector<location> places;  // device paths and every aggregate above them

    stream_world() {
        generator_params p = generator_params::small();
        p.cities_per_region = 1;
        p.logic_sites_per_city = 1;
        topo = generate_topology(p);
        std::map<location, int> seen;
        for (const device& d : topo.devices()) {
            for (int lvl = 1; lvl <= static_cast<int>(hierarchy_level::device); ++lvl) {
                seen.emplace(d.loc.ancestor_at(static_cast<hierarchy_level>(lvl)), 0);
            }
        }
        for (const auto& [loc, unused] : seen) places.push_back(loc);
    }
};

/// One raw alert of the mix the three scanned rules feed on: traffic
/// drops (corroboration), traffic surges from both of their sources
/// (related merge), root-cause and probe-loss sightings (corroboration
/// witnesses), and a little of everything else.
raw_alert stream_alert(const stream_world& w, rng& rand, sim_time now) {
    struct kind {
        data_source source;
        const char* name;
    };
    static constexpr kind kinds[] = {
        {data_source::traffic_stats, "traffic drop"}, {data_source::snmp, "traffic drop"},
        {data_source::traffic_stats, "traffic surge"}, {data_source::snmp, "traffic surge"},
        {data_source::snmp, "link down"},             {data_source::snmp, "port down"},
        {data_source::ping, "packet loss"},           {data_source::snmp, "high cpu"},
        {data_source::out_of_band, "device inaccessible"},
    };
    static constexpr int weights[] = {6, 3, 6, 3, 3, 2, 3, 1, 1};
    int pick = static_cast<int>(rand.uniform_int(0, 27));
    std::size_t k = 0;
    while (pick >= weights[k]) pick -= weights[k++];
    raw_alert a;
    a.source = kinds[k].source;
    a.kind = kinds[k].name;
    a.loc = w.places[rand.index(w.places.size())];
    // Mostly on time, sometimes late, occasionally ahead (clock skew).
    a.timestamp = now - seconds(rand.uniform_int(0, 3) == 0 ? rand.uniform_int(0, 150) : 0);
    if (rand.chance(0.03)) a.timestamp = now + seconds(5);
    if (a.timestamp < 0) a.timestamp = 0;
    a.metric = static_cast<double>(rand.uniform_int(1, 100)) / 100.0;
    return a;
}

void append_event(std::string& out, const topology& topo, const preprocess_event& ev) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%c %u %" PRId64 " %" PRId64 " %d %.17g ",
                  ev.is_update ? 'U' : 'N', static_cast<unsigned>(ev.alert.type),
                  static_cast<std::int64_t>(ev.alert.when.begin),
                  static_cast<std::int64_t>(ev.alert.when.end), ev.alert.count, ev.alert.metric);
    out += buf;
    out += ev.alert.type_name;
    out += " @ ";
    out += topo.locations().path_of(ev.alert.loc_id).to_string();
    out += "\n";
}

struct stream_case {
    const char* name;
    std::size_t max_sightings;
    std::size_t max_pending_alerts;
};

constexpr stream_case kStreamCases[] = {
    {"stream_unbounded", 0, 0},
    {"stream_capped", 24, 40},
    {"stream_tight", 5, 6},
};

const std::vector<golden> kStreamGolden = {
    // clang-format off
    {"stream_unbounded", 1, 3406, 0xd350596c6663a3f4ull},
    {"stream_unbounded", 2, 3242, 0x7d554c14b194ffd2ull},
    {"stream_unbounded", 3, 3359, 0x6ada0bf40cf7a7c8ull},
    {"stream_capped", 1, 3412, 0xc8bb845df2a9e9dull},
    {"stream_capped", 2, 3248, 0x409d4fafab1d8cd3ull},
    {"stream_capped", 3, 3362, 0x4be5e31607f60e3full},
    {"stream_tight", 1, 3454, 0x2e186039e2f1e684ull},
    {"stream_tight", 2, 3316, 0x7aea29d7fc00462eull},
    {"stream_tight", 3, 3397, 0xf89477dc640c5601ull},
    // clang-format on
};

/// Feeds a randomized stream (arrival times that mostly advance but
/// sometimes step back past every window) and digests every event,
/// flush and the final counters. Halfway through, the state is exported
/// and imported into a fresh preprocessor that finishes the stream.
std::pair<std::size_t, std::string> run_stream(const stream_case& c, std::uint64_t seed) {
    static const stream_world w;
    preprocessor_config cfg;
    cfg.max_sightings = c.max_sightings;
    cfg.max_pending_alerts = c.max_pending_alerts;
    auto pre = std::make_unique<preprocessor>(&w.topo, &w.registry, nullptr, cfg);
    rng rand(seed);
    std::string out;
    std::size_t events = 0;
    sim_time now = minutes(10);
    constexpr int kAlerts = 6000;
    for (int i = 0; i < kAlerts; ++i) {
        if (i == kAlerts / 2) {
            auto restored = std::make_unique<preprocessor>(&w.topo, &w.registry, nullptr, cfg);
            restored->import_state(pre->export_state());
            pre = std::move(restored);
            out += "import\n";
        }
        now += seconds(rand.uniform_int(0, 3));
        sim_time arrival = now;
        if (rand.chance(0.05)) arrival = now - seconds(rand.uniform_int(1, 120));
        for (const preprocess_event& ev : pre->process(stream_alert(w, rand, arrival), arrival)) {
            append_event(out, w.topo, ev);
            ++events;
        }
        if (i % 16 == 15) {
            out += "flush\n";
            for (const preprocess_event& ev : pre->flush(now)) {
                append_event(out, w.topo, ev);
                ++events;
            }
        }
    }
    const preprocessor_stats& s = pre->stats();
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "stats %lld %lld %lld %lld %lld %lld %lld %lld %lld %lld\n",
                  static_cast<long long>(s.raw_in), static_cast<long long>(s.emitted_new),
                  static_cast<long long>(s.emitted_update),
                  static_cast<long long>(s.merged_identical),
                  static_cast<long long>(s.dropped_sporadic),
                  static_cast<long long>(s.dropped_unclassified),
                  static_cast<long long>(s.dropped_uncorroborated),
                  static_cast<long long>(s.merged_related),
                  static_cast<long long>(s.rejected_malformed),
                  static_cast<long long>(s.skew_clamped));
    out += buf;
    return {events, out};
}

TEST(GoldenPreprocessorTest, EventStreamsMatchRecordedDigests) {
    for (const stream_case& c : kStreamCases) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
            const auto [events, output] = run_stream(c, seed);
            EXPECT_GT(events, 0u);
            // Every rule the stream is built to exercise fired.
            EXPECT_NE(output.find("abnormal traffic decline"), std::string::npos);
            expect_golden(find_golden(kStreamGolden, c.name, seed), c.name, seed, events,
                          output);
        }
    }
    EXPECT_EQ(kStreamGolden.size(), std::size(kStreamCases) * 3);
}

}  // namespace
}  // namespace skynet
