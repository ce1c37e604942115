// Multi-region sharded parity on the small 4-region flood: 2 and 4
// shards, work stealing on and off, each configuration run three times,
// against one sequential reference. The flood keeps every region busy at
// once, so the shards' engines really run concurrently over the shared
// topology, location table and registries. Under the tsan preset a race
// on that shared state, or an order that varies from run to run (a
// per-engine index iterated in hash or pointer order, say), shows up
// here as a data race or a listing that differs from the reference.
#include <gtest/gtest.h>

#include <tuple>

#include "flood_fixture.h"
#include "skynet/core/sharded_engine.h"
#include "skynet/serve/report_text.h"

namespace skynet {
namespace {

skynet_config flood_config() {
    skynet_config cfg;
    cfg.loc.deterministic_ids = true;  // what the sharded engine runs with
    return cfg;
}

/// Text and JSON listings of the sequential replay, computed once.
const std::pair<std::string, std::string>& reference_listings() {
    static const std::pair<std::string, std::string> listings = [] {
        skynet_engine seq(test_flood::region4_world().deps(), flood_config());
        const std::vector<incident_report> reports = test_flood::replay(seq);
        return std::pair{serve::render_report_listing(reports),
                         serve::render_report_listing(reports, {.json = true})};
    }();
    return listings;
}

class RegionFloodParityTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(RegionFloodParityTest, ShardedListingMatchesSequentialEveryRun) {
    const auto [shards, steal] = GetParam();
    const auto& [want_text, want_json] = reference_listings();
    ASSERT_NE(want_text.find("Incident"), std::string::npos)
        << "the reference listing must not be empty";
    std::uint64_t stolen = 0;
    for (int run = 0; run < 3; ++run) {
        SCOPED_TRACE("run " + std::to_string(run));
        sharded_config scfg;
        scfg.shards = shards;
        scfg.steal = steal;
        scfg.engine = flood_config();
        // Small batches: many stealable jobs per shard.
        scfg.max_ingest_batch = 8;
        sharded_engine eng(test_flood::region4_world().deps(), scfg);
        const std::vector<incident_report> reports = test_flood::replay(eng);
        ASSERT_FALSE(reports.empty());
        EXPECT_EQ(serve::render_report_listing(reports), want_text);
        EXPECT_EQ(serve::render_report_listing(reports, {.json = true}), want_json);
        stolen += eng.metrics().steal.batches_stolen;
    }
    if (steal) {
        // Otherwise the steal-on rows test only the steal-off path.
        EXPECT_GT(stolen, 0u) << "no batch was stolen in three runs";
    } else {
        EXPECT_EQ(stolen, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndStealing, RegionFloodParityTest,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{4}), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, bool>>& info) {
        return std::to_string(std::get<0>(info.param)) + "_shards_steal_" +
               (std::get<1>(info.param) ? "on" : "off");
    });

}  // namespace
}  // namespace skynet
