// Copy-on-write alert lists: a copy taken earlier never changes.
//
// The list type on its own (every write path detaches, an unshared list
// is written in place, a copy dropped on another thread lets the owner
// write in place with no race), then the engine: a report and a
// checkpoint taken at a barrier of the 4-region flood render the same
// bytes after the engine has appended to and refreshed the incidents they
// share alert lists with — on the sequential engine, and on 4 shards with
// stealing on, where the shard workers write while the test reads.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "flood_fixture.h"
#include "skynet/common/shared_list.h"
#include "skynet/core/sharded_engine.h"
#include "skynet/persist/report_codec.h"
#include "skynet/persist/snapshot.h"
#include "skynet/serve/report_text.h"

namespace skynet {
namespace {

// --- the list type ---------------------------------------------------------

TEST(SharedListTest, CopiesShareOneBufferAndReadsNeverClone) {
    shared_list<int> list(std::vector<int>{1, 2, 3});
    const shared_list<int> copy = list;
    EXPECT_TRUE(list.shared());
    EXPECT_EQ(list.data(), copy.data());
    int sum = 0;
    for (const int x : copy) sum += x;
    EXPECT_EQ(sum, 6);
    EXPECT_EQ(copy.size(), 3u);
    EXPECT_EQ(copy[1], 2);
    EXPECT_EQ(list.data(), copy.data()) << "a read cloned the buffer";

    const shared_list<int> moved = std::move(list);
    EXPECT_EQ(moved.data(), copy.data());
    EXPECT_TRUE(list.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
}

/// Decodes `items` through the persist codec into `list`, as a snapshot
/// or digest reader does.
void decode_into(shared_list<std::string>& list, const std::vector<std::string>& items) {
    std::string bytes;
    persist::codec::path_writer writer;
    persist::codec::encoder enc{bytes, writer};
    enc.list(items, 4, [&](const std::string& s) { enc.str(s); });
    persist::codec::reader in(bytes);
    persist::codec::path_reader reader;
    persist::codec::decoder dec{in, reader};
    dec.list(list, 4, [&](std::string& s) { dec.str(s); });
    ASSERT_TRUE(in.ok()) << in.error();
}

TEST(SharedListTest, EveryWritePathLeavesEarlierCopiesUnchanged) {
    const std::vector<std::string> original = {"link down", "port down", "packet loss"};
    using list = shared_list<std::string>;
    const std::vector<std::pair<const char*, std::function<void(list&)>>> writes = {
        {"edit", [](list& l) { l.edit()[0] = "changed"; }},
        {"push_back", [](list& l) { l.push_back("appended"); }},
        {"reserve", [](list& l) { l.reserve(64); }},
        {"clear", [](list& l) { l.clear(); }},
        {"decoder assignment", [](list& l) { decode_into(l, {"decoded"}); }},
    };
    for (const auto& [name, write] : writes) {
        SCOPED_TRACE(name);
        list written(original);
        const list held = written;
        const std::string* buffer = held.data();
        write(written);
        EXPECT_EQ(held.vec(), original);
        EXPECT_EQ(held.data(), buffer) << "the held copy moved";
        EXPECT_FALSE(held.shared()) << "the writer still shares the held buffer";
        EXPECT_NE(written.data(), held.data());
    }
}

TEST(SharedListTest, UnsharedListIsWrittenInPlace) {
    shared_list<int> list(std::vector<int>{1, 2, 3});
    list.reserve(16);
    const int* buffer = list.data();
    list.edit()[0] = 7;
    list.push_back(4);
    EXPECT_EQ(list.data(), buffer);
    {
        const shared_list<int> gone = list;  // shared, then alone again
    }
    EXPECT_FALSE(list.shared());
    list.push_back(5);
    EXPECT_EQ(list.data(), buffer);
    EXPECT_EQ(list.vec(), (std::vector<int>{7, 2, 3, 4, 5}));
    list.clear();
    EXPECT_TRUE(list.empty());
    list.push_back(9);
    EXPECT_EQ(list.data(), buffer) << "clear() let go of an unshared buffer";
}

TEST(SharedListTest, CopyDroppedOnAnotherThreadIsWrittenInPlace) {
    // The reader's only link to the writer is the buffer's count: it reads
    // its copy and drops it; the writer waits until it is alone, then
    // writes in place. Without the release/acquire pair on the count,
    // ThreadSanitizer reports the element reads and writes as a race.
    for (int round = 0; round < 100; ++round) {
        shared_list<int> list(std::vector<int>(64, round));
        const int* buffer = list.data();
        std::thread reader([copy = list, round]() mutable {
            long sum = 0;
            for (const int x : copy) sum += x;
            EXPECT_EQ(sum, 64L * round);
            copy = shared_list<int>{};
        });
        while (list.shared()) std::this_thread::yield();
        list.edit()[0] = -1;
        EXPECT_EQ(list.data(), buffer);
        reader.join();
    }
}

// --- the engine: what a barrier hands out stays as it was ------------------

/// Every field of the reports, in the persist codec's encoding.
std::string encode_reports(const std::vector<incident_report>& reports) {
    std::string out;
    persist::codec::path_writer paths;
    persist::codec::encoder io{out, paths};
    for (const incident_report& r : reports) persist::codec::report_fields(io, r);
    return out;
}

sharded_engine::persist_state export_engines(skynet_engine& eng) {
    sharded_engine::persist_state state;
    state.shards.push_back(eng.export_state());
    return state;
}

sharded_engine::persist_state export_engines(sharded_engine& eng) { return eng.export_state(); }

/// The checkpoint a durable session would write at this barrier.
persist::snapshot_data checkpoint(sharded_engine::persist_state engines, sim_time now) {
    persist::snapshot_data data;
    data.barrier_time = now;
    data.engines = std::move(engines);
    const location_table& table = test_flood::region4_world().topo.locations();
    for (std::size_t i = 1; i < table.size(); ++i) {
        const auto id = static_cast<location_id>(i);
        data.locations.push_back({table.parent_of(id), std::string(table.segment_of(id))});
    }
    return data;
}

/// True when the engine appended to or refreshed the incident's alert
/// list after `held` was taken of it.
bool alerts_changed(const incident& held, const incident& later) {
    if (later.alerts.size() != held.alerts.size()) return true;
    for (std::size_t i = 0; i < held.alerts.size(); ++i) {
        const structured_alert& a = held.alerts[i];
        const structured_alert& b = later.alerts[i];
        if (a.when != b.when || a.count != b.count || a.metric != b.metric) return true;
    }
    return false;
}

/// Replays the flood; at the first barrier past minute 2 takes
/// open_reports() and a checkpoint, and renders both. Keeps ingesting,
/// re-rendering the held copies while the engine works, and checks at the
/// end that the engine did change the incidents they hold.
template <typename Engine>
void expect_held_copies_unchanged(Engine& eng) {
    test_flood::flood_world& w = test_flood::region4_world();
    const test_flood::tick_trace& t = test_flood::region4_flood();
    const network_state net(&w.topo, &w.customers);

    std::vector<incident_report> held;
    persist::snapshot_data held_snapshot;
    std::string held_listing;
    std::string held_bytes;
    std::string held_snapshot_bytes;
    std::set<std::uint64_t> changed;  // held incidents the engine wrote to since
    const auto note_changes = [&](const std::vector<incident_report>& reports) {
        for (const incident_report& r : reports) {
            for (const incident_report& h : held) {
                if (r.inc.id == h.inc.id && alerts_changed(h.inc, r.inc)) changed.insert(h.inc.id);
            }
        }
    };
    for (std::size_t i = 0; i < t.ticks.size(); ++i) {
        eng.ingest_batch(std::span<const traced_alert>(t.batches[i]));
        if (!held.empty() && i % 4 == 0) {
            // Sharded: the shard workers apply this batch right now.
            EXPECT_EQ(encode_reports(held), held_bytes);
        }
        eng.tick(t.ticks[i], net);
        if (held.empty() && t.ticks[i] >= minutes(2)) {
            held = eng.open_reports(t.ticks[i], net);
            ASSERT_FALSE(held.empty()) << "no incident open at minute 2 of the flood";
            held_snapshot = checkpoint(export_engines(eng), t.ticks[i]);
            held_listing = serve::render_report_listing(held, {.json = true});
            held_bytes = encode_reports(held);
            held_snapshot_bytes = persist::render_snapshot(held_snapshot);
        } else if (!held.empty()) {
            note_changes(eng.open_reports(t.ticks[i], net));
        }
    }
    eng.finish(t.end, net);
    note_changes(eng.take_reports());

    // Not vacuous: an incident held at the barrier grew or was refreshed.
    ASSERT_FALSE(changed.empty()) << "no held incident changed after the barrier";

    EXPECT_EQ(serve::render_report_listing(held, {.json = true}), held_listing);
    EXPECT_EQ(encode_reports(held), held_bytes);
    EXPECT_EQ(persist::render_snapshot(held_snapshot), held_snapshot_bytes);
}

TEST(HeldCopyTest, SequentialEngineReportAndCheckpointNeverChange) {
    skynet_engine eng(test_flood::region4_world().deps());
    expect_held_copies_unchanged(eng);
}

TEST(HeldCopyTest, FourStealingShardsReportAndCheckpointNeverChange) {
    sharded_config scfg;
    scfg.shards = 4;
    scfg.steal = true;
    scfg.max_ingest_batch = 8;  // many stealable jobs per shard
    sharded_engine eng(test_flood::region4_world().deps(), scfg);
    expect_held_copies_unchanged(eng);
    EXPECT_GT(eng.metrics().steal.batches_stolen, 0u) << "the steal path never ran";
}

}  // namespace
}  // namespace skynet
