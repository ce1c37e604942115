// Tests for skynet::federate: the digest codec and journal, the region
// staleness state machine, the per-region emitter (stale-barrier
// gating, journal reload, retry/catch-up), and the global aggregator
// (exactly-once sequence gating, region flaps, partition parity, the
// merged HTTP surface).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "skynet/federate/aggregator.h"
#include "skynet/federate/digest.h"
#include "skynet/federate/emitter.h"
#include "skynet/federate/health.h"
#include "skynet/serve/net.h"
#include "skynet/serve/report_text.h"
#include "skynet/sim/engine.h"
#include "skynet/topology/generator.h"

namespace skynet::federate {
namespace {

struct world {
    topology topo;
    customer_registry customers;
    alert_type_registry registry = alert_type_registry::with_builtin_catalog();
    syslog_classifier syslog = syslog_classifier::train_from_catalog();

    explicit world(generator_params p = generator_params::tiny()) {
        topo = generate_topology(p);
        rng crand(71);
        customers = customer_registry::generate(topo, 150, crand);
    }
};

/// Real incident reports (the digest codec round-trips every field of
/// the alert/severity/incident structures, so synthetic stubs would
/// not exercise it honestly). Produced once.
const std::vector<incident_report>& fixture_reports() {
    static const std::vector<incident_report> reports = [] {
        world w(generator_params::small());
        simulation_engine sim(&w.topo, &w.customers,
                              engine_params{.tick = seconds(2), .seed = 11});
        sim.add_default_monitors();
        rng srand(12);
        sim.inject(make_security_ddos(w.topo, srand, 3), minutes(1), minutes(4));
        skynet_engine engine(
            skynet_engine::deps{&w.topo, &w.customers, &w.registry, &w.syslog});
        sim.run_until(minutes(6),
                      [&](const raw_alert& a, sim_time arrival) { engine.ingest(a, arrival); },
                      [&](sim_time now) { engine.tick(now, sim.state()); });
        engine.finish(sim.clock().now(), sim.state());
        return engine.take_reports();
    }();
    return reports;
}

std::string unique_sock(const char* tag) {
    return "unix:" + testing::TempDir() + "fed_" + tag + "_" + std::to_string(::getpid()) +
           ".sock";
}

std::string unique_dir(const char* tag) {
    const std::string dir =
        testing::TempDir() + "fed_" + tag + "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
}

region_digest make_digest(std::string region, std::uint64_t seq, sim_time barrier,
                          bool finish, std::vector<incident_report> reports = {}) {
    region_digest d;
    d.region = std::move(region);
    d.seq = seq;
    d.barrier = barrier;
    d.finish = finish;
    d.reports = std::move(reports);
    return d;
}

// ---------------------------------------------------------------------------
// Digest payload codec.

TEST(DigestCodecTest, RoundTripsRealReports) {
    const auto& reports = fixture_reports();
    ASSERT_FALSE(reports.empty());
    const region_digest in = make_digest("eu-west", 42, minutes(5), true, reports);

    region_digest out;
    std::string err;
    ASSERT_TRUE(decode_digest_payload(encode_digest_payload(in), out, err)) << err;
    EXPECT_EQ(out.region, "eu-west");
    EXPECT_EQ(out.seq, 42u);
    EXPECT_EQ(out.barrier, minutes(5));
    EXPECT_TRUE(out.finish);
    ASSERT_EQ(out.reports.size(), reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_EQ(out.reports[i].inc.id, reports[i].inc.id);
        EXPECT_EQ(out.reports[i].severity.score, reports[i].severity.score);
        EXPECT_EQ(out.reports[i].render(), reports[i].render());
    }
}

TEST(DigestCodecTest, RejectsTrailingBytesAndEmptyRegion) {
    region_digest out;
    std::string err;
    std::string payload = encode_digest_payload(make_digest("r", 1, 0, false));
    payload += "junk";
    EXPECT_FALSE(decode_digest_payload(payload, out, err));
    EXPECT_NE(err.find("trailing"), std::string::npos);

    // An empty region would make every aggregator key collide.
    const std::string anon = encode_digest_payload(make_digest("", 1, 0, false));
    EXPECT_FALSE(decode_digest_payload(anon, out, err));
    EXPECT_NE(err.find("empty region"), std::string::npos) << err;
}

/// A reportless digest whose report count (its last 8 bytes) reads
/// 2^64-1, framed with a valid CRC.
std::string hostile_digest_payload(const std::string& region) {
    std::string payload = encode_digest_payload(make_digest(region, 1, 0, false));
    payload.replace(payload.size() - 8, 8, 8, '\xff');
    return payload;
}

TEST(DigestCodecTest, HostileCountsAreRejectedWithoutThrowing) {
    const std::string reports = hostile_digest_payload("r");
    std::string paths = encode_digest_payload(make_digest("r", 1, 0, false));
    paths.replace(paths.size() - 16, 8, 8, '\xff');  // the path dictionary's count
    for (const std::string& payload : {reports, paths}) {
        fed_decoder dec;
        dec.feed(std::string{fed_magic} + frame_fed_record(fed_record::digest, payload));
        const std::optional<fed_frame> frame = dec.next();
        ASSERT_TRUE(frame.has_value()) << dec.corruption_reason();
        region_digest out;
        std::string err;
        bool decoded = true;
        EXPECT_NO_THROW(decoded = decode_digest_payload(frame->payload, out, err));
        EXPECT_FALSE(decoded);
        EXPECT_NE(err.find("count"), std::string::npos) << err;
    }
}

// ---------------------------------------------------------------------------
// Federation wire decoder.

TEST(FedDecoderTest, ReassemblesFramesFromSingleByteFeeds) {
    std::string stream{fed_magic};
    stream += frame_fed_record(fed_record::hello, "apac");
    stream += frame_fed_record(fed_record::digest,
                               encode_digest_payload(make_digest("apac", 1, seconds(2), false)));
    stream += frame_fed_record(
        fed_record::digest,
        encode_digest_payload(make_digest("apac", 2, minutes(1), true, fixture_reports())));

    fed_decoder dec;
    std::vector<fed_frame> out;
    for (const char c : stream) {
        dec.feed(std::string_view(&c, 1));
        while (auto frame = dec.next()) out.push_back(std::move(*frame));
    }
    EXPECT_FALSE(dec.corrupt());
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].type, fed_record::hello);
    EXPECT_EQ(out[0].payload, "apac");
    EXPECT_EQ(out[1].type, fed_record::digest);
    region_digest d;
    std::string err;
    ASSERT_TRUE(decode_digest_payload(out[2].payload, d, err)) << err;
    EXPECT_EQ(d.seq, 2u);
    EXPECT_EQ(d.reports.size(), fixture_reports().size());
    EXPECT_EQ(dec.frames_decoded(), 3u);
}

TEST(FedDecoderTest, LatchesOnBadMagicAndCorruptPayload) {
    fed_decoder bad_magic;
    bad_magic.feed("SKYNETJ1");  // the engine-journal magic, not the federation one
    EXPECT_FALSE(bad_magic.next().has_value());
    EXPECT_TRUE(bad_magic.corrupt());
    EXPECT_NE(bad_magic.corruption_reason().find("magic"), std::string::npos);

    fed_decoder old_peer;  // a peer of the text-payload protocol version
    old_peer.feed("SKYNETF1");
    EXPECT_FALSE(old_peer.next().has_value());
    EXPECT_TRUE(old_peer.corrupt());
    EXPECT_NE(old_peer.corruption_reason().find("version"), std::string::npos);

    std::string stream{fed_magic};
    std::string frame = frame_fed_record(fed_record::digest,
                                         encode_digest_payload(make_digest("r", 1, 0, false)));
    frame.back() ^= 0x5a;
    stream += frame;
    fed_decoder corrupt;
    corrupt.feed(stream);
    EXPECT_FALSE(corrupt.next().has_value());
    EXPECT_TRUE(corrupt.corrupt());
    EXPECT_NE(corrupt.corruption_reason().find("CRC"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Digest journal: torn tails truncate, intact prefixes replay.

TEST(DigestJournalTest, ReloadsIntactPrefixAndTruncatesTornTail) {
    const std::string dir = unique_dir("journal");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + std::string(digest_journal_filename);
    {
        digest_journal_writer writer(path);
        for (std::uint64_t seq = 1; seq <= 3; ++seq) {
            writer.append_frame(frame_fed_record(
                fed_record::digest,
                encode_digest_payload(make_digest("us-east", seq, seconds(2 * seq), false))));
        }
    }
    const std::uint64_t intact = std::filesystem::file_size(path);
    {
        // A crash mid-append leaves a torn frame; the reader must keep
        // the intact prefix and report the tail.
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "\x02\xff\xff";  // digest type + torn header
    }
    const digest_journal_read loaded = read_digest_journal(path);
    EXPECT_FALSE(loaded.missing);
    ASSERT_EQ(loaded.digests.size(), 3u);
    EXPECT_EQ(loaded.digests[2].seq, 3u);
    EXPECT_EQ(loaded.valid_bytes, intact);
    EXPECT_GT(loaded.truncated_tail_bytes, 0u);
    EXPECT_FALSE(loaded.truncation_reason.empty());

    std::filesystem::remove_all(dir);
}

TEST(DigestJournalTest, MissingMagicDropsTheFile) {
    const std::string dir = unique_dir("magicless");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + std::string(digest_journal_filename);
    // No magic at all, and the magic of the text-payload format version.
    for (const char* head : {"not a digest journal", "SKYNETF1\x02\x05\0\0\0"}) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << head;
        const digest_journal_read loaded = read_digest_journal(path);
        EXPECT_TRUE(loaded.digests.empty());
        EXPECT_EQ(loaded.valid_bytes, 0u);
        EXPECT_GT(loaded.truncated_tail_bytes, 0u);
        EXPECT_FALSE(loaded.truncation_reason.empty());
    }
    EXPECT_NE(read_digest_journal(path).truncation_reason.find("version"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Region staleness state machine.

TEST(RegionHealthTest, ClassifiesByThresholds) {
    constexpr health_config cfg{.lag_ms = 10, .stale_ms = 20, .partition_ms = 40};
    static_assert(classify(0, cfg) == region_state::live);
    static_assert(classify(9, cfg) == region_state::live);
    static_assert(classify(10, cfg) == region_state::lagging);
    static_assert(classify(19, cfg) == region_state::lagging);
    static_assert(classify(20, cfg) == region_state::stale);
    static_assert(classify(39, cfg) == region_state::stale);
    static_assert(classify(40, cfg) == region_state::partitioned);
    static_assert(classify(1 << 30, cfg) == region_state::partitioned);
    EXPECT_EQ(to_string(region_state::live), "live");
    EXPECT_EQ(to_string(region_state::lagging), "lagging");
    EXPECT_EQ(to_string(region_state::stale), "stale");
    EXPECT_EQ(to_string(region_state::partitioned), "partitioned");
}

// ---------------------------------------------------------------------------
// Emitter: barrier gating and journal reload.

emitter_config quiet_emitter(const char* region, std::string journal_dir = {}) {
    emitter_config cfg;
    cfg.region = region;
    cfg.aggregator_addr = unique_sock("nowhere");  // parseable, never listening
    cfg.journal_dir = std::move(journal_dir);
    cfg.heartbeat_ms = 0;  // no idle sessions
    cfg.session_timeout_ms = 100;
    cfg.retry.attempts = 0;
    return cfg;
}

TEST(EmitterTest, DropsStaleAndRepeatedBarriersButAllowsFinishUpgrade) {
    digest_emitter em(quiet_emitter("west"));
    ASSERT_FALSE(em.start());
    em.publish({}, minutes(5), false);
    EXPECT_EQ(em.next_seq(), 2u);
    em.publish({}, minutes(4), false);  // stale: barrier went backwards
    EXPECT_EQ(em.next_seq(), 2u);
    em.publish({}, minutes(5), false);  // replayed tick at the same barrier
    EXPECT_EQ(em.next_seq(), 2u);
    em.publish({}, minutes(5), true);  // tick -> finish upgrade carries the drain
    EXPECT_EQ(em.next_seq(), 3u);
    em.publish({}, minutes(5), true);  // replayed finish
    EXPECT_EQ(em.next_seq(), 3u);
    EXPECT_EQ(em.metrics().digests_emitted, 2u);
    em.stop();
}

TEST(EmitterTest, JournalReloadResumesSequenceAndBarrier) {
    const std::string dir = unique_dir("reload");
    {
        digest_emitter em(quiet_emitter("west", dir));
        ASSERT_FALSE(em.start());
        em.publish(fixture_reports(), minutes(2), false);
        em.publish({}, minutes(3), false);
        em.stop();
    }
    {
        // A restarted emitter holds every unacked digest and continues
        // the sequence instead of reusing numbers.
        digest_emitter em(quiet_emitter("west", dir));
        ASSERT_FALSE(em.start());
        EXPECT_EQ(em.next_seq(), 3u);
        EXPECT_EQ(em.last_barrier(), minutes(3));
        em.publish({}, minutes(3), false);  // replayed stream: dropped
        EXPECT_EQ(em.next_seq(), 3u);
        em.publish({}, minutes(4), true);
        EXPECT_EQ(em.next_seq(), 4u);
        em.stop();
    }
    {
        // The journal is bound to its region: a mislabelled restart must
        // refuse rather than emit another region's incidents.
        digest_emitter em(quiet_emitter("east", dir));
        const error e = em.start();
        ASSERT_TRUE(e);
        EXPECT_NE(e.message().find("region"), std::string::npos);
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Aggregator: exactly-once sequence gating.

TEST(AggregatorTest, SequenceGatingIsExactlyOnce) {
    aggregator agg({});
    EXPECT_TRUE(agg.apply_digest(make_digest("r1", 1, seconds(2), false)).applied);
    EXPECT_TRUE(agg.apply_digest(make_digest("r1", 2, seconds(4), false)).applied);
    EXPECT_FALSE(agg.apply_digest(make_digest("r1", 2, seconds(4), false)).applied);
    EXPECT_FALSE(agg.apply_digest(make_digest("r1", 1, seconds(2), false)).applied);
    const auto jump = agg.apply_digest(make_digest("r1", 5, seconds(10), false));
    EXPECT_TRUE(jump.applied);
    EXPECT_EQ(jump.gap, 2u);
    EXPECT_FALSE(agg.apply_digest(make_digest("r1", 3, seconds(6), false)).applied);
    EXPECT_EQ(agg.last_seq("r1"), 5u);
    // Other regions have independent sequence spaces.
    EXPECT_TRUE(agg.apply_digest(make_digest("r2", 1, seconds(2), false)).applied);

    const federation_metrics m = agg.metrics();
    EXPECT_EQ(m.digests_applied, 4u);
    EXPECT_EQ(m.duplicates_dropped, 3u);
    EXPECT_EQ(m.gaps_detected, 2u);
    EXPECT_EQ(m.regions_live, 2u);
}

// ---------------------------------------------------------------------------
// Raw emitter sessions against a live aggregator socket.

struct session_result {
    bool ok{false};
    std::string have_line;
    std::string final_line;
};

/// One hand-rolled emitter session: hello, read HAVE, send the given
/// digests and then `raw_payloads` as digest frames, EOF, read the ack.
/// Lets tests send overlaps and garbage the real emitter would never
/// produce.
session_result raw_session(const std::string& addr_text, const std::string& region,
                           const std::vector<region_digest>& digests,
                           const std::vector<std::string>& raw_payloads = {}) {
    session_result result;
    const auto addr = serve::parse_addr(addr_text);
    if (!addr) return result;
    std::string err;
    const int fd = serve::dial(*addr, err);
    if (fd < 0) return result;
    std::string head(fed_magic);
    head += frame_fed_record(fed_record::hello, region);
    if (!serve::write_all(fd, head) ||
        !serve::read_line(fd, result.have_line, 2000)) {
        ::close(fd);
        return result;
    }
    std::string body;
    for (const region_digest& d : digests) {
        body += frame_fed_record(fed_record::digest, encode_digest_payload(d));
    }
    for (const std::string& payload : raw_payloads) {
        body += frame_fed_record(fed_record::digest, payload);
    }
    if (!body.empty() && !serve::write_all(fd, body)) {
        ::close(fd);
        return result;
    }
    ::shutdown(fd, SHUT_WR);
    result.ok = serve::read_line(fd, result.final_line, 2000);
    ::close(fd);
    return result;
}

TEST(AggregatorTest, RegionFlapWithOverlappingDigestsStaysExactlyOnce) {
    aggregator_config cfg;
    cfg.listen_addr = unique_sock("flap");
    aggregator agg(std::move(cfg));
    ASSERT_FALSE(agg.start());

    const auto& reports = fixture_reports();
    ASSERT_FALSE(reports.empty());
    auto digest_at = [&](std::uint64_t seq) {
        // One report per digest so duplicate application would visibly
        // inflate the merged listing.
        return make_digest("flappy", seq, seconds(2 * static_cast<sim_time>(seq)), false,
                           {reports[seq % reports.size()]});
    };

    // Three connect/disconnect cycles with overlapping ranges — the
    // retransmit pattern of an emitter that never saw its acks. Each
    // step lists [lo, hi] sent, the HAVE mark expected at session open,
    // and the final ack line ("OK <last_seq> <applied this session>").
    struct flap_step {
        std::uint64_t lo, hi, have;
        const char* ack;
    };
    const std::vector<flap_step> steps = {
        {1, 3, 0, "OK 3 3"},
        {2, 5, 3, "OK 5 2"},  // 2,3 are duplicates
        {4, 6, 5, "OK 6 1"},  // 4,5 are duplicates
    };
    for (const flap_step& step : steps) {
        std::vector<region_digest> digests;
        for (std::uint64_t s = step.lo; s <= step.hi; ++s) digests.push_back(digest_at(s));
        const session_result r = raw_session(agg.fed_addr(), "flappy", digests);
        ASSERT_TRUE(r.ok);
        // HAVE reports the high-water mark before this session; the
        // sequence accounting is monotone across flaps.
        EXPECT_EQ(r.have_line, "HAVE " + std::to_string(step.have));
        EXPECT_EQ(r.final_line, step.ack);
    }

    EXPECT_EQ(agg.last_seq("flappy"), 6u);
    const federation_metrics m = agg.metrics();
    EXPECT_EQ(m.digests_applied, 6u);
    EXPECT_EQ(m.duplicates_dropped, 4u);  // seqs 2,3 then 4,5 resent
    EXPECT_EQ(m.gaps_detected, 0u);
    // No duplicate incidents: exactly one merged report per sequence.
    EXPECT_EQ(agg.merged_ranked().size(), 6u);

    agg.request_stop();
    EXPECT_EQ(agg.run(), 0);
}

TEST(AggregatorTest, RejectsProtocolViolations) {
    aggregator_config cfg;
    cfg.listen_addr = unique_sock("proto");
    aggregator agg(std::move(cfg));
    ASSERT_FALSE(agg.start());

    // Digest whose region does not match the hello.
    const session_result mismatch =
        raw_session(agg.fed_addr(), "alpha", {make_digest("beta", 1, 0, false)});
    ASSERT_TRUE(mismatch.ok);
    EXPECT_EQ(mismatch.final_line.substr(0, 3), "ERR");
    EXPECT_EQ(agg.last_seq("beta"), 0u);

    // A digest whose report count would not fit in its bytes.
    const session_result hostile =
        raw_session(agg.fed_addr(), "alpha", {}, {hostile_digest_payload("alpha")});
    ASSERT_TRUE(hostile.ok);
    EXPECT_EQ(hostile.final_line.substr(0, 14), "ERR bad digest") << hostile.final_line;
    EXPECT_EQ(agg.handle(serve::parse_target("GET", "/v1/health")).status, 200);

    // The rejected sessions must not wedge the listener.
    const session_result clean =
        raw_session(agg.fed_addr(), "alpha", {make_digest("alpha", 1, 0, false)});
    ASSERT_TRUE(clean.ok);
    EXPECT_EQ(clean.final_line, "OK 1 1");

    agg.request_stop();
    EXPECT_EQ(agg.run(), 0);
}

// ---------------------------------------------------------------------------
// Emitter <-> aggregator end-to-end: delivery, catch-up, partition parity.

TEST(FederationEndToEndTest, PartitionCatchUpConvergesToTheConnectedReport) {
    const auto& reports = fixture_reports();
    ASSERT_GE(reports.size(), 1u);

    // Baseline: a region that was connected the whole run.
    aggregator connected({});
    for (std::uint64_t s = 1; s <= 4; ++s) {
        connected.apply_digest(make_digest("west", s, seconds(2 * static_cast<sim_time>(s)),
                                           s == 4, {reports[s % reports.size()]}));
    }
    const std::string baseline =
        serve::render_report_listing(connected.merged_ranked(), {.json = true});

    // Partitioned run: the emitter publishes the same digests while no
    // aggregator is listening (every session fails), then the aggregator
    // appears and one flush delivers the backlog.
    const std::string sock = unique_sock("parity");
    emitter_config ecfg;
    ecfg.region = "west";
    ecfg.aggregator_addr = sock;
    ecfg.heartbeat_ms = 0;
    ecfg.session_timeout_ms = 500;
    ecfg.retry.attempts = 0;
    digest_emitter em(ecfg);
    ASSERT_FALSE(em.start());
    for (std::uint64_t s = 1; s <= 4; ++s) {
        em.publish({reports[s % reports.size()]}, seconds(2 * static_cast<sim_time>(s)),
                   s == 4);
    }
    EXPECT_EQ(em.acked_seq(), 0u);  // the link is down

    aggregator_config acfg;
    acfg.listen_addr = sock;
    aggregator agg(std::move(acfg));
    ASSERT_FALSE(agg.start());
    ASSERT_TRUE(em.flush_now());
    EXPECT_EQ(em.acked_seq(), 4u);
    em.stop();

    // The recovered region's merged report is byte-identical to the
    // always-connected run.
    EXPECT_EQ(serve::render_report_listing(agg.merged_ranked(), {.json = true}), baseline);
    const federation_metrics m = agg.metrics();
    EXPECT_EQ(m.digests_applied, 4u);
    EXPECT_EQ(m.duplicates_dropped, 0u);

    agg.request_stop();
    EXPECT_EQ(agg.run(), 0);
}

TEST(FederationEndToEndTest, HeartbeatsKeepAnIdleRegionLive) {
    const std::string sock = unique_sock("beat");
    aggregator_config acfg;
    acfg.listen_addr = sock;
    aggregator agg(std::move(acfg));
    ASSERT_FALSE(agg.start());

    emitter_config ecfg;
    ecfg.region = "idle-region";
    ecfg.aggregator_addr = sock;
    ecfg.heartbeat_ms = 20;
    ecfg.retry.attempts = 0;
    digest_emitter em(ecfg);
    ASSERT_FALSE(em.start());
    // No digests published: only heartbeat sessions run. The region must
    // still appear, live, with nothing applied.
    for (int i = 0; i < 100 && agg.region_count() == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    em.stop();
    EXPECT_EQ(agg.region_count(), 1u);
    EXPECT_EQ(agg.last_seq("idle-region"), 0u);
    const federation_metrics m = agg.metrics();
    EXPECT_EQ(m.digests_applied, 0u);
    EXPECT_EQ(m.regions_live, 1u);

    agg.request_stop();
    EXPECT_EQ(agg.run(), 0);
}

// ---------------------------------------------------------------------------
// Aggregator HTTP surface.

TEST(AggregatorHttpTest, ServesHealthReportAndRegions) {
    aggregator agg({});
    agg.apply_digest(make_digest("north", 1, minutes(1), false, fixture_reports()));

    const serve::http_reply health = agg.handle(serve::parse_target("GET", "/v1/health"));
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.body.find("\"federation\":"), std::string::npos);
    EXPECT_NE(health.body.find("\"digests_applied\":1"), std::string::npos);

    const serve::http_reply report =
        agg.handle(serve::parse_target("GET", "/v1/report?json=1"));
    EXPECT_EQ(report.status, 200);
    EXPECT_EQ(report.body,
              serve::render_report_listing(agg.merged_ranked(), {.json = true}));

    const serve::http_reply regions = agg.handle(serve::parse_target("GET", "/v1/regions"));
    EXPECT_EQ(regions.status, 200);
    EXPECT_NE(regions.body.find("\"region\":\"north\""), std::string::npos);
    EXPECT_NE(regions.body.find("\"state\":\"live\""), std::string::npos);
    EXPECT_NE(regions.body.find("\"last_seq\":1"), std::string::npos);

    EXPECT_EQ(agg.handle(serve::parse_target("GET", "/v1/nope")).status, 404);
    EXPECT_EQ(agg.handle(serve::parse_target("POST", "/v1/report")).status, 405);
}

}  // namespace
}  // namespace skynet::federate
