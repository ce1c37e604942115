// Tests for the locator (§4.2): Algorithms 1-3, incident thresholds,
// per-type counting and topology-connectivity grouping.
#include <gtest/gtest.h>

#include "skynet/alert/type_registry.h"
#include "skynet/core/locator.h"

namespace skynet {
namespace {

/// Two clusters in different sites plus an isolated remote device, like
/// Figure 5c: device n sits apart from the main alerting group.
struct fixture {
    topology topo;
    alert_type_registry registry = alert_type_registry::with_builtin_catalog();
    device_id a1, a2, a3;  // connected chain in Site I / Cluster i
    device_id n;           // isolated device in Site n / Cluster n

    fixture() {
        const location ci{"Region A", "City a", "LS 2", "Site I", "Cluster i"};
        const location cn{"Region A", "City a", "LS 2", "Site n", "Cluster n"};
        a1 = topo.add_device("a1", device_role::tor, ci.child("a1"));
        a2 = topo.add_device("a2", device_role::agg, ci.child("a2"));
        a3 = topo.add_device("a3", device_role::agg, ci.child("a3"));
        n = topo.add_device("n", device_role::tor, cn.child("n"));
        const circuit_set_id cs = topo.add_circuit_set("a1a2", a1, a2);
        (void)topo.add_link(a1, a2, cs, 100.0);
    }

    structured_alert alert(std::string type_name, data_source src, device_id dev,
                           sim_time t) const {
        structured_alert a;
        const auto id = registry.find(src, type_name);
        if (!id) throw std::runtime_error("unknown type " + type_name);
        a.type = *id;
        a.type_name = std::move(type_name);
        a.source = src;
        a.category = registry.at(*id).category;
        a.when = time_range{t, t};
        a.loc = topo.device_at(dev).loc;
        a.device = dev;
        a.metric = a.category == alert_category::failure ? 0.1 : 0.0;
        return a;
    }
};

TEST(ThresholdTest, ProductionNotation) {
    const incident_thresholds t{};  // 2/1+2/5
    EXPECT_EQ(t.to_string(), "2/1+2/5");
    EXPECT_FALSE(t.met(0, 0));
    EXPECT_FALSE(t.met(1, 1));      // one failure alone
    EXPECT_FALSE(t.met(1, 2));      // 1 failure + 1 other
    EXPECT_TRUE(t.met(1, 3));       // 1 failure + 2 other
    EXPECT_TRUE(t.met(2, 2));       // 2 failures
    EXPECT_FALSE(t.met(0, 4));      // 4 any
    EXPECT_TRUE(t.met(0, 5));       // 5 any
}

TEST(ThresholdTest, DisabledClauses) {
    // 0 disables a clause (the Figure 9 ablations).
    const incident_thresholds no_any{.pure_failure = 2, .combo_failure = 1, .combo_other = 2,
                                     .any = 0};
    EXPECT_FALSE(no_any.met(0, 100));
    const incident_thresholds no_pure{.pure_failure = 0, .combo_failure = 1, .combo_other = 2,
                                      .any = 5};
    EXPECT_FALSE(no_pure.met(3, 3));
    EXPECT_TRUE(no_pure.met(3, 5));
    const incident_thresholds no_combo{.pure_failure = 2, .combo_failure = 0, .combo_other = 0,
                                       .any = 5};
    EXPECT_FALSE(no_combo.met(1, 4));
}

TEST(LocatorTest, BelowThresholdNoIncident) {
    fixture f;
    locator loc(&f.topo);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    EXPECT_TRUE(loc.check(seconds(10)).empty());
    EXPECT_TRUE(loc.open_incidents().empty());
}

TEST(LocatorTest, TwoFailureTypesSpawnIncident) {
    fixture f;
    locator loc(&f.topo);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    loc.insert(f.alert("sflow packet loss", data_source::traffic_stats, f.a2, 1000), 1000);
    (void)loc.check(seconds(10));
    const auto open = loc.open_incidents();
    ASSERT_EQ(open.size(), 1u);
    // Root at the common ancestor of the alerting devices.
    EXPECT_EQ(open[0].root, (location{"Region A", "City a", "LS 2", "Site I", "Cluster i"}));
    EXPECT_EQ(open[0].alerts.size(), 2u);
}

TEST(LocatorTest, SameTypeCountsOnce) {
    // §4.2: the probe-glitch flood — hundreds of identical device-down
    // alerts are ONE type and must not spawn an incident.
    fixture f;
    locator loc(&f.topo);
    for (int i = 0; i < 300; ++i) {
        loc.insert(f.alert("device inaccessible", data_source::out_of_band, f.a1, i * 100),
                   i * 100);
    }
    EXPECT_TRUE(loc.check(seconds(40)).empty());
    EXPECT_TRUE(loc.open_incidents().empty());
}

TEST(LocatorTest, TypePlusLocationAblationOverTriggers) {
    // The Figure 9 "type+location" variant counts the same type at
    // different locations separately -> the glitchy pattern now fires.
    fixture f;
    locator_config cfg;
    cfg.count_by_type = false;
    locator loc(&f.topo, cfg);
    // Same single type, five connected locations... our fixture has 3
    // connected devices; use their shared cluster plus site nodes via
    // aggregate alerts.
    loc.insert(f.alert("device inaccessible", data_source::out_of_band, f.a1, 0), 0);
    loc.insert(f.alert("device inaccessible", data_source::out_of_band, f.a2, 0), 0);
    loc.insert(f.alert("device inaccessible", data_source::out_of_band, f.a3, 0), 0);
    structured_alert agg = f.alert("device inaccessible", data_source::out_of_band, f.a1, 0);
    agg.loc = agg.loc.parent();  // cluster-level
    agg.device.reset();
    loc.insert(agg, 0);
    structured_alert site = agg;
    site.loc = agg.loc.parent();  // site-level
    loc.insert(site, 0);
    (void)loc.check(seconds(5));
    EXPECT_EQ(loc.open_incidents().size(), 1u);

    // Per-type counting would have seen one type and stayed silent.
    locator by_type(&f.topo);
    by_type.insert(f.alert("device inaccessible", data_source::out_of_band, f.a1, 0), 0);
    by_type.insert(f.alert("device inaccessible", data_source::out_of_band, f.a2, 0), 0);
    by_type.insert(f.alert("device inaccessible", data_source::out_of_band, f.a3, 0), 0);
    by_type.insert(agg, 0);
    by_type.insert(site, 0);
    (void)by_type.check(seconds(5));
    EXPECT_TRUE(by_type.open_incidents().empty());
}

TEST(LocatorTest, ConnectivitySplitsIsolatedDevice) {
    // Figure 5c: alerts at a connected group AND at an isolated device n
    // -> two incident trees, not one.
    fixture f;
    locator loc(&f.topo);
    // Group 1: two failure types at connected devices.
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    loc.insert(f.alert("sflow packet loss", data_source::traffic_stats, f.a2, 0), 0);
    // Group 2: the isolated device n, with 1 failure + 2 other types.
    loc.insert(f.alert("internet packet loss", data_source::internet_telemetry, f.n, 0), 0);
    loc.insert(f.alert("port down", data_source::syslog, f.n, 0), 0);
    loc.insert(f.alert("bgp peer down", data_source::syslog, f.n, 0), 0);

    (void)loc.check(seconds(5));
    const auto open = loc.open_incidents();
    ASSERT_EQ(open.size(), 2u);
    const location cluster_i{"Region A", "City a", "LS 2", "Site I", "Cluster i"};
    const location device_n{"Region A", "City a", "LS 2", "Site n", "Cluster n", "n"};
    EXPECT_TRUE((open[0].root == cluster_i && open[1].root == device_n) ||
                (open[0].root == device_n && open[1].root == cluster_i));
}

TEST(LocatorTest, WithoutConnectivityOneMergedIncident) {
    fixture f;
    locator_config cfg;
    cfg.use_connectivity = false;
    locator loc(&f.topo, cfg);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    loc.insert(f.alert("sflow packet loss", data_source::traffic_stats, f.a2, 0), 0);
    loc.insert(f.alert("internet packet loss", data_source::internet_telemetry, f.n, 0), 0);
    (void)loc.check(seconds(5));
    const auto open = loc.open_incidents();
    ASSERT_EQ(open.size(), 1u);
    EXPECT_EQ(open[0].root, (location{"Region A", "City a", "LS 2"}));
}

TEST(LocatorTest, AggregateAlertGluesGroups) {
    fixture f;
    locator loc(&f.topo);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    // A logic-site-level alert covers both branches, welding them.
    structured_alert wide = f.alert("internet unreachable", data_source::internet_telemetry,
                                    f.n, 0);
    wide.loc = location{"Region A", "City a", "LS 2"};
    wide.device.reset();
    loc.insert(wide, 0);
    loc.insert(f.alert("port down", data_source::syslog, f.n, 0), 0);
    (void)loc.check(seconds(5));
    const auto open = loc.open_incidents();
    ASSERT_EQ(open.size(), 1u);
    EXPECT_EQ(open[0].root, (location{"Region A", "City a", "LS 2"}));
}

TEST(LocatorTest, IncidentAbsorbsLaterAlerts) {
    fixture f;
    locator loc(&f.topo);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    loc.insert(f.alert("sflow packet loss", data_source::traffic_stats, f.a2, 0), 0);
    (void)loc.check(seconds(5));
    ASSERT_EQ(loc.open_incidents().size(), 1u);
    const std::size_t before = loc.open_incidents()[0].alerts.size();

    // A new alert under the incident root lands in the incident tree
    // (Algorithm 1 lines 1-4).
    loc.insert(f.alert("link down", data_source::snmp, f.a3, seconds(30)), seconds(30));
    (void)loc.check(seconds(35));
    ASSERT_EQ(loc.open_incidents().size(), 1u);
    EXPECT_EQ(loc.open_incidents()[0].alerts.size(), before + 1);
}

TEST(LocatorTest, GrowingIncidentAbsorbsSmallerOne) {
    // Algorithm 2 lines 7-9: when a wider group passes the threshold, the
    // incident trees inside its subtree are replaced.
    fixture f;
    locator loc(&f.topo);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    loc.insert(f.alert("sflow packet loss", data_source::traffic_stats, f.a1, 0), 0);
    (void)loc.check(seconds(2));
    ASSERT_EQ(loc.open_incidents().size(), 1u);
    const location first_root = loc.open_incidents()[0].root;

    // More alerts widen the connected group (a2, a3 join via links /
    // shared cluster).
    loc.insert(f.alert("link down", data_source::snmp, f.a2, seconds(4)), seconds(4));
    loc.insert(f.alert("bgp peer down", data_source::syslog, f.a3, seconds(4)), seconds(4));
    (void)loc.check(seconds(6));
    const auto open = loc.open_incidents();
    ASSERT_EQ(open.size(), 1u);
    EXPECT_TRUE(open[0].root.contains(first_root));
    EXPECT_NE(open[0].root, first_root);
}

TEST(LocatorTest, NodeTimeoutExpiresStaleAlerts) {
    fixture f;
    locator_config cfg;
    cfg.node_timeout = minutes(5);
    locator loc(&f.topo, cfg);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    EXPECT_EQ(loc.main_tree_size(), 1u);
    (void)loc.check(minutes(6));
    EXPECT_EQ(loc.main_tree_size(), 0u);

    // The expired alert no longer pairs with a fresh one.
    loc.insert(f.alert("sflow packet loss", data_source::traffic_stats, f.a2, minutes(6)),
               minutes(6));
    (void)loc.check(minutes(6) + seconds(5));
    EXPECT_TRUE(loc.open_incidents().empty());
}

TEST(LocatorTest, RefreshKeepsNodeAlive) {
    fixture f;
    locator loc(&f.topo);
    structured_alert a = f.alert("packet loss", data_source::ping, f.a1, 0);
    loc.insert(a, 0);
    // Consolidation updates arrive every 2 minutes; the node must not
    // expire at the 5-minute timeout.
    a.when.extend(minutes(2));
    a.count = 2;
    loc.refresh(a, minutes(2));
    a.when.extend(minutes(4));
    a.count = 3;
    loc.refresh(a, minutes(4));
    (void)loc.check(minutes(6));
    EXPECT_EQ(loc.main_tree_size(), 1u);
}

TEST(LocatorTest, IncidentTimesOutAfterQuietPeriod) {
    fixture f;
    locator_config cfg;
    cfg.incident_timeout = minutes(15);
    locator loc(&f.topo, cfg);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    loc.insert(f.alert("sflow packet loss", data_source::traffic_stats, f.a2, 0), 0);
    (void)loc.check(seconds(5));
    ASSERT_EQ(loc.open_incidents().size(), 1u);

    EXPECT_TRUE(loc.check(minutes(10)).empty());  // still open
    const auto closed = loc.check(minutes(16));
    ASSERT_EQ(closed.size(), 1u);
    EXPECT_TRUE(closed[0].closed);
    EXPECT_TRUE(loc.open_incidents().empty());
}

TEST(LocatorTest, NodeTimeoutExactAtDeadline) {
    // Regression for the boundary semantics: expiry is >=, so a node
    // idle for exactly node_timeout is gone AT the deadline — a
    // 5-minute timeout means 5 minutes, not 5 minutes plus one tick.
    fixture f;
    locator_config cfg;
    cfg.node_timeout = minutes(5);
    locator loc(&f.topo, cfg);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    (void)loc.check(minutes(5) - 1);
    EXPECT_EQ(loc.main_tree_size(), 1u);  // one ms before: still alive
    (void)loc.check(minutes(5));
    EXPECT_EQ(loc.main_tree_size(), 0u);  // exactly at: expired
}

TEST(LocatorTest, NodeTimeoutJustPastDeadline) {
    fixture f;
    locator_config cfg;
    cfg.node_timeout = minutes(5);
    locator loc(&f.topo, cfg);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    (void)loc.check(minutes(5) + 1);
    EXPECT_EQ(loc.main_tree_size(), 0u);
}

TEST(LocatorTest, IncidentTimeoutExactAtDeadline) {
    // Same >= boundary for the incident quiet period. The incident's
    // update_time is the check() that spawned it (5s here).
    fixture f;
    locator_config cfg;
    cfg.incident_timeout = minutes(15);
    locator loc(&f.topo, cfg);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    loc.insert(f.alert("sflow packet loss", data_source::traffic_stats, f.a2, 0), 0);
    (void)loc.check(seconds(5));
    ASSERT_EQ(loc.open_incidents().size(), 1u);

    const sim_time deadline = seconds(5) + minutes(15);
    EXPECT_TRUE(loc.check(deadline - 1).empty());  // one ms before: open
    ASSERT_EQ(loc.open_incidents().size(), 1u);
    const auto closed = loc.check(deadline);  // exactly at: closed
    ASSERT_EQ(closed.size(), 1u);
    EXPECT_TRUE(closed[0].closed);
    EXPECT_TRUE(loc.open_incidents().empty());
}

TEST(LocatorTest, IncidentTimeoutJustPastDeadline) {
    fixture f;
    locator_config cfg;
    cfg.incident_timeout = minutes(15);
    locator loc(&f.topo, cfg);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    loc.insert(f.alert("sflow packet loss", data_source::traffic_stats, f.a2, 0), 0);
    (void)loc.check(seconds(5));
    ASSERT_EQ(loc.open_incidents().size(), 1u);
    const auto closed = loc.check(seconds(5) + minutes(15) + 1);
    ASSERT_EQ(closed.size(), 1u);
    EXPECT_TRUE(loc.open_incidents().empty());
}

TEST(LocatorTest, DrainClosesEverything) {
    fixture f;
    locator loc(&f.topo);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    loc.insert(f.alert("sflow packet loss", data_source::traffic_stats, f.a2, 0), 0);
    (void)loc.check(seconds(5));
    const auto closed = loc.drain(seconds(10));
    ASSERT_EQ(closed.size(), 1u);
    EXPECT_TRUE(loc.open_incidents().empty());
}

TEST(LocatorTest, IncidentCountsByCategory) {
    fixture f;
    locator loc(&f.topo);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    loc.insert(f.alert("sflow packet loss", data_source::traffic_stats, f.a2, 0), 0);
    loc.insert(f.alert("link down", data_source::snmp, f.a1, 0), 0);
    loc.insert(f.alert("bgp peer down", data_source::syslog, f.a2, 0), 0);
    (void)loc.check(seconds(5));
    ASSERT_EQ(loc.open_incidents().size(), 1u);
    const incident inc = loc.open_incidents()[0];
    EXPECT_EQ(inc.type_count(alert_category::failure), 2);
    EXPECT_EQ(inc.type_count(alert_category::root_cause), 1);
    EXPECT_EQ(inc.type_count(alert_category::abnormal), 1);
    EXPECT_EQ(inc.total_type_count(), 4);
    EXPECT_NEAR(inc.avg_failure_loss(), 0.1, 1e-9);
}

TEST(LocatorTest, RenderShowsFigure6Structure) {
    fixture f;
    locator loc(&f.topo);
    loc.insert(f.alert("packet loss", data_source::ping, f.a1, 0), 0);
    loc.insert(f.alert("sflow packet loss", data_source::traffic_stats, f.a2, 0), 0);
    loc.insert(f.alert("link down", data_source::snmp, f.a1, 0), 0);
    (void)loc.check(seconds(5));
    ASSERT_EQ(loc.open_incidents().size(), 1u);
    const std::string text = loc.open_incidents()[0].render();
    EXPECT_NE(text.find("Failure alerts"), std::string::npos);
    EXPECT_NE(text.find("Root cause alerts"), std::string::npos);
    EXPECT_NE(text.find("packet loss"), std::string::npos);
    EXPECT_NE(text.find("Region A|City a|LS 2|Site I|Cluster i"), std::string::npos);
}

TEST(LocatorTest, TypeRowsMergeTypesThatShareANameAndKeepTheLastSource) {
    // "traffic surge" is registered under two type ids (SNMP and traffic
    // stats); the listing shows one row per name, counts summed, with the
    // source of the last alert.
    fixture f;
    incident inc;
    for (const auto& [src, count] : {std::pair{data_source::snmp, 2},
                                     std::pair{data_source::traffic_stats, 3},
                                     std::pair{data_source::snmp, 4}}) {
        structured_alert a = f.alert("traffic surge", src, f.a1, 0);
        a.count = count;
        inc.alerts.push_back(a);
    }
    structured_alert other = f.alert("high cpu", data_source::snmp, f.a2, 0);
    other.category = inc.alerts[0].category;
    inc.alerts.push_back(other);
    ASSERT_NE(inc.alerts[0].type, inc.alerts[1].type);

    const auto rows = inc.type_rows(inc.alerts[0].category);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "high cpu");
    EXPECT_EQ(rows[1].name, "traffic surge");
    EXPECT_EQ(rows[1].count, 9);
    EXPECT_EQ(rows[1].source, data_source::snmp);
    inc.alerts.edit()[2].source = data_source::traffic_stats;
    EXPECT_EQ(inc.type_rows(inc.alerts[0].category)[1].source, data_source::traffic_stats);
}

TEST(LocatorTest, UniformThresholdsAcrossLevels) {
    // A single port-down can be the root cause of a whole failure; the
    // same thresholds apply at every hierarchy level (§4.2).
    fixture f;
    locator loc(&f.topo);
    // Aggregate-level alerts only (logic-site level), no device alerts.
    for (const char* type : {"internet unreachable", "internet packet loss"}) {
        structured_alert a =
            f.alert(type, data_source::internet_telemetry, f.a1, 0);
        a.loc = location{"Region A", "City a", "LS 2"};
        a.device.reset();
        loc.insert(a, 0);
    }
    (void)loc.check(seconds(5));
    ASSERT_EQ(loc.open_incidents().size(), 1u);
    EXPECT_EQ(loc.open_incidents()[0].root, (location{"Region A", "City a", "LS 2"}));
}

}  // namespace
}  // namespace skynet
