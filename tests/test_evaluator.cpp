// Tests for the evaluator (§4.3): Equations 1-3, the severity filter and
// location zoom-in.
#include <gtest/gtest.h>

#include <cmath>

#include "skynet/core/evaluator.h"

namespace skynet {
namespace {

/// A site with two clusters; customers on the cluster uplink circuit set.
struct fixture {
    topology topo;
    customer_registry customers;
    device_id tor1, tor2, agg1, csr;
    circuit_set_id uplink, backup;
    location site{"R", "C", "LS", "S"};
    location cluster1{"R", "C", "LS", "S", "CL1"};
    location cluster2{"R", "C", "LS", "S", "CL2"};

    fixture() {
        tor1 = topo.add_device("tor1", device_role::tor, cluster1.child("tor1"));
        tor2 = topo.add_device("tor2", device_role::tor, cluster2.child("tor2"));
        agg1 = topo.add_device("agg1", device_role::agg, cluster1.child("agg1"));
        csr = topo.add_device("csr1", device_role::csr, site.child("csr1"));
        uplink = topo.add_circuit_set("uplink", agg1, csr);
        backup = topo.add_circuit_set("backup", tor1, agg1);
        (void)topo.add_link(agg1, csr, uplink, 100.0);
        (void)topo.add_link(agg1, csr, uplink, 100.0);
        (void)topo.add_link(tor1, agg1, backup, 100.0);

        // Ten critical customers ride the uplink.
        for (int i = 0; i < 10; ++i) {
            const customer_id c =
                customers.add_customer("vip-" + std::to_string(i), customer_tier::critical);
            customers.attach(c, uplink);
            (void)customers.add_sla_flow(c, uplink, 2.0);
        }
    }

    incident make_incident(double loss, sim_duration age) const {
        incident inc;
        inc.id = 1;
        inc.root = site;
        inc.when = time_range{0, age};
        structured_alert a;
        a.type = 0;
        a.type_name = "packet loss";
        a.source = data_source::ping;
        a.category = alert_category::failure;
        a.when = inc.when;
        a.loc = cluster1;
        a.metric = loss;
        inc.alerts.push_back(a);
        return inc;
    }
};

TEST(EvaluatorTest, RelatedCircuitSets) {
    fixture f;
    evaluator eval(&f.topo, &f.customers);
    incident inc = f.make_incident(0.1, minutes(5));
    EXPECT_EQ(eval.related_circuit_sets(inc).size(), 2u);  // uplink + backup

    inc.root = f.cluster1;
    EXPECT_EQ(eval.related_circuit_sets(inc).size(), 2u);  // both touch cluster1 devices

    inc.root = location{"Elsewhere"};
    EXPECT_TRUE(eval.related_circuit_sets(inc).empty());
}

TEST(EvaluatorTest, ImpactFactorFloorsAtOne) {
    // Equation 1: max(1, ...) keeps severity non-zero with no breakage.
    fixture f;
    network_state state(&f.topo, &f.customers);
    evaluator eval(&f.topo, &f.customers);
    const severity_breakdown s = eval.evaluate(f.make_incident(0.1, minutes(5)), state, minutes(5));
    EXPECT_DOUBLE_EQ(s.impact_factor, 1.0);
}

TEST(EvaluatorTest, ImpactGrowsWithBreakRatioAndCustomers) {
    fixture f;
    network_state state(&f.topo, &f.customers);
    evaluator eval(&f.topo, &f.customers);

    // Break half the uplink: d = 0.5, g = 20 (critical), u = 10.
    state.link_state(f.topo.circuit_set_at(f.uplink).circuits[0]).up = false;
    const severity_breakdown s = eval.evaluate(f.make_incident(0.1, minutes(5)), state, minutes(5));
    EXPECT_NEAR(s.impact_factor, 0.5 * 20.0 * 10.0, 1e-6);
}

TEST(EvaluatorTest, SlaOverloadContributesToImpact) {
    fixture f;
    network_state state(&f.topo, &f.customers);
    evaluator eval(&f.topo, &f.customers);
    // Push half the SLA flows over their limit: l = 0.5.
    for (int i = 0; i < 5; ++i) {
        state.set_flow_rate_gbps(static_cast<sla_flow_id>(i), 3.0);
    }
    const severity_breakdown s = eval.evaluate(f.make_incident(0.1, minutes(5)), state, minutes(5));
    EXPECT_NEAR(s.impact_factor, 0.5 * 20.0 * 10.0, 1e-6);
    EXPECT_NEAR(s.max_sla_overload, 0.5, 1e-9);
}

TEST(EvaluatorTest, TimeFactorGrowsWithDuration) {
    fixture f;
    network_state state(&f.topo, &f.customers);
    evaluator eval(&f.topo, &f.customers);
    const auto young = eval.evaluate(f.make_incident(0.1, minutes(1)), state, minutes(1));
    const auto old_inc = eval.evaluate(f.make_incident(0.1, minutes(30)), state, minutes(30));
    EXPECT_GT(old_inc.time_factor, young.time_factor);
    EXPECT_GT(old_inc.score, young.score);
}

TEST(EvaluatorTest, TimeFactorGrowsWithLossRate) {
    // "An increased average packet loss rate accelerates this growth."
    fixture f;
    network_state state(&f.topo, &f.customers);
    evaluator eval(&f.topo, &f.customers);
    const auto mild = eval.evaluate(f.make_incident(0.05, minutes(10)), state, minutes(10));
    const auto harsh = eval.evaluate(f.make_incident(0.5, minutes(10)), state, minutes(10));
    EXPECT_GT(harsh.time_factor, mild.time_factor);
}

class DurationMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(DurationMonotonicity, ScoreNeverDecreasesWithAge) {
    // Property sweep over loss rates: severity is monotone in duration,
    // so ignored incidents eventually capture attention.
    fixture f;
    network_state state(&f.topo, &f.customers);
    evaluator eval(&f.topo, &f.customers);
    double last = -1.0;
    for (const sim_duration age :
         {seconds(30), minutes(2), minutes(10), minutes(30), hours(2)}) {
        const auto s = eval.evaluate(f.make_incident(GetParam(), age), state, age);
        EXPECT_GE(s.score, last);
        last = s.score;
    }
}

INSTANTIATE_TEST_SUITE_P(LossRates, DurationMonotonicity,
                         ::testing::Values(0.01, 0.05, 0.2, 0.5, 0.9));

TEST(EvaluatorTest, ScoreCapped) {
    fixture f;
    network_state state(&f.topo, &f.customers);
    for (link_id lid : f.topo.circuit_set_at(f.uplink).circuits) {
        state.link_state(lid).up = false;
    }
    evaluator eval(&f.topo, &f.customers);
    const auto s = eval.evaluate(f.make_incident(0.9, days(1)), state, days(1));
    EXPECT_DOUBLE_EQ(s.score, eval.config().score_cap);
}

TEST(EvaluatorTest, ZeroLossZeroOverloadScoresZero) {
    fixture f;
    network_state state(&f.topo, &f.customers);
    evaluator eval(&f.topo, &f.customers);
    incident inc = f.make_incident(0.0, minutes(10));
    inc.alerts.edit()[0].category = alert_category::abnormal;  // no failure metrics at all
    const auto s = eval.evaluate(inc, state, minutes(10));
    // R_k and L_k are both ~0, so the clamped log base is huge and the
    // time factor stays small: the incident never escalates on its own.
    EXPECT_LT(s.time_factor, 1.0);
    EXPECT_LT(s.score, 10.0);  // stays under the severity threshold
}

TEST(EvaluatorTest, SeverityFilterThreshold) {
    fixture f;
    evaluator eval(&f.topo, &f.customers, evaluator_config{.severity_threshold = 10.0});
    severity_breakdown below;
    below.score = 9.9;
    severity_breakdown above;
    above.score = 10.0;
    EXPECT_FALSE(eval.passes_filter(below));
    EXPECT_TRUE(eval.passes_filter(above));
}

TEST(EvaluatorTest, SeverityFilterBoundaryIsInclusive) {
    // The filter is `score >= threshold`: a score exactly at 10 is kept,
    // the largest double strictly below 10 is filtered. One ULP decides.
    fixture f;
    evaluator eval(&f.topo, &f.customers, evaluator_config{.severity_threshold = 10.0});
    severity_breakdown s;
    s.score = 10.0;
    EXPECT_TRUE(eval.passes_filter(s));
    s.score = std::nextafter(10.0, 0.0);
    EXPECT_FALSE(eval.passes_filter(s));
    s.score = std::nextafter(10.0, 20.0);
    EXPECT_TRUE(eval.passes_filter(s));
}

TEST(EvaluatorTest, SeverityFilterBoundaryOnComputedScore) {
    // Same one-ULP boundary, but against a *computed* score: pin the
    // threshold to exactly what evaluate() returns, then nudge it up by
    // one ULP and watch the same incident get filtered.
    fixture f;
    network_state state(&f.topo, &f.customers);
    const incident inc = f.make_incident(0.2, minutes(10));

    evaluator probe(&f.topo, &f.customers);
    const double score = probe.evaluate(inc, state, minutes(10)).score;
    ASSERT_GT(score, 0.0);

    evaluator at(&f.topo, &f.customers, evaluator_config{.severity_threshold = score});
    EXPECT_TRUE(at.passes_filter(at.evaluate(inc, state, minutes(10))));

    const double barely_above = std::nextafter(score, score + 1.0);
    evaluator over(&f.topo, &f.customers,
                   evaluator_config{.severity_threshold = barely_above});
    EXPECT_FALSE(over.passes_filter(over.evaluate(inc, state, minutes(10))));
}

TEST(EvaluatorTest, BuildMatrixFromPairAlerts) {
    fixture f;
    evaluator eval(&f.topo, &f.customers);
    incident inc;
    inc.root = f.site;
    structured_alert a;
    a.category = alert_category::failure;
    a.metric = 0.3;
    a.src_loc = f.cluster1;
    a.dst_loc = f.cluster2;
    a.loc = f.cluster1;
    inc.alerts.push_back(a);
    const reachability_matrix m = eval.build_matrix(inc);
    EXPECT_EQ(m.size(), 2u);
    EXPECT_DOUBLE_EQ(m.at(f.cluster1, f.cluster2), 0.3);
}

TEST(EvaluatorTest, ZoomInFindsFocalCluster) {
    // Figure 7: cluster1's row and column dark across several endpoints.
    fixture f;
    evaluator eval(&f.topo, &f.customers);
    incident inc;
    inc.root = f.site;
    const location cl3 = f.site.child("CL3");
    const location cl4 = f.site.child("CL4");
    const location cl5 = f.site.child("CL5");
    const location cl6 = f.site.child("CL6");
    for (const location& other : {f.cluster2, cl3, cl4, cl5, cl6}) {
        for (const auto& [src, dst] : {std::pair{f.cluster1, other}, {other, f.cluster1}}) {
            structured_alert a;
            a.category = alert_category::failure;
            a.metric = 0.15;
            a.src_loc = src;
            a.dst_loc = dst;
            a.loc = src;
            inc.alerts.push_back(a);
        }
        // Clean probes among the others.
        structured_alert ok;
        ok.category = alert_category::failure;
        ok.metric = 0.0;
        ok.src_loc = other;
        ok.dst_loc = other == cl3 ? cl4 : cl3;
        ok.loc = other;
        inc.alerts.push_back(ok);
    }
    const auto zoomed = eval.zoom_in(inc);
    ASSERT_TRUE(zoomed.has_value());
    EXPECT_EQ(*zoomed, f.cluster1);
}

TEST(EvaluatorTest, ZoomInSflowTraceBack) {
    fixture f;
    evaluator eval(&f.topo, &f.customers);
    incident inc;
    inc.root = f.site;
    for (const device_id dev : {f.tor1, f.agg1}) {
        structured_alert a;
        a.type_name = "sflow packet loss";
        a.category = alert_category::failure;
        a.loc = f.topo.device_at(dev).loc;
        a.device = dev;
        a.metric = 0.1;
        inc.alerts.push_back(a);
    }
    const auto zoomed = eval.zoom_in(inc);
    ASSERT_TRUE(zoomed.has_value());
    EXPECT_EQ(*zoomed, f.cluster1);  // common ancestor of tor1 and agg1
}

TEST(EvaluatorTest, ZoomInFallsBackToRoot) {
    fixture f;
    evaluator eval(&f.topo, &f.customers);
    incident inc;
    inc.root = f.site;
    structured_alert a;
    a.type_name = "link down";
    a.category = alert_category::root_cause;
    a.loc = f.site;
    inc.alerts.push_back(a);
    EXPECT_FALSE(eval.zoom_in(inc).has_value());
}

TEST(EvaluatorTest, ImportantCustomersCounted) {
    fixture f;
    network_state state(&f.topo, &f.customers);
    evaluator eval(&f.topo, &f.customers);
    const auto s = eval.evaluate(f.make_incident(0.1, minutes(5)), state, minutes(5));
    EXPECT_EQ(s.important_customers, 10);
}

}  // namespace
}  // namespace skynet
