// Tests for model-order reduction: analytic moments, Pi-model synthesis and
// moment preservation, coupling conservation, PRIMA moment matching, and
// reduced-vs-full transient accuracy.
#include <gtest/gtest.h>

#include <cmath>

#include "interconnect/parallel_bus.hpp"
#include "mor/coupled_pi.hpp"
#include "mor/linear_network.hpp"
#include "mor/pi_model.hpp"
#include "mor/prima.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "waveform/metrics.hpp"
#include "waveform/sources.hpp"

namespace {

using namespace sna;
using ic::RcNetwork;

// Single RC section: R then C to ground. Y(s) = sC/(1+sRC):
// y1 = C, y2 = -RC^2, y3 = R^2C^3.
RcNetwork singleSection(double r, double c) {
    RcNetwork net;
    const int n0 = net.addNode("w:0");
    const int n1 = net.addNode("w:1");
    net.addRes(n0, n1, r);
    net.addCap(n1, RcNetwork::kGroundNode, c);
    net.addWire("w", n0, n1);
    return net;
}

TEST(Moments, SingleSectionAnalytic) {
    const double r = 100.0, c = 50e-15;
    const mor::LinearNetwork lin(singleSection(r, c));
    const auto y = lin.admittanceMoments(0, {}, 3);
    ASSERT_EQ(y.size(), 3u);
    EXPECT_NEAR(y[0], c, 1e-20);
    EXPECT_NEAR(y[1], -r * c * c, 1e-26);
    EXPECT_NEAR(y[2], r * r * c * c * c, 1e-32);
}

TEST(Moments, ResistiveLeakThrowsModelError) {
    RcNetwork net;
    const int n0 = net.addNode("w:0");
    const int n1 = net.addNode("w:1");
    const int x0 = net.addNode("x:0");
    net.addRes(n0, n1, 100.0);
    net.addRes(n1, x0, 100.0);
    net.addCap(n1, RcNetwork::kGroundNode, 1e-15);
    net.addWire("w", n0, n1);
    net.addWire("x", x0, x0);
    const mor::LinearNetwork lin(net);
    EXPECT_THROW(lin.admittanceMoments(n0, {x0}, 3), ModelError);
}

TEST(PiModel, SynthesisInvertsSingleSection) {
    // For a single RC section the Pi model is exact: C1 = 0, R, C2 = C.
    const double r = 125.0, c = 40e-15;
    const auto pi = mor::piFromMoments({c, -r * c * c, r * r * c * c * c});
    EXPECT_NEAR(pi.c2, c, c * 1e-9);
    EXPECT_NEAR(pi.r, r, r * 1e-9);
    EXPECT_NEAR(pi.c1, 0.0, c * 1e-9);
}

TEST(PiModel, RealizedMomentsMatchRequested) {
    util::Rng rng(11);
    for (int k = 0; k < 50; ++k) {
        const double c1 = rng.uniform(1e-15, 50e-15);
        const double c2 = rng.uniform(1e-15, 80e-15);
        const double r = rng.uniform(10.0, 500.0);
        const mor::PiModel ref{c1, r, c2};
        const auto back = mor::piFromMoments(ref.admittanceMoments());
        EXPECT_NEAR(back.c1, c1, c1 * 1e-6);
        EXPECT_NEAR(back.r, r, r * 1e-6);
        EXPECT_NEAR(back.c2, c2, c2 * 1e-6);
    }
}

TEST(PiModel, LadderMomentsPreserved) {
    // Property: the Pi synthesized from a ladder's moments realizes those
    // moments exactly (the O'Brien-Savarino guarantee).
    ic::ParallelBusSpec spec;
    spec.layer = &tech::tech130().layer("M4");
    spec.wires = 1;
    for (const int segments : {2, 4, 8, 16, 32}) {
        spec.segments = segments;
        const RcNetwork net = buildParallelBus(spec);
        const mor::LinearNetwork lin(net);
        const auto y = lin.admittanceMoments(net.driverNode(0), {}, 3);
        const auto pi = mor::piFromMoments(y);
        const auto back = pi.admittanceMoments();
        EXPECT_NEAR(back[0], y[0], std::abs(y[0]) * 1e-9) << segments;
        EXPECT_NEAR(back[1], y[1], std::abs(y[1]) * 1e-9) << segments;
        EXPECT_NEAR(back[2], y[2], std::abs(y[2]) * 1e-9) << segments;
    }
}

TEST(PiModel, RejectsNonRealizable) {
    EXPECT_THROW(mor::piFromMoments({-1e-15, -1e-27, 1e-40}), ModelError);
    EXPECT_THROW(mor::piFromMoments({1e-15, +1e-27, 1e-40}), ModelError);
    EXPECT_THROW(mor::piFromMoments({1e-15}), ModelError);
}

TEST(Moments, TransferM1EqualsCouplingCap) {
    // First transfer moment between two coupled wires equals the total
    // coupling capacitance (all of wire A at 1 V at DC, B shorted).
    ic::ParallelBusSpec spec;
    spec.layer = &tech::tech130().layer("M4");
    spec.wires = 2;
    spec.segments = 12;
    const RcNetwork net = buildParallelBus(spec);
    const mor::LinearNetwork lin(net);
    const auto t =
        lin.transferMoments(net.driverNode(0), net.driverNode(1), 2);
    EXPECT_NEAR(std::abs(t[0]), net.couplingCapBetween(0, 1),
                net.couplingCapBetween(0, 1) * 1e-9);
}

TEST(CoupledPi, SelfCapacitancePreserved) {
    ic::ParallelBusSpec spec;
    spec.layer = &tech::tech130().layer("M4");
    spec.wires = 3;
    spec.segments = 16;
    const RcNetwork net = buildParallelBus(spec);
    const auto reduced = mor::reduceCluster(net);
    ASSERT_EQ(reduced.nets.size(), 3u);
    for (int w = 0; w < 3; ++w) {
        double cc = 0.0;
        for (int o = 0; o < 3; ++o) {
            if (o != w) cc += net.couplingCapBetween(w, o);
        }
        // Pi caps + coupling = original self admittance m1 = cg + cc.
        const double expected = net.totalGroundCapOf(w) + cc;
        EXPECT_NEAR(reduced.nets[w].pi.totalCap() + cc, expected,
                    expected * 1e-6);
    }
    // Coupling entries preserve pair totals.
    for (const auto& cp : reduced.couplings) {
        EXPECT_NEAR(cp.nearCap + cp.farCap,
                    net.couplingCapBetween(cp.netA, cp.netB),
                    1e-24);
    }
}

// Golden-vs-reduced comparison circuit: aggressor driven by a Thevenin
// ramp, victim held by a resistor; returns victim driving-point waveform.
wave::Waveform clusterResponse(const RcNetwork& net, bool reduced,
                               bool usePrima, int blocks = 3) {
    spice::Circuit c;
    const auto vicDp = c.node("vic_dp");
    const auto aggDp = c.node("agg_dp");
    const auto aggSrc = c.node("agg_src");
    c.addVSource("vagg", aggSrc, spice::kGround,
                 spice::SourceSpec::pwl(
                     wave::saturatedRamp(0, 1.2, 2e-10, 6e-11, 4e-9)));
    c.addResistor("rth", aggSrc, aggDp, 150.0);
    c.addResistor("rhold", vicDp, spice::kGround, 400.0);

    if (!reduced) {
        const auto ids = net.buildInto(c, "full:");
        c.addResistor("vic_tie", vicDp, ids[net.driverNode(0)], 1e-3);
        c.addResistor("agg_tie", aggDp, ids[net.driverNode(1)], 1e-3);
    } else if (usePrima) {
        const mor::LinearNetwork lin(net);
        const std::vector<int> ports{net.driverNode(0), net.driverNode(1)};
        c.addDevice<mor::ReducedMultiport>(
            "prima", std::vector<spice::NodeId>{vicDp, aggDp},
            mor::primaReduce(lin, ports, blocks));
    } else {
        const auto model = mor::reduceCluster(net);
        model.buildInto(c, "pi:", {vicDp, aggDp});
    }
    spice::TranOptions opt;
    opt.tstop = 3e-9;
    const auto res = spice::simulateTransient(c, opt);
    return res.waveform("vic_dp");
}

class ReducedAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(ReducedAccuracy, PiAndPrimaTrackFullModel) {
    ic::ParallelBusSpec spec;
    spec.layer = &tech::tech130().layer("M4");
    spec.wires = 2;
    spec.segments = GetParam();
    spec.netNames = {"vic", "agg"};
    const RcNetwork net = buildParallelBus(spec);

    const auto full = clusterResponse(net, false, false);
    const auto pi = clusterResponse(net, true, false);
    const auto prima = clusterResponse(net, true, true);

    const auto mFull = wave::measureGlitch(full, 0.0);
    const auto mPi = wave::measureGlitch(pi, 0.0);
    const auto mPrima = wave::measureGlitch(prima, 0.0);
    ASSERT_GT(mFull.peak, 0.02);
    // Driving-point reductions track the full model within a few percent.
    EXPECT_NEAR(mPi.peak, mFull.peak, 0.06 * mFull.peak);
    EXPECT_NEAR(mPrima.peak, mFull.peak, 0.04 * mFull.peak);
    EXPECT_NEAR(mPi.area, mFull.area, 0.08 * std::abs(mFull.area));
    EXPECT_NEAR(mPrima.area, mFull.area, 0.05 * std::abs(mFull.area));
}

INSTANTIATE_TEST_SUITE_P(Segments, ReducedAccuracy,
                         ::testing::Values(4, 8, 16, 32));

TEST(Prima, MoreBlocksDoNotDegrade) {
    ic::ParallelBusSpec spec;
    spec.layer = &tech::tech130().layer("M4");
    spec.wires = 2;
    spec.segments = 24;
    spec.netNames = {"vic", "agg"};
    const RcNetwork net = buildParallelBus(spec);
    const auto full = clusterResponse(net, false, false);
    const auto q2 = clusterResponse(net, true, true, 2);
    const auto q5 = clusterResponse(net, true, true, 5);
    const double e2 = wave::rmsDifference(full, q2);
    const double e5 = wave::rmsDifference(full, q5);
    EXPECT_LE(e5, e2 * 1.5 + 1e-6);  // no catastrophic degradation
    EXPECT_LT(e5, 0.01);             // and genuinely accurate
}

TEST(Prima, ReducedModelIsSmall) {
    ic::ParallelBusSpec spec;
    spec.layer = &tech::tech130().layer("M4");
    spec.wires = 3;
    spec.segments = 32;
    const RcNetwork net = buildParallelBus(spec);
    const mor::LinearNetwork lin(net);
    const std::vector<int> ports{net.driverNode(0), net.driverNode(1),
                                 net.driverNode(2)};
    const auto model = mor::primaReduce(lin, ports, 3);
    EXPECT_LE(model.order(), 9);
    EXPECT_EQ(model.ports(), 3);
    EXPECT_GT(lin.size(), 3 * 32);  // full model is much larger
}

TEST(Elmore, MatchesAnalyticLadder) {
    // Uniform ladder: Elmore = sum_k C_k * R_upstream; for total R, C split
    // into N segments this approaches R*C/2 (+ end corrections).
    ic::ParallelBusSpec spec;
    spec.layer = &tech::tech130().layer("M4");
    spec.wires = 1;
    spec.segments = 64;
    const RcNetwork net = buildParallelBus(spec);
    const mor::LinearNetwork lin(net);
    const double r = net.totalResistanceOf(0);
    const double c = net.totalGroundCapOf(0);
    EXPECT_NEAR(lin.elmoreDelay(net, 0), 0.5 * r * c, 0.03 * 0.5 * r * c);
}

}  // namespace
