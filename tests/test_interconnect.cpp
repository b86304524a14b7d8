// Tests for the coupled RC builders: conservation of totals, ownership,
// SPEF round-trip, and convergence with segment refinement.
#include <gtest/gtest.h>

#include "core/design_index.hpp"
#include "interconnect/parallel_bus.hpp"
#include "parser/spef_parser.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "waveform/metrics.hpp"
#include "waveform/sources.hpp"

namespace {

using namespace sna;
using ic::ParallelBusSpec;
using ic::RcNetwork;

ParallelBusSpec paperBus(int wires = 2, int segments = 16) {
    ParallelBusSpec spec;
    spec.layer = &tech::tech130().layer("M4");
    spec.lengthUm = 500.0;
    spec.wires = wires;
    spec.segments = segments;
    return spec;
}

TEST(ParallelBus, TotalsMatchPerUnitLength) {
    const auto& layer = tech::tech130().layer("M4");
    const RcNetwork net = buildParallelBus(paperBus());
    ASSERT_EQ(net.wireCount(), 2);
    for (int w = 0; w < 2; ++w) {
        EXPECT_NEAR(net.totalResistanceOf(w), layer.rPerUm * 500.0, 1e-9);
        EXPECT_NEAR(net.totalGroundCapOf(w), layer.cgPerUm * 500.0, 1e-24);
    }
    EXPECT_NEAR(net.couplingCapBetween(0, 1), layer.ccPerUm * 500.0, 1e-24);
}

TEST(ParallelBus, ThreeWiresOnlyAdjacentCoupling) {
    const RcNetwork net = buildParallelBus(paperBus(3));
    EXPECT_GT(net.couplingCapBetween(0, 1), 0.0);
    EXPECT_GT(net.couplingCapBetween(1, 2), 0.0);
    EXPECT_DOUBLE_EQ(net.couplingCapBetween(0, 2), 0.0);
}

TEST(ParallelBus, OwnershipFollowsResistiveConnectivity) {
    const RcNetwork net = buildParallelBus(paperBus(2, 4));
    for (int n = 0; n < net.nodeCount(); ++n) {
        const int w = net.wireOfNode(n);
        ASSERT_GE(w, 0);
        // Node names carry the wire name prefix by construction.
        EXPECT_EQ(net.nodeName(n).rfind(net.wireName(w) + ":", 0), 0u);
    }
    EXPECT_EQ(net.wireOfNode(net.driverNode(1)), 1);
    EXPECT_EQ(net.wireOfNode(net.receiverNode(1)), 1);
}

TEST(ParallelBus, CustomNetNames) {
    auto spec = paperBus();
    spec.netNames = {"victim", "aggr1"};
    const RcNetwork net = buildParallelBus(spec);
    EXPECT_EQ(net.wireName(0), "victim");
    EXPECT_NE(net.findNode("aggr1:0"), -2);
}

TEST(ParallelBus, RejectsBadSpecs) {
    ParallelBusSpec spec;  // no layer
    EXPECT_THROW(buildParallelBus(spec), LogicError);
    spec = paperBus();
    spec.segments = 0;
    EXPECT_THROW(buildParallelBus(spec), LogicError);
    spec = paperBus();
    spec.netNames = {"onlyone"};
    EXPECT_THROW(buildParallelBus(spec), LogicError);
}

TEST(RcNetwork, AggregatesAndValidation) {
    RcNetwork net;
    const int a0 = net.addNode("a:0");
    const int a1 = net.addNode("a:1");
    net.addRes(a0, a1, 100.0);
    net.addCap(a1, RcNetwork::kGroundNode, 1e-15);
    net.addWire("a", a0, a1);
    EXPECT_DOUBLE_EQ(net.totalResistanceOf(0), 100.0);
    EXPECT_DOUBLE_EQ(net.totalGroundCapOf(0), 1e-15);
    EXPECT_THROW(net.addNode("a:0"), LogicError);
    EXPECT_THROW(net.addRes(a0, 99, 1.0), LogicError);
    EXPECT_THROW(net.addCap(a0, a1, -1e-15), LogicError);
}

TEST(RcNetwork, BuildIntoCreatesPrefixedDevices) {
    const RcNetwork net = buildParallelBus(paperBus(2, 3));
    spice::Circuit c;
    const auto ids = net.buildInto(c, "w:");
    EXPECT_EQ(ids.size(), static_cast<std::size_t>(net.nodeCount()));
    EXPECT_TRUE(c.findNode("w:net0:0").has_value());
    EXPECT_TRUE(c.findNode("w:net1:3").has_value());
    // 2 wires x 3 segments of resistance.
    int resCount = 0;
    for (const auto& d : c.devices()) {
        if (dynamic_cast<const spice::Resistor*>(d.get()) != nullptr) {
            ++resCount;
        }
    }
    EXPECT_EQ(resCount, 6);
}

TEST(ParallelBus, SpefRoundTripPreservesTotals) {
    auto spec = paperBus(3, 8);
    spec.netNames = {"victim", "agg1", "agg2"};
    const RcNetwork net = buildParallelBus(spec);
    const std::string spefText = ic::toSpef(net, "rt");
    const auto spef = parser::parseSpef(spefText);

    ASSERT_EQ(spef.nets().size(), 3u);
    // Per-net resistances round-trip exactly.
    double rTotal = 0.0;
    for (const auto& r : spef.net("victim").ress) rTotal += r.ohms;
    EXPECT_NEAR(rTotal, net.totalResistanceOf(0), 1e-9);
    // Coupling caps connect each wire to its adjacent neighbours only.
    const cell::CellLibrary lib(tech::tech130());
    const core::Design design(lib);  // no instances: coupling only
    const core::DesignIndex index(design, spef);
    const auto& aggs = index.couplingOf("victim");
    ASSERT_EQ(aggs.size(), 1u);  // victim couples only to agg1 (adjacent)
    EXPECT_EQ(aggs.begin()->first, "agg1");
    EXPECT_EQ(index.couplingOf("agg1").size(), 2u);  // victim and agg2
    // Total capacitance over all nets is conserved.
    double capAll = 0.0;
    for (const auto& [name, n] : spef.nets()) capAll += n.sectionCapTotal();
    double capNet = 0.0;
    for (const auto& c : net.caps()) capNet += c.farads;
    EXPECT_NEAR(capAll, capNet, 1e-21);
}

TEST(ParallelBus, SegmentRefinementConvergesGlitchPeak) {
    // The injected glitch on a resistively held victim must converge as the
    // ladder is refined; 16 segments should be within a few % of 48.
    auto glitchPeak = [](int segments) {
        auto spec = paperBus(2, segments);
        spec.netNames = {"vic", "agg"};
        const RcNetwork net = buildParallelBus(spec);
        spice::Circuit c;
        const auto ids = net.buildInto(c, "");
        c.addVSource("vagg", ids[net.driverNode(1)], spice::kGround,
                     spice::SourceSpec::pwl(
                         wave::saturatedRamp(0, 1.2, 1e-10, 5e-11, 4e-9)));
        c.addResistor("rhold", ids[net.driverNode(0)], spice::kGround, 500.0);
        spice::TranOptions opt;
        opt.tstop = 2e-9;
        const auto res = spice::simulateTransient(c, opt);
        return wave::measureGlitch(res.waveform("vic:0"), 0.0).peak;
    };
    const double p16 = glitchPeak(16);
    const double p48 = glitchPeak(48);
    EXPECT_GT(p16, 0.01);
    EXPECT_NEAR(p16, p48, 0.05 * std::abs(p48));
}

}  // namespace
