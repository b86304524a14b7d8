// Deeper engine validation: the table-VCCS against the transistor cell it
// models (the most direct check of Eq. (1)), floating sources and VCVS in
// transient, integration-order behavior, Thevenin/NRC secondary paths, and
// reduced-multiport DC correctness.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "celllib/library.hpp"
#include "charlib/characterize.hpp"
#include "interconnect/parallel_bus.hpp"
#include "mor/linear_network.hpp"
#include "mor/coupled_pi.hpp"
#include "mor/prima.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "waveform/metrics.hpp"
#include "waveform/sources.hpp"

namespace {

using namespace sna;
using spice::SourceSpec;

// ------------------------------------------------- table-VCCS vs transistors

// Drive the NAND2 transistor cell and its characterized table-VCCS stand-in
// with the same input glitch into the same lumped load, and compare the
// output waveforms. This isolates the Eq. (1) modeling error from the
// interconnect and Thevenin pieces.
class TableVsTransistors : public ::testing::TestWithParam<double> {};

TEST_P(TableVsTransistors, OutputGlitchMatches) {
    const double glitchHeight = GetParam();
    const cell::CellLibrary lib(tech::tech130());
    const cell::Cell& nand2 = lib.cell("NAND2_X1");
    const double vdd = 1.2;
    const double load = 40e-15;
    const auto glitch =
        wave::triangleGlitch(vdd, -glitchHeight, 0.3e-9, 250e-12, 2e-9);

    // Golden: transistor cell.
    spice::Circuit gold;
    {
        const auto vddNode = gold.node("vdd");
        const auto a = gold.node("a");
        const auto b = gold.node("b");
        const auto y = gold.node("y");
        gold.addVSource("vs", vddNode, spice::kGround, SourceSpec::dc(vdd));
        gold.addVSource("va", a, spice::kGround, SourceSpec::pwl(glitch));
        gold.addVSource("vb", b, spice::kGround, SourceSpec::dc(vdd));
        gold.addCapacitor("cl", y, spice::kGround, load);
        nand2.instantiate(gold, "dut", {{"a", a}, {"b", b}, {"y", y}},
                          vddNode);
    }
    // Macromodel: characterized table + the driver's own output cap.
    charlib::LoadCurveSpec lc;
    lc.cell = &nand2;
    lc.input = "a";
    lc.outputLevel = false;
    const auto table = std::make_shared<const la::Grid2d>(
        charlib::characterizeLoadCurve(lc));
    spice::Circuit model;
    {
        const auto a = model.node("a");
        const auto y = model.node("y");
        model.addVSource("va", a, spice::kGround, SourceSpec::pwl(glitch));
        model.addTableVccs("idc", y, a, table);
        model.addCapacitor("cdrv", y, spice::kGround,
                           nand2.outputCapacitance("y"));
        model.addCapacitor("cl", y, spice::kGround, load);
    }
    spice::TranOptions opt;
    opt.tstop = 2e-9;
    const auto wGold = spice::simulateTransient(gold, opt).waveform("y");
    const auto wModel = spice::simulateTransient(model, opt).waveform("y");
    const auto mGold = wave::measureGlitch(wGold, 0.0);
    const auto mModel = wave::measureGlitch(wModel, 0.0);
    if (std::abs(mGold.peak) < 0.02) {
        EXPECT_LT(std::abs(mModel.peak), 0.05);
        return;
    }
    // Mixed tolerance: a relative band plus a millivolt-scale floor — near
    // the holding point the bilinear patch spacing dominates the (tiny)
    // absolute error.
    EXPECT_NEAR(mModel.peak, mGold.peak,
                0.08 * std::abs(mGold.peak) + 6e-3)
        << "height " << glitchHeight;
    EXPECT_NEAR(mModel.area, mGold.area,
                0.10 * std::abs(mGold.area) + 0.9e-12);
}

INSTANTIATE_TEST_SUITE_P(GlitchHeights, TableVsTransistors,
                         ::testing::Values(0.4, 0.6, 0.8, 1.0, 1.2));

// ------------------------------------------------------ transient devices

TEST(TranDevices, FloatingVSourceInTransient) {
    // Level shifter: floating source stacked on a ramping grounded source.
    spice::Circuit c;
    const auto a = c.node("a");
    const auto b = c.node("b");
    c.addVSource("vbase", a, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 1, 0.2e-9, 0.1e-9,
                                                     2e-9)));
    c.addVSource("vstack", b, a, SourceSpec::dc(0.5));
    c.addResistor("rl", b, spice::kGround, 1e3);
    spice::TranOptions opt;
    opt.tstop = 2e-9;
    const auto res = spice::simulateTransient(c, opt);
    EXPECT_NEAR(res.waveform("b").value(0.1e-9), 0.5, 1e-6);
    EXPECT_NEAR(res.waveform("b").value(1.5e-9), 1.5, 1e-6);
}

// ----------------------------------------------------- charlib extra paths

TEST(TheveninExtra, FallingAndRisingAreBothPhysical) {
    const cell::CellLibrary lib(tech::tech130());
    charlib::TheveninSpec spec;
    spec.cell = &lib.cell("INV_X2");
    spec.input = "a";
    spec.loadCap = 40e-15;
    spec.outputRising = true;
    const auto up = charlib::characterizeThevenin(spec);
    spec.outputRising = false;
    const auto down = charlib::characterizeThevenin(spec);
    EXPECT_DOUBLE_EQ(up.vStart, 0.0);
    EXPECT_DOUBLE_EQ(up.vEnd, 1.2);
    EXPECT_DOUBLE_EQ(down.vStart, 1.2);
    EXPECT_DOUBLE_EQ(down.vEnd, 0.0);
    // NMOS pulldown is stronger than the PMOS pullup at equal width ratio
    // 2:1 given kp ratio ~2.4: falling R is smaller.
    EXPECT_LT(down.rth, up.rth);
}

TEST(NrcExtra, QuietHighInputCurveIsMonotone) {
    const cell::CellLibrary lib(tech::tech130());
    charlib::NrcSpec spec;
    spec.cell = &lib.cell("INV_X2");
    spec.input = "a";
    spec.quietLevel = true;  // downward glitches on a high input
    spec.widths = {100e-12, 300e-12, 900e-12};
    const auto curve = charlib::characterizeNrc(spec);
    EXPECT_GE(curve.ys()[0], curve.ys()[1] - 1e-3);
    EXPECT_GE(curve.ys()[1], curve.ys()[2] - 1e-3);
    EXPECT_GT(curve.ys()[2], 0.3);
}

// ------------------------------------------------------ reduced multiport DC

TEST(ReducedMultiportDc, MatchesFullNetworkOperatingPoint) {
    // DC through the reduced model: port constraints must reproduce the
    // full network's resistive solution (here: both ports driven).
    ic::ParallelBusSpec spec;
    spec.layer = &tech::tech130().layer("M4");
    spec.wires = 2;
    spec.segments = 10;
    const auto net = buildParallelBus(spec);
    const mor::LinearNetwork lin(net);
    const std::vector<int> ports{net.driverNode(0), net.driverNode(1)};

    spice::Circuit c;
    const auto p0 = c.node("p0");
    const auto p1 = c.node("p1");
    c.addVSource("v0", p0, spice::kGround, SourceSpec::dc(0.7));
    c.addVSource("v1", p1, spice::kGround, SourceSpec::dc(0.2));
    c.addDevice<mor::ReducedMultiport>(
        "red", std::vector<spice::NodeId>{p0, p1},
        mor::primaReduce(lin, ports, 3));
    const auto dc = spice::solveDc(c);
    // Pure RC network: no DC current flows, ports sit at their sources.
    EXPECT_NEAR(dc.voltage("p0"), 0.7, 1e-9);
    EXPECT_NEAR(dc.voltage("p1"), 0.2, 1e-9);
    EXPECT_NEAR(dc.sourceCurrent("v0"), 0.0, 1e-8);
}

TEST(ReducedMultiportDc, PortCountMismatchThrows) {
    ic::ParallelBusSpec spec;
    spec.layer = &tech::tech130().layer("M4");
    spec.wires = 2;
    spec.segments = 4;
    const auto net = buildParallelBus(spec);
    const mor::LinearNetwork lin(net);
    const auto model =
        mor::primaReduce(lin, {net.driverNode(0), net.driverNode(1)}, 2);
    spice::Circuit c;
    EXPECT_THROW(c.addDevice<mor::ReducedMultiport>(
                     "red", std::vector<spice::NodeId>{c.node("only_one")},
                     model),
                 LogicError);
}

// -------------------------------------------------------- star topologies

TEST(StarCluster, ThreeAggressorsAllCoupleToVictim) {
    ic::StarClusterSpec spec;
    spec.layer = &tech::tech130().layer("M4");
    spec.aggressors = 3;
    spec.segments = 6;
    spec.ccScale = {1.0, 0.5, 0.25};
    const auto net = ic::buildStarCluster(spec);
    ASSERT_EQ(net.wireCount(), 4);
    const double cc0 = net.couplingCapBetween(0, 1);
    const double cc1 = net.couplingCapBetween(0, 2);
    const double cc2 = net.couplingCapBetween(0, 3);
    EXPECT_NEAR(cc1, 0.5 * cc0, 1e-21);
    EXPECT_NEAR(cc2, 0.25 * cc0, 1e-21);
    // Aggressors do not couple to each other in the star topology.
    EXPECT_DOUBLE_EQ(net.couplingCapBetween(1, 2), 0.0);
    // And the coupled-Pi reduction handles the 4-net cluster.
    const auto reduced = mor::reduceCluster(net);
    EXPECT_EQ(reduced.nets.size(), 4u);
    EXPECT_EQ(reduced.couplings.size(), 3u);
}

}  // namespace
