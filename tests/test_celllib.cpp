// Tests for the standard-cell library: truth tables at the transistor level
// (every cell, every input vector, both technologies), holding vectors, and
// electrical sanity of drive strengths.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "celllib/library.hpp"
#include "spice/dc.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "waveform/sources.hpp"

namespace {

using namespace sna;
using cell::CellLibrary;
using spice::SourceSpec;

struct CellCase {
    const tech::Technology* tech;
    std::string cellName;
};

void PrintTo(const CellCase& c, std::ostream* os) {
    *os << c.tech->name << "/" << c.cellName;
}

std::vector<CellCase> allCellCases() {
    std::vector<CellCase> cases;
    for (const auto* t : tech::allTechnologies()) {
        const CellLibrary lib(*t);
        for (const auto& name : lib.names()) cases.push_back({t, name});
    }
    return cases;
}

class CellTruthTable : public ::testing::TestWithParam<CellCase> {};

// Instantiate the cell with DC input sources for every possible input
// vector and compare the transistor-level output to the LogicFn.
TEST_P(CellTruthTable, MatchesLogicFunctionAtTransistorLevel) {
    const auto& p = GetParam();
    const CellLibrary lib(*p.tech);
    const cell::Cell& c = lib.cell(p.cellName);
    const auto inputs = c.inputNames();
    const double vdd = p.tech->vdd;

    for (std::size_t mask = 0; mask < (std::size_t{1} << inputs.size());
         ++mask) {
        spice::Circuit ckt;
        const auto vddNode = ckt.node("vdd");
        ckt.addVSource("vsupply", vddNode, spice::kGround, SourceSpec::dc(vdd));
        std::map<std::string, spice::NodeId> pinNodes;
        std::map<std::string, bool> assignment;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const bool hi = ((mask >> i) & 1u) != 0;
            assignment[inputs[i]] = hi;
            const auto n = ckt.node(inputs[i]);
            pinNodes[inputs[i]] = n;
            ckt.addVSource("v_" + inputs[i], n, spice::kGround,
                           SourceSpec::dc(hi ? vdd : 0.0));
        }
        pinNodes[c.outputName()] = ckt.node("out");
        c.instantiate(ckt, "dut", pinNodes, vddNode);

        const auto dc = spice::solveDc(ckt);
        const bool expected = c.evaluate(assignment);
        const double vout = dc.voltage("out");
        EXPECT_NEAR(vout, expected ? vdd : 0.0, 0.02 * vdd)
            << "input mask " << mask;
    }
}

INSTANTIATE_TEST_SUITE_P(AllCells, CellTruthTable,
                         ::testing::ValuesIn(allCellCases()));

class CellHoldingVector : public ::testing::TestWithParam<CellCase> {};

TEST_P(CellHoldingVector, SensitizedVectorsExistForEveryInput) {
    const auto& p = GetParam();
    const CellLibrary lib(*p.tech);
    const cell::Cell& c = lib.cell(p.cellName);
    for (const auto& in : c.inputNames()) {
        for (const bool level : {false, true}) {
            const auto vec = c.holdingVector(level, in);
            EXPECT_EQ(c.evaluate(vec), level);
            // Flipping the sensitized input flips the output.
            auto flipped = vec;
            flipped[in] = !flipped[in];
            EXPECT_EQ(c.evaluate(flipped), !level);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllCells, CellHoldingVector,
                         ::testing::ValuesIn(allCellCases()));

TEST(CellLibrary, UnknownCellThrows) {
    const CellLibrary lib(tech::tech130());
    EXPECT_THROW(lib.cell("XOR9_X7"), ModelError);
    EXPECT_FALSE(lib.has("XOR9_X7"));
    EXPECT_TRUE(lib.has("NAND2_X1"));
}

TEST(CellLibrary, InputCapScalesWithDriveStrength) {
    const CellLibrary lib(tech::tech130());
    const double c1 = lib.cell("INV_X1").inputCapacitance("a");
    const double c2 = lib.cell("INV_X2").inputCapacitance("a");
    const double c4 = lib.cell("INV_X4").inputCapacitance("a");
    EXPECT_GT(c1, 0.0);
    EXPECT_NEAR(c2 / c1, 2.0, 0.05);
    EXPECT_NEAR(c4 / c1, 4.0, 0.05);
    EXPECT_THROW(lib.cell("INV_X1").inputCapacitance("zz"), LogicError);
}

TEST(CellLibrary, StrongerInverterSwitchesFaster) {
    const auto& t = tech::tech130();
    const CellLibrary lib(t);
    auto delayOf = [&](const std::string& cellName) {
        spice::Circuit ckt;
        const auto vdd = ckt.node("vdd");
        const auto in = ckt.node("in");
        const auto out = ckt.node("out");
        ckt.addVSource("vs", vdd, spice::kGround, SourceSpec::dc(t.vdd));
        ckt.addVSource("vin", in, spice::kGround,
                       SourceSpec::pwl(wave::saturatedRamp(0, t.vdd, 1e-10,
                                                           3e-11, 4e-9)));
        ckt.addCapacitor("cl", out, spice::kGround, 20e-15);
        lib.cell(cellName).instantiate(ckt, "dut",
                                       {{"a", in}, {"y", out}}, vdd);
        spice::TranOptions opt;
        opt.tstop = 3e-9;
        const auto res = spice::simulateTransient(ckt, opt);
        const wave::Waveform outWave = res.waveform("out");
        for (const auto& s : outWave.samples()) {
            if (s.v < 0.5 * t.vdd) return s.t;
        }
        return opt.tstop;
    };
    const double d1 = delayOf("INV_X1");
    const double d4 = delayOf("INV_X4");
    EXPECT_LT(d4, d1);
}

TEST(CellLibrary, Nand2OutputLowHasStackedPulldownResistance) {
    // With y held low (a=b=1), raising y must sink current through the
    // NMOS stack; the small-signal resistance must be finite and positive.
    const auto& t = tech::tech130();
    const CellLibrary lib(t);
    const cell::Cell& nand2 = lib.cell("NAND2_X1");

    spice::Circuit ckt;
    const auto vdd = ckt.node("vdd");
    ckt.addVSource("vs", vdd, spice::kGround, SourceSpec::dc(t.vdd));
    const auto a = ckt.node("a");
    const auto b = ckt.node("b");
    const auto y = ckt.node("y");
    ckt.addVSource("va", a, spice::kGround, SourceSpec::dc(t.vdd));
    ckt.addVSource("vb", b, spice::kGround, SourceSpec::dc(t.vdd));
    auto& vy = ckt.addVSource("vy", y, spice::kGround, SourceSpec::dc(0.0));
    nand2.instantiate(ckt, "dut", {{"a", a}, {"b", b}, {"y", y}}, vdd);

    la::Vector warm;
    double iPrev = 0.0;
    for (double v = 0.0; v <= 0.4; v += 0.1) {
        vy.setSpec(SourceSpec::dc(v));
        const auto dc =
            spice::solveDc(ckt, warm.empty() ? nullptr : &warm);
        warm = dc.raw();
        // vy must deliver increasing current into y as it is pulled up:
        // that current is sunk by the NMOS stack.
        const double i = dc.sourceCurrent("vy");
        if (v > 0.0) {
            EXPECT_GT(i, iPrev);
        }
        iPrev = i;
    }
}

// ------------------------------------------------------- shared registry

TEST(SharedLibrary, KeyedOnElectricalIdentityNotAddress) {
    const tech::Technology copy = tech::tech130();
    ASSERT_NE(&copy, &tech::tech130());
    const CellLibrary& base = cell::sharedLibrary(tech::tech130());
    EXPECT_EQ(&cell::sharedLibrary(copy), &base);
    EXPECT_EQ(&cell::sharedLibrary(copy).technology(), &base.technology());

    tech::Technology mos = copy;
    mos.pmos.cjsw = std::nextafter(mos.pmos.cjsw, 1.0);
    const CellLibrary& mosLib = cell::sharedLibrary(mos);
    EXPECT_NE(&mosLib, &base);
    EXPECT_EQ(mosLib.technology().pmos.cjsw, mos.pmos.cjsw);

    tech::Technology wire = copy;
    wire.layers.back().ccPerUm *= 2.0;
    const CellLibrary& wireLib = cell::sharedLibrary(wire);
    EXPECT_NE(&wireLib, &base);
    EXPECT_NE(&wireLib, &mosLib);
    EXPECT_EQ(wireLib.technology().layers.back().ccPerUm,
              wire.layers.back().ccPerUm);
}

TEST(SharedLibrary, CellsCarryTheTechnologyKeyBuiltOnce) {
    const CellLibrary& lib = cell::sharedLibrary(tech::tech90());
    const std::string want = tech::identityKey(tech::tech90());
    for (const std::string& name : lib.names()) {
        EXPECT_EQ(lib.cell(name).technologyKey(), want) << name;
    }
}

TEST(CellLibrary, CallerOwnedTechnologyKeyFollowsInPlaceMutation) {
    tech::Technology t = tech::tech130();
    const CellLibrary lib(t);
    const cell::Cell& inv = lib.cell("INV_X1");
    const std::string before = inv.technologyKey();
    EXPECT_EQ(before, tech::identityKey(tech::tech130()));
    t.nmos.vt0 = std::nextafter(t.nmos.vt0, 1.0);
    EXPECT_NE(inv.technologyKey(), before);
    EXPECT_EQ(inv.technologyKey(), tech::identityKey(t));
}

TEST(SharedLibrary, ConcurrentFirstCallsShareOneLibrary) {
    // A technology no other test registers, so the 8 threads race to
    // create its entry, not just to look it up.
    tech::Technology t = tech::tech90();
    t.name = "shared_library_race";
    constexpr int kThreads = 8;
    std::vector<const CellLibrary*> got(kThreads, nullptr);
    std::atomic<int> waiting{kThreads};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            waiting.fetch_sub(1);
            while (waiting.load() > 0) std::this_thread::yield();
            got[i] = &cell::sharedLibrary(t);
        });
    }
    for (auto& th : threads) th.join();
    for (const CellLibrary* lib : got) EXPECT_EQ(lib, got.front());
    EXPECT_EQ(got.front()->technology().name, "shared_library_race");
    EXPECT_NE(&got.front()->technology(), &t);  // the registry owns a copy
}

}  // namespace
