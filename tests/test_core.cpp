// Tests for the noise core: macromodel accuracy vs golden, baseline
// underestimation (the paper's thesis), alignment search, NRC reports, and
// the design-level flow.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "core/alignment.hpp"
#include "core/baselines.hpp"
#include "core/report.hpp"
#include "core/sna.hpp"
#include "interconnect/parallel_bus.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "waveform/sources.hpp"

namespace {

using namespace sna;
using core::AggressorSpec;
using core::ClusterMacromodel;
using core::ClusterSpec;

ClusterSpec paperCluster(double glitchFraction = 0.7, int aggressors = 1) {
    ClusterSpec spec;
    spec.victim.driverCell = "NAND2_X1";
    spec.victim.glitchInput = "a";
    spec.victim.outputLevel = false;
    spec.victim.glitchHeight = glitchFraction > 0.0
                                   ? glitchFraction * spec.technology->vdd
                                   : 0.0;
    spec.victim.glitchWidth = 250e-12;
    for (int a = 0; a < aggressors; ++a) {
        AggressorSpec agg;
        agg.driverCell = "INV_X2";
        agg.outputRising = true;
        spec.aggressors.push_back(agg);
    }
    spec.segments = 12;
    return spec;
}

TEST(Macromodel, DescribeListsFigure1Elements) {
    const ClusterMacromodel model(paperCluster());
    const std::string d = model.describe();
    EXPECT_NE(d.find("VCCS I_DC"), std::string::npos);
    EXPECT_NE(d.find("Thevenin V_TH"), std::string::npos);
    EXPECT_NE(d.find("coupled-Pi"), std::string::npos);
    EXPECT_NE(d.find("receiver"), std::string::npos);
}

TEST(Macromodel, HoldingPointIsQuiet) {
    const ClusterMacromodel model(paperCluster());
    // I_DC at the holding point is ~0 and the holding resistance is the
    // kOhm-scale NMOS stack resistance.
    EXPECT_NEAR(model.loadCurve()(model.inputHoldLevel(),
                                  model.outputHoldLevel()),
                0.0, 5e-6);
    EXPECT_GT(model.victimHoldingResistance(), 100.0);
    EXPECT_LT(model.victimHoldingResistance(), 1e4);
}

TEST(Macromodel, QuietClusterStaysQuiet) {
    // No propagated glitch and the aggressor switching only at 2.4 ns: the
    // victim driving point must sit at its baseline until then.
    ClusterSpec spec = paperCluster(0.0);
    const ClusterMacromodel model(spec);
    const auto r = model.analyzeAt({2.4e-9}, 0.0);
    double quietPeak = 0.0;
    for (const wave::Sample& s : r.waveform.samples()) {
        if (s.t <= 2.3e-9) quietPeak = std::max(quietPeak, std::abs(s.v));
    }
    EXPECT_LT(quietPeak, 0.01);
    // ... and the late aggressor still injects once it fires.
    EXPECT_GT(std::abs(r.metrics.peak), 0.1);
}

struct AccuracyCase {
    const tech::Technology* tech;
    const char* victim;
    int aggressors;
    double glitchFraction;
    double lengthUm;
};

void PrintTo(const AccuracyCase& c, std::ostream* os) {
    *os << c.tech->name << "/" << c.victim << "/agg" << c.aggressors
        << "/g" << c.glitchFraction << "/L" << c.lengthUm;
}

class MacromodelAccuracy : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(MacromodelAccuracy, TracksGoldenWithinFewPercent) {
    const auto& p = GetParam();
    ClusterSpec spec = paperCluster(p.glitchFraction, p.aggressors);
    spec.technology = p.tech;
    spec.victim.driverCell = p.victim;
    spec.victim.glitchHeight = p.glitchFraction * p.tech->vdd;
    spec.lengthUm = p.lengthUm;

    const ClusterMacromodel model(spec);
    const auto align = core::findWorstAlignment(model);
    ClusterSpec goldenSpec = spec;
    for (std::size_t a = 0; a < goldenSpec.aggressors.size(); ++a) {
        goldenSpec.aggressors[a].switchTime = align.aggressorSwitchTimes[a];
    }
    goldenSpec.victim.glitchTime = align.glitchTime;
    const auto golden = core::simulateGolden(goldenSpec);
    const auto macro =
        model.analyzeAt(align.aggressorSwitchTimes, align.glitchTime);

    ASSERT_GT(std::abs(golden.metrics.peak), 0.05);
    const double peakErr =
        (macro.metrics.peak - golden.metrics.peak) / golden.metrics.peak;
    const double areaErr =
        (macro.metrics.area - golden.metrics.area) / golden.metrics.area;
    // "The error was always within few percents" (Sec. 3). Our bound is a
    // conservative 11%: complex gates with stacked pull networks carry
    // internal-node charge the DC load curve cannot represent, worth a few
    // extra percent (always on the overestimating, safe side here).
    EXPECT_LT(std::abs(peakErr), 0.11) << "peak " << macro.metrics.peak
                                       << " vs " << golden.metrics.peak;
    EXPECT_LT(std::abs(areaErr), 0.12) << "area " << macro.metrics.area
                                       << " vs " << golden.metrics.area;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MacromodelAccuracy,
    ::testing::Values(
        AccuracyCase{&tech::tech130(), "NAND2_X1", 1, 0.7, 500.0},
        AccuracyCase{&tech::tech130(), "NAND2_X1", 2, 0.6, 500.0},
        AccuracyCase{&tech::tech130(), "NOR2_X1", 1, 0.6, 400.0},
        AccuracyCase{&tech::tech130(), "INV_X1", 1, 0.0, 600.0},
        AccuracyCase{&tech::tech90(), "NAND2_X1", 1, 0.7, 400.0},
        AccuracyCase{&tech::tech90(), "INV_X2", 2, 0.5, 500.0}));

TEST(Baselines, LinearSuperpositionUnderestimates) {
    // The paper's Table 1 claim: summing independently computed injected
    // and propagated noise misses the non-linear interaction and lands well
    // below golden.
    const ClusterSpec spec = paperCluster();
    const ClusterMacromodel model(spec);
    const auto align = core::findWorstAlignment(model);
    ClusterSpec goldenSpec = spec;
    goldenSpec.aggressors[0].switchTime = align.aggressorSwitchTimes[0];
    goldenSpec.victim.glitchTime = align.glitchTime;
    const auto golden = core::simulateGolden(goldenSpec);
    const auto b1 =
        core::analyzeLinearSuperposition(model, align.aggressorSwitchTimes);

    EXPECT_LT(b1.metrics.peak, 0.85 * golden.metrics.peak);
    EXPECT_LT(b1.metrics.area, 0.85 * golden.metrics.area);
}

TEST(Baselines, IterativeTheveninAlsoUnderestimates) {
    // The Sec. 1 claim about [4]: a linear victim model, even iteratively
    // refit, still leaves a significant underestimation.
    const ClusterSpec spec = paperCluster();
    const ClusterMacromodel model(spec);
    const auto align = core::findWorstAlignment(model);
    ClusterSpec goldenSpec = spec;
    goldenSpec.aggressors[0].switchTime = align.aggressorSwitchTimes[0];
    goldenSpec.victim.glitchTime = align.glitchTime;
    const auto golden = core::simulateGolden(goldenSpec);
    const auto macro =
        model.analyzeAt(align.aggressorSwitchTimes, align.glitchTime);
    const auto b2 = core::analyzeIterativeThevenin(
        model, align.aggressorSwitchTimes, align.glitchTime);

    EXPECT_LT(b2.metrics.peak, 0.92 * golden.metrics.peak);
    // The macromodel must be the most accurate of the three models.
    const double macroErr = std::abs(macro.metrics.peak - golden.metrics.peak);
    const double b2Err = std::abs(b2.metrics.peak - golden.metrics.peak);
    EXPECT_LT(macroErr, b2Err);
}

TEST(Baselines, InjectedOnlyClusterIsCloseAcrossModels) {
    // Without a propagated glitch the victim stays near its holding point,
    // where the linearization is valid: B1 is then a decent approximation
    // (this is why classical SNA worked at all).
    ClusterSpec spec = paperCluster(0.0);
    const ClusterMacromodel model(spec);
    const std::vector<double> t{0.4e-9};
    const auto macro = model.analyzeAt(t, 0.4e-9);
    const auto b1 = core::analyzeLinearSuperposition(model, t);
    ASSERT_GT(macro.metrics.peak, 0.03);
    EXPECT_NEAR(b1.metrics.peak, macro.metrics.peak,
                0.30 * macro.metrics.peak);
}

TEST(Baselines, SuperpositionIsExactInLinearClusters) {
    // Control experiment for the paper's thesis: when the victim driver IS
    // linear (a resistor), the injected contributions of two aggressors add
    // exactly. The Table 1 error therefore comes from the cell
    // non-linearity, not from the superposition arithmetic.
    auto build = [](bool agg1On, bool agg2On) {
        spice::Circuit c;
        const auto vic = c.node("vic");
        c.addResistor("rhold", vic, spice::kGround, 800.0);
        c.addCapacitor("cg", vic, spice::kGround, 25e-15);
        auto addAgg = [&](const char* name, bool on) {
            const auto src = c.node(std::string(name) + "_src");
            const auto dp = c.node(std::string(name) + "_dp");
            if (on) {
                c.addVSource(std::string("v") + name, src, spice::kGround,
                             spice::SourceSpec::pwl(wave::saturatedRamp(
                                 0, 1.2, 0.4e-9, 40e-12, 2e-9)));
            } else {
                c.addVSource(std::string("v") + name, src, spice::kGround,
                             spice::SourceSpec::dc(0.0));
            }
            c.addResistor(std::string("r") + name, src, dp, 200.0);
            c.addCapacitor(std::string("cc") + name, dp, vic, 30e-15);
            c.addCapacitor(std::string("cga") + name, dp, spice::kGround,
                           20e-15);
        };
        addAgg("a1", agg1On);
        addAgg("a2", agg2On);
        spice::TranOptions opt;
        opt.tstop = 2e-9;
        return spice::simulateTransient(c, opt).waveform("vic");
    };
    const auto both = build(true, true);
    const auto only1 = build(true, false);
    const auto only2 = build(false, true);
    const auto summed = only1.plus(only2);
    EXPECT_LT(wave::maxDifference(both, summed), 2e-3);  // ~exact (solver tol)
    // And the combined peak is meaningfully large, so the check is not
    // vacuous.
    EXPECT_GT(wave::measureGlitch(both, 0.0).peak, 0.1);
}

TEST(Baselines, WindowExcludedAggressorHeldQuiet) {
    // A windowed search reports an aggressor that cannot switch as +inf
    // (findWorstAlignment's contract); both baselines take its times, so
    // they must hold that aggressor at its pre-transition rail as the
    // macromodel does, not try to ramp it.
    const ClusterMacromodel model(paperCluster(0.7, 2));
    const double never = std::numeric_limits<double>::infinity();
    const auto macro = model.analyzeAt({never, 0.55e-9}, 0.45e-9);
    const auto b1 = core::analyzeLinearSuperposition(model, {never, 0.55e-9});
    const auto b2 =
        core::analyzeIterativeThevenin(model, {never, 0.55e-9}, 0.45e-9);
    for (const auto* r : {&b1, &b2}) {
        ASSERT_TRUE(std::isfinite(r->metrics.peak));
        EXPECT_GT(r->metrics.peak, 0.1);
        // Still the paper's ordering: the linear models underestimate.
        EXPECT_LT(r->metrics.peak, macro.metrics.peak);
    }
    // One silent aggressor injects less than two switching ones.
    EXPECT_LT(b1.metrics.peak,
              core::analyzeLinearSuperposition(model, {0.55e-9, 0.55e-9})
                  .metrics.peak);
}

TEST(Golden, WindowExcludedAggressorHeldQuiet) {
    // The golden takes a windowed search's times too: a +inf aggressor
    // holds its input at the pre-transition level (the macromodel's rule)
    // instead of throwing on a ramp that never finishes.
    ClusterSpec spec = paperCluster(0.7, 2);
    spec.victim.glitchTime = 0.45e-9;
    spec.aggressors[0].switchTime = std::numeric_limits<double>::infinity();
    spec.aggressors[1].switchTime = 0.55e-9;
    const auto golden = core::simulateGolden(spec);
    ASSERT_TRUE(std::isfinite(golden.metrics.peak));

    const ClusterMacromodel model(spec);
    const auto macro = model.analyzeAt(
        {spec.aggressors[0].switchTime, spec.aggressors[1].switchTime},
        spec.victim.glitchTime);
    EXPECT_LT(std::abs(macro.metrics.peak - golden.metrics.peak),
              0.11 * std::abs(golden.metrics.peak))
        << "macromodel " << macro.metrics.peak << " vs golden "
        << golden.metrics.peak;

    // One silent aggressor injects less than two switching ones.
    ClusterSpec both = spec;
    both.aggressors[0].switchTime = 0.55e-9;
    EXPECT_LT(golden.metrics.peak, core::simulateGolden(both).metrics.peak);
}

TEST(Macromodel, FullRcPartsHoldWindowExcludedAggressorQuiet) {
    // The MOR ablation's reference: the model drivers and receiver caps
    // around the full RC. A +inf aggressor goes through the same switch
    // rule as in buildCluster, so it is held at its rail, not ramped.
    const ClusterMacromodel model(paperCluster(0.7, 2));
    auto fullRc = [&](const std::vector<double>& times) {
        const auto start = std::chrono::steady_clock::now();
        spice::Circuit ckt;
        const auto dp = model.buildVictimDriver(ckt, "dp_vic", 0.45e-9);
        const auto drv = model.buildDrivers(ckt, dp, times);
        model.buildReceivers(ckt,
                             model.interconnect().buildInto(ckt, "rc:", drv));
        return core::simulateCluster(ckt, model.spec().tstop, "dp_vic",
                                     model.outputHoldLevel(), start);
    };
    const double never = std::numeric_limits<double>::infinity();
    const auto quiet = fullRc({never, 0.55e-9});
    ASSERT_TRUE(std::isfinite(quiet.metrics.peak));
    EXPECT_LT(quiet.metrics.peak, fullRc({0.55e-9, 0.55e-9}).metrics.peak);
}

TEST(Macromodel, PrimaModeMatchesPiMode) {
    const ClusterSpec spec = paperCluster();
    const ClusterMacromodel pi(spec);
    ClusterMacromodel::Options opt;
    opt.usePrima = true;
    const ClusterMacromodel prima(spec, opt);
    const std::vector<double> t{0.5e-9};
    const auto rPi = pi.analyzeAt(t, 0.45e-9);
    const auto rPrima = prima.analyzeAt(t, 0.45e-9);
    EXPECT_NEAR(rPrima.metrics.peak, rPi.metrics.peak,
                0.06 * std::abs(rPi.metrics.peak));
}

TEST(Macromodel, EngineIsMuchSmallerThanGolden) {
    const ClusterSpec spec = paperCluster();
    const ClusterMacromodel model(spec);
    const auto macro = model.analyze();
    const auto golden = core::simulateGolden(spec);
    EXPECT_LT(macro.engineNodes * 3, golden.engineNodes);
    EXPECT_LT(macro.runtimeSec, golden.runtimeSec);
}

TEST(Alignment, SearchBeatsDefaultAndMatchesBruteForce) {
    const ClusterSpec spec = paperCluster();
    const ClusterMacromodel model(spec);
    const auto defaultRun = model.analyze();
    const auto smart = core::findWorstAlignment(model);
    EXPECT_GE(std::abs(smart.worst.metrics.peak),
              std::abs(defaultRun.metrics.peak) - 1e-6);
    // Brute force over the same window cannot be much better.
    const auto brute = core::bruteForceWorstAlignment(model, 0.8e-9, 7);
    EXPECT_GE(std::abs(smart.worst.metrics.peak),
              0.97 * std::abs(brute.worst.metrics.peak));
}

TEST(Alignment, RequiresMatchingAggressorCount) {
    const ClusterSpec spec = paperCluster();
    const ClusterMacromodel model(spec);
    EXPECT_THROW(model.analyzeAt({1e-10, 2e-10}, 1e-10), LogicError);
}

TEST(Report, FlagsLargeGlitchAgainstNrc) {
    // Strong coupling + propagated glitch: must fail the receiver NRC.
    ClusterSpec spec = paperCluster(0.8, 2);
    spec.lengthUm = 700.0;
    core::ReportOptions opt;
    const auto report = core::analyzeCluster(spec, opt);
    EXPECT_GT(report.nrcLimit, 0.1);
    EXPECT_EQ(report.fails, report.margin <= 0.0);
    EXPECT_TRUE(report.fails);
}

TEST(Report, PassesQuietCluster) {
    // Tiny coupling and no propagated noise: must pass.
    ClusterSpec spec = paperCluster(0.0, 1);
    spec.lengthUm = 60.0;
    spec.segments = 4;
    const auto report = core::analyzeCluster(spec);
    EXPECT_FALSE(report.fails);
    EXPECT_GT(report.margin, 0.0);
}

// A cached characterization must be the direct one, bit for bit: every
// design run shares a CharCache, so this is the only check that the cache
// keys and stores what it serves. The cold model fills the cache (misses),
// the warm one reads it back (hits); both must equal the uncached model.
// Both glitch pins and both levels go through one cache, so an entry keyed
// without its pin or level is served to the wrong model.
TEST(Report, CachedClusterMatchesDirect) {
    const auto sameGrid = [](const la::Grid2d& a, const la::Grid2d& b) {
        ASSERT_EQ(a.xs(), b.xs());
        ASSERT_EQ(a.ys(), b.ys());
        for (std::size_t ix = 0; ix < a.xs().size(); ++ix) {
            for (std::size_t iy = 0; iy < a.ys().size(); ++iy) {
                EXPECT_EQ(a.at(ix, iy), b.at(ix, iy)) << ix << "," << iy;
            }
        }
    };
    charlib::CharCache cache;
    for (const char* pin : {"a", "b"}) {
        for (const bool level : {false, true}) {
            ClusterSpec spec = paperCluster(0.7, 2);
            spec.victim.glitchInput = pin;
            spec.victim.outputLevel = level;
            for (AggressorSpec& agg : spec.aggressors) {
                agg.outputRising = !level;
            }
            ClusterMacromodel::Options direct;
            direct.loadCurveGrid = 9;
            ClusterMacromodel::Options cached = direct;
            cached.cache = &cache;
            const ClusterMacromodel want(spec, direct);
            const auto ref = want.analyzeAt({0.5e-9, 0.6e-9}, 0.45e-9);
            const double refLimit =
                core::nrcLimitFor(spec, ref.metrics, nullptr);
            for (const char* pass : {"cold", "warm"}) {
                SCOPED_TRACE(std::string(pass) + " pin=" + pin +
                             " level=" + std::to_string(level));
                const ClusterMacromodel got(spec, cached);
                const auto run = got.analyzeAt({0.5e-9, 0.6e-9}, 0.45e-9);
                EXPECT_EQ(run.metrics.peak, ref.metrics.peak);
                EXPECT_EQ(run.metrics.width, ref.metrics.width);
                const auto& table = got.propagationTable();
                const auto& refTable = want.propagationTable();
                sameGrid(table.peak, refTable.peak);
                sameGrid(table.area, refTable.area);
                EXPECT_EQ(table.outputBaseline, refTable.outputBaseline);
                EXPECT_EQ(core::nrcLimitFor(spec, run.metrics, &cache),
                          refLimit);
            }
        }
    }
    const auto stats = cache.stats();
    EXPECT_GT(stats.loadCurveHits, 0u);
    EXPECT_GT(stats.theveninHits, 0u);
    EXPECT_GT(stats.nrcHits, 0u);
    EXPECT_GT(stats.propagationHits, 0u);
}

// ----------------------------------------------------------------- design

TEST(DesignFlow, AnalyzesSpefClusters) {
    const cell::CellLibrary lib(tech::tech130());

    // Parasitics: a 3-wire star cluster exported to SPEF and re-read.
    ic::StarClusterSpec star;
    star.layer = &tech::tech130().layer("M4");
    star.lengthUm = 400.0;
    star.aggressors = 2;
    star.segments = 8;
    const auto rc = ic::buildStarCluster(star);
    const auto spef = parser::parseSpef(ic::toSpef(rc, "mini"));

    core::Design design(lib);
    auto connect = [&](const std::string& inst, const std::string& cellName,
                       const std::map<std::string, std::string>& pins) {
        core::Instance i;
        i.name = inst;
        i.cellName = cellName;
        i.pinToNet = pins;
        design.addInstance(std::move(i));
    };
    connect("u_vic", "NAND2_X1",
            {{"a", "in_a"}, {"b", "in_b"}, {"y", "victim"}});
    connect("u_rx", "INV_X2", {{"a", "victim"}, {"y", "out_v"}});
    connect("u_a0", "INV_X2", {{"a", "in0"}, {"y", "agg0"}});
    connect("u_a0rx", "INV_X1", {{"a", "agg0"}, {"y", "out0"}});
    connect("u_a1", "BUF_X2", {{"a", "in1"}, {"y", "agg1"}});
    connect("u_a1rx", "INV_X1", {{"a", "agg1"}, {"y", "out1"}});

    EXPECT_EQ(design.driverOf("victim")->name, "u_vic");
    EXPECT_EQ(design.loadsOf("victim").size(), 1u);
    EXPECT_EQ(design.driverOf("nope"), nullptr);

    core::DesignNoiseOptions opt;
    opt.report.searchAlignment = false;  // keep the test fast
    const auto reports = core::analyzeDesign(design, spef, opt);

    // The victim net has coupling and a driver/load: it must be analyzed.
    bool foundVictim = false;
    for (const auto& r : reports) {
        if (r.net == "victim") {
            foundVictim = true;
            EXPECT_EQ(r.aggressorNets.size(), 2u);
            EXPECT_GT(std::abs(r.cluster.worst.metrics.peak), 0.0);
            EXPECT_GT(r.cluster.nrcLimit, 0.0);
        }
    }
    EXPECT_TRUE(foundVictim);
}

TEST(DesignFlow, RejectsUnconnectedPins) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    core::Instance i;
    i.name = "u1";
    i.cellName = "NAND2_X1";
    i.pinToNet = {{"a", "n1"}};  // b and y missing
    EXPECT_THROW(design.addInstance(std::move(i)), ModelError);
}

// ------------------------------------------------------------- bit pins
//
// Exact fingerprints of fixed engine runs: the peak and its time as
// hex-floats, the sample count, and an FNV-1a hash over the bit patterns of
// every (t, v) sample. Any change to the Newton/transient arithmetic — stamp
// order, LU pivoting, step control — moves at least one of them. Re-pin only
// for a deliberate numerics change, and state the margin delta when doing so.

struct BitPin {
    std::string peak;
    std::string peakTime;
    std::size_t samples = 0;
    std::uint64_t hash = 0;
};

std::uint64_t fnv1a(std::uint64_t h, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

BitPin pinOf(const core::NoiseResult& r) {
    BitPin p;
    p.peak = str::formatDoubleHex(r.metrics.peak);
    p.peakTime = str::formatDoubleHex(r.metrics.peakTime);
    p.samples = r.waveform.samples().size();
    p.hash = 0xcbf29ce484222325ull;
    for (const auto& s : r.waveform.samples()) {
        p.hash = fnv1a(fnv1a(p.hash, s.t), s.v);
    }
    return p;
}

void expectPinned(const core::NoiseResult& r, const BitPin& want) {
    const BitPin got = pinOf(r);
    EXPECT_EQ(got.peak, want.peak);
    EXPECT_EQ(got.peakTime, want.peakTime);
    EXPECT_EQ(got.samples, want.samples);
    EXPECT_EQ(got.hash, want.hash) << std::hex << "0x" << got.hash;
}

TEST(BitPin, CoupledPiClusterAtFixedAlignments) {
    const ClusterMacromodel model(paperCluster(0.7, 2));
    expectPinned(model.analyzeAt({0.5e-9, 0.6e-9}, 0.45e-9),
                 {"0x1.25d67e29f6f2bp-1", "0x1.8493164e0fe0ep-31", 397,
                  0xfb43c9143e8f976bull});
    expectPinned(model.analyzeAt({0.8e-9, 0.35e-9}, 0.7e-9),
                 {"0x1.aac937f4edd99p-2", "0x1.f78b0c2a6012ap-31", 518,
                  0xfaf642e51636ac65ull});
}

TEST(BitPin, PrimaClusterAtFixedAlignments) {
    // Branch unknowns with zero diagonals: the pivoting dense path.
    ClusterMacromodel::Options opt;
    opt.usePrima = true;
    const ClusterMacromodel model(paperCluster(0.7, 2), opt);
    expectPinned(model.analyzeAt({0.5e-9, 0.6e-9}, 0.45e-9),
                 {"0x1.2939be88252fap-1", "0x1.843acce1bd915p-31", 512,
                  0xdb03d396d68c5a3dull});
}

TEST(BitPin, WindowExcludedAggressor) {
    const ClusterMacromodel model(paperCluster(0.7, 2));
    const double never = std::numeric_limits<double>::infinity();
    expectPinned(model.analyzeAt({never, 0.55e-9}, 0.45e-9),
                 {"0x1.3a737eee72d78p-2", "0x1.716d76b0da61ap-31", 388,
                  0x33d7bbb4983d4e05ull});
}

TEST(BitPin, LinearSuperpositionAtFixedAlignments) {
    const ClusterMacromodel one(paperCluster(0.7, 1));
    expectPinned(core::analyzeLinearSuperposition(one, {0.5e-9}),
                 {"0x1.5ff3dac9b59efp-2", "0x1.5684b8c06448p-31", 290,
                  0x7685f255e228e970ull});
    const ClusterMacromodel two(paperCluster(0.7, 2));
    expectPinned(core::analyzeLinearSuperposition(two, {0.5e-9, 0.6e-9}),
                 {"0x1.cbc038c90e504p-2", "0x1.864cda3a52748p-31", 373,
                  0xcd0c7c261bda9e99ull});
    ClusterMacromodel::Options opt;
    opt.usePrima = true;
    const ClusterMacromodel prima(paperCluster(0.7, 2), opt);
    expectPinned(core::analyzeLinearSuperposition(prima, {0.5e-9, 0.6e-9}),
                 {"0x1.cffeb0a04525fp-2", "0x1.855c9b641f95bp-31", 476,
                  0xd0f04070c4cad6d0ull});
}

TEST(BitPin, IterativeTheveninAtFixedAlignments) {
    const ClusterMacromodel one(paperCluster(0.7, 1));
    expectPinned(core::analyzeIterativeThevenin(one, {0.5e-9}, 0.45e-9),
                 {"0x1.621086d8c51a4p-2", "0x1.5ef0a94149daap-31", 931,
                  0xb48ef559133c79f5ull});
    const ClusterMacromodel two(paperCluster(0.7, 2));
    expectPinned(
        core::analyzeIterativeThevenin(two, {0.5e-9, 0.6e-9}, 0.45e-9),
        {"0x1.fc0ee811ec9ccp-2", "0x1.8cc7f26bbf514p-31", 973,
         0x282aa3ebf2c9ea7cull});
    ClusterMacromodel::Options opt;
    opt.usePrima = true;
    const ClusterMacromodel prima(paperCluster(0.7, 2), opt);
    expectPinned(
        core::analyzeIterativeThevenin(prima, {0.5e-9, 0.6e-9}, 0.45e-9),
        {"0x1.0066aede81ebfp-1", "0x1.8bbff1ab7eb72p-31", 1026,
         0x9b92d4c8a1061d9full});
}

TEST(BitPin, GoldenTransistorLevelCluster) {
    // MOSFET Norton stamps over the full distributed RC.
    expectPinned(core::simulateGolden(paperCluster(0.7, 1)),
                 {"0x1.38ae448ffcf3ep-1", "0x1.3d0a426c0d827p-31", 554,
                  0xe1f7d84778849065ull});
}

TEST(BitPin, GoldenWindowExcludedAggressor) {
    // The spec of Golden.WindowExcludedAggressorHeldQuiet: aggressor 0's
    // input held at its pre-transition rail.
    ClusterSpec spec = paperCluster(0.7, 2);
    spec.victim.glitchTime = 0.45e-9;
    spec.aggressors[0].switchTime = std::numeric_limits<double>::infinity();
    spec.aggressors[1].switchTime = 0.55e-9;
    expectPinned(core::simulateGolden(spec),
                 {"0x1.3661a0923d13ep-2", "0x1.72e33df941809p-31", 574,
                  0x3e52f326d4621209ull});
}

TEST(BitPin, GoldenMultiInputReceiversAndAggressor) {
    // NAND2 receivers tie their other input off; a NOR2 aggressor driver
    // holds its second input at the sensitizing level.
    ClusterSpec spec = paperCluster(0.7, 1);
    spec.victim.receiverCell = "NAND2_X1";
    spec.aggressors[0].driverCell = "NOR2_X1";
    spec.aggressors[0].receiverCell = "NAND2_X1";
    spec.aggressors[0].switchTime = 0.5e-9;
    ic::ParallelBusSpec bus;
    bus.layer = &spec.technology->layer("M4");
    bus.lengthUm = 400.0;
    bus.segments = 8;
    const ic::RcNetwork net = ic::buildParallelBus(bus);
    spec.customNet = &net;
    expectPinned(core::simulateGolden(spec),
                 {"0x1.2f03505fa5439p-2", "0x1.59c39b725ea8bp-31", 462,
                  0x43ba6d359dfc1705ull});
}

// Search pins: the alignment a full findWorstAlignment returns (every time
// and the peak as hex-floats, plus the worst waveform's FNV-1a hash) and
// the number of transients it simulated. The values were pinned before the
// exact-probe memo landed: skipping bit-identical repeats must not move
// any of them. `offered` is the probe count of that memo-less search,
// repeats included; `evaluations` is its number of distinct probes.

struct SearchPin {
    std::vector<std::string> aggTimes;
    std::string glitchTime;
    std::string peak;
    std::uint64_t hash = 0;
    int evaluations = 0;
    int offered = 0;
};

core::AlignmentResult pinnedSearch(
    const ClusterMacromodel& model,
    const core::AlignmentWindows* windows = nullptr) {
    core::ProbeMemo memo(model);
    auto r = core::findWorstAlignment(model, {}, &memo, windows);
    // One transient per distinct probe.
    EXPECT_EQ(r.evaluations, static_cast<int>(memo.size()));
    return r;
}

void expectSearchPinned(const core::AlignmentResult& r,
                        const SearchPin& want) {
    std::vector<std::string> times;
    for (const double t : r.aggressorSwitchTimes) {
        times.push_back(str::formatDoubleHex(t));
    }
    EXPECT_EQ(times, want.aggTimes);
    EXPECT_EQ(str::formatDoubleHex(r.glitchTime), want.glitchTime);
    EXPECT_EQ(str::formatDoubleHex(r.worst.metrics.peak), want.peak);
    const BitPin got = pinOf(r.worst);
    EXPECT_EQ(got.hash, want.hash) << std::hex << "0x" << got.hash;
    EXPECT_EQ(r.evaluations, want.evaluations);
    EXPECT_LT(r.evaluations, want.offered);
}

TEST(BitPin, SearchCoupledPiTwoAggressorsWithGlitch) {
    const ClusterMacromodel model(paperCluster(0.7, 2));
    expectSearchPinned(pinnedSearch(model),
                       {{"0x1.b7cdfd9d7bdbbp-32", "0x1.b7cdfd9d7bdbbp-32"},
                        "0x1.c817fd86df42ap-32",
                        "0x1.99ae3250f2023p-1",
                        0x179479571e457289ull,
                        44,
                        65});
}

TEST(BitPin, SearchWithBoundedEmptyAndGlitchWindows) {
    const ClusterMacromodel model(paperCluster(0.7, 2));
    core::AlignmentWindows w;
    w.aggressors = {{150e-12, 400e-12}, {900e-12, 500e-12}};
    w.glitch = {700e-12, 1.1e-9};
    const auto r = pinnedSearch(model, &w);
    EXPECT_TRUE(std::isinf(r.aggressorSwitchTimes[1]));
    expectSearchPinned(r, {{"0x1.97c8be779ed65p-32", "inf"},
                           "0x1.eec7bd512b571p-32",
                           "0x1.7e75b0e737ddp-2",
                           0xc93e7741a344e429ull,
                           16,
                           26});
}

TEST(BitPin, SearchPrimaOneAggressor) {
    ClusterMacromodel::Options opt;
    opt.usePrima = true;
    const ClusterMacromodel model(paperCluster(0.7, 1), opt);
    expectSearchPinned(pinnedSearch(model),
                       {{"0x1.b7cdfd9d7bdbbp-32"},
                        "0x1.b7cdfd9d7bdbbp-32",
                        "0x1.3ce9a347718d3p-1",
                        0x4618a02cde307baaull,
                        30,
                        44});
}

}  // namespace
