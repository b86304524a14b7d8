// Tests for cell characterization: load curves (the paper's Eq. (1)),
// holding resistance, Thevenin fits, propagation tables, NRCs, and input
// capacitance measurement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "celllib/library.hpp"
#include "charlib/char_cache.hpp"
#include "charlib/characterize.hpp"
#include "core/report.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "waveform/metrics.hpp"
#include "waveform/sources.hpp"

namespace {

using namespace sna;
using cell::CellLibrary;

const CellLibrary& lib130() {
    static const CellLibrary lib(tech::tech130());
    return lib;
}

charlib::LoadCurveSpec nandSpec(int n = 17) {
    charlib::LoadCurveSpec spec;
    spec.cell = &lib130().cell("NAND2_X1");
    spec.input = "a";
    spec.outputLevel = false;  // a=b=1, output held low
    spec.nVin = n;
    spec.nVout = n;
    return spec;
}

TEST(LoadCurve, ZeroCurrentAtTheHoldingPoint) {
    const auto table = charlib::characterizeLoadCurve(nandSpec());
    // At (vin = vdd, vout = 0) the cell is in its stable state: the current
    // vanishes up to bilinear interpolation error between grid points (the
    // restoring current is mA-scale two patches away).
    EXPECT_NEAR(table(1.2, 0.0), 0.0, 5e-6);
}

TEST(LoadCurve, RestoringCurrentGrowsWithOutputNoise) {
    const auto table = charlib::characterizeLoadCurve(nandSpec());
    // Output pushed above ground with full gate drive: the NMOS stack sinks
    // monotonically increasing current.
    double prev = -1e9;
    for (double v = 0.0; v <= 1.0; v += 0.1) {
        const double i = table(1.2, v);
        EXPECT_GE(i, prev - 1e-9) << "v=" << v;
        prev = i;
    }
    EXPECT_GT(table(1.2, 0.6), 1e-4);  // mA-scale restoring current
}

TEST(LoadCurve, InputGlitchWeakensRestoringCurrent) {
    // The cell non-linearity at the heart of the paper: a glitch on the
    // victim driver INPUT (vin dropping from vdd) reduces the output
    // restoring current — the interaction linear superposition misses.
    const auto table = charlib::characterizeLoadCurve(nandSpec());
    const double strong = table(1.2, 0.4);
    const double weak = table(0.7, 0.4);
    const double off = table(0.2, 0.4);
    EXPECT_GT(strong, weak);
    EXPECT_GT(weak, off);
    // With the input glitched below VT the pulldown is nearly off while the
    // pullup starts fighting: much smaller (possibly negative) current.
    EXPECT_LT(off, 0.25 * strong);
}

TEST(LoadCurve, PullupRestoresTowardVdd) {
    // With the input glitched low the NAND pullup turns on and restores the
    // output toward vdd: it SOURCES current while vout < vdd (negative
    // table entry) and SINKS it again once the output is dragged above vdd.
    const auto table = charlib::characterizeLoadCurve(nandSpec());
    EXPECT_LT(table(0.0, 0.6), 0.0);
    EXPECT_GT(table(0.0, 1.4), 0.0);
}

TEST(LoadCurve, GridMatchesDirectDcSolve) {
    // Interpolated table values reproduce fresh DC solves within bilinear
    // interpolation error.
    const auto table = charlib::characterizeLoadCurve(nandSpec(33));
    const auto fine = charlib::characterizeLoadCurve(nandSpec(9));
    for (const double vin : {0.15, 0.62, 1.05}) {
        for (const double vout : {0.08, 0.33, 0.91}) {
            EXPECT_NEAR(fine(vin, vout), table(vin, vout),
                        std::max(3e-5, 0.08 * std::abs(table(vin, vout))));
        }
    }
}

TEST(HoldingResistance, PositiveAndOrdered) {
    // NAND2 output-low holding resistance: the 2-stack of X1 is weaker
    // (higher R) than the X2 version.
    const auto t1 = charlib::characterizeLoadCurve(nandSpec());
    auto spec2 = nandSpec();
    spec2.cell = &lib130().cell("NAND2_X2");
    const auto t2 = charlib::characterizeLoadCurve(spec2);
    const double r1 = charlib::holdingResistance(t1, 1.2, 0.0);
    const double r2 = charlib::holdingResistance(t2, 1.2, 0.0);
    EXPECT_GT(r1, 10.0);
    EXPECT_LT(r1, 1e5);
    EXPECT_LT(r2, r1);
    EXPECT_NEAR(r2, 0.5 * r1, 0.2 * r1);
}

TEST(HoldingResistance, NonRestoringTableThrows) {
    // A synthetic load curve with dI/dVout <= 0 models a node that is not
    // actually held; the extraction must refuse it.
    const la::Grid2d bad({0.0, 1.0}, {0.0, 1.0}, {0.0, -1e-3, 0.0, -1e-3});
    EXPECT_THROW(charlib::holdingResistance(bad, 0.5, 0.5), ModelError);
}

TEST(Thevenin, FitReproducesCrossingTimes) {
    charlib::TheveninSpec spec;
    spec.cell = &lib130().cell("INV_X1");
    spec.input = "a";
    spec.outputRising = false;  // inverter output falls on rising input
    spec.loadCap = 30e-15;
    const auto model = charlib::characterizeThevenin(spec);
    EXPECT_GT(model.rth, 10.0);
    EXPECT_LT(model.rth, 1e4);
    EXPECT_GT(model.slew, 1e-12);
    EXPECT_LT(model.slew, 1e-9);
    EXPECT_DOUBLE_EQ(model.vStart, 1.2);
    EXPECT_DOUBLE_EQ(model.vEnd, 0.0);

    // Validate: the Thevenin circuit into the same load lands within 15% on
    // the 50% crossing of the golden transition (Dartu-Pileggi accuracy).
    spice::Circuit golden;
    {
        const auto vdd = golden.node("vdd");
        const auto in = golden.node("in");
        const auto out = golden.node("out");
        golden.addVSource("vs", vdd, spice::kGround, spice::SourceSpec::dc(1.2));
        golden.addVSource("vin", in, spice::kGround,
                          spice::SourceSpec::pwl(wave::saturatedRamp(
                              0, 1.2, 50e-12, 30e-12, 4e-9)));
        golden.addCapacitor("cl", out, spice::kGround, 30e-15);
        lib130().cell("INV_X1").instantiate(golden, "dut",
                                            {{"a", in}, {"y", out}}, vdd);
    }
    spice::TranOptions opt;
    opt.tstop = 4e-9;
    const auto goldenOut =
        spice::simulateTransient(golden, opt).waveform("out");

    spice::Circuit thev;
    {
        const auto src = thev.node("src");
        const auto out = thev.node("out");
        thev.addVSource("vth", src, spice::kGround,
                        spice::SourceSpec::pwl(wave::saturatedRamp(
                            model.vStart, model.vEnd, 50e-12 + model.delay,
                            model.slew, 4e-9)));
        thev.addResistor("rth", src, out, model.rth);
        thev.addCapacitor("cl", out, spice::kGround, 30e-15);
    }
    const auto thevOut = spice::simulateTransient(thev, opt).waveform("out");

    auto cross50 = [](const wave::Waveform& w, bool falling) {
        const auto& s = w.samples();
        for (std::size_t i = 1; i < s.size(); ++i) {
            const bool crossed = falling ? (s[i - 1].v > 0.6 && s[i].v <= 0.6)
                                         : (s[i - 1].v < 0.6 && s[i].v >= 0.6);
            if (!crossed) continue;
            const double f = (0.6 - s[i - 1].v) / (s[i].v - s[i - 1].v);
            return s[i - 1].t + f * (s[i].t - s[i - 1].t);
        }
        return -1.0;
    };
    const double tg = cross50(goldenOut, true);
    const double tt = cross50(thevOut, true);
    ASSERT_GT(tg, 0.0);
    ASSERT_GT(tt, 0.0);
    EXPECT_NEAR(tt, tg, 0.15 * tg);
}

TEST(Thevenin, StrongerDriverFitsSmallerR) {
    // Compare at matched electrical operating points (load scaled with the
    // drive): the waveforms are then similar and the fitted R must scale
    // inversely with strength. With a fixed small load a strong driver is
    // slew-limited and R is not identifiable — that is physics, not a bug.
    charlib::TheveninSpec s1;
    s1.cell = &lib130().cell("INV_X1");
    s1.input = "a";
    s1.outputRising = true;
    s1.loadCap = 30e-15;
    auto s4 = s1;
    s4.cell = &lib130().cell("INV_X4");
    s4.loadCap = 120e-15;
    const double r1 = charlib::characterizeThevenin(s1).rth;
    const double r4 = charlib::characterizeThevenin(s4).rth;
    EXPECT_LT(r4, r1);
    EXPECT_NEAR(r4, r1 / 4.0, 0.35 * r1 / 4.0);
}

TEST(Propagation, TableIsMonotoneInHeight) {
    charlib::PropagationSpec spec;
    spec.cell = &lib130().cell("NAND2_X1");
    spec.input = "a";
    spec.outputLevel = false;
    spec.heights = {0.2, 0.4, 0.6, 0.8, 1.0, 1.2};
    spec.widths = {100e-12, 200e-12, 400e-12};
    const auto table = charlib::characterizePropagation(spec);
    for (const double w : spec.widths) {
        double prev = -1.0;
        for (const double h : spec.heights) {
            const double p = std::abs(table.peak(h, w));
            EXPECT_GE(p, prev - 1e-4) << "h=" << h << " w=" << w;
            prev = p;
        }
    }
    // Output glitch on a low-held output is positive (toward vdd).
    EXPECT_GT(table.peak(1.2, 400e-12), 0.2);
    EXPECT_DOUBLE_EQ(table.outputBaseline, 0.0);
}

TEST(Propagation, SubthresholdGlitchBarelyPropagates) {
    charlib::PropagationSpec spec;
    spec.cell = &lib130().cell("INV_X1");
    spec.input = "a";
    spec.outputLevel = false;  // input high, output low
    spec.heights = {0.1, 0.25};
    spec.widths = {150e-12, 300e-12};
    const auto table = charlib::characterizePropagation(spec);
    EXPECT_LT(std::abs(table.peak(0.1, 300e-12)), 0.06);
}

TEST(Nrc, CurveIsMonotoneNonIncreasing) {
    charlib::NrcSpec spec;
    spec.cell = &lib130().cell("INV_X2");
    spec.input = "a";
    spec.quietLevel = false;  // quiet low input, upward glitch
    spec.widths = {50e-12, 100e-12, 200e-12, 400e-12, 800e-12};
    const auto nrc = charlib::characterizeNrc(spec);
    const auto& hs = nrc.ys();
    for (std::size_t i = 1; i < hs.size(); ++i) {
        EXPECT_LE(hs[i], hs[i - 1] + 1e-3) << "width idx " << i;
    }
    // Wide glitches fail near the switching threshold; narrow ones need
    // substantially more height.
    EXPECT_GT(hs.front(), hs.back() + 0.05);
    EXPECT_GT(hs.back(), 0.3);   // still above a third of the swing
    EXPECT_LT(hs.back(), 1.0);
}

// ---- bit pins ---------------------------------------------------------
// Characterization results pinned bit for bit (hex-float literals). Every
// search in the characterization stops as soon as its answer is decided;
// these pins hold those stops to results identical to running each search
// to its fixed iteration count.

struct TheveninPin {
    const char* cell;
    bool outputRising;
    double loadCap;
    double vStart, vEnd, slew, rth, delay;
};

void expectTheveninPin(const TheveninPin& pin) {
    charlib::TheveninSpec spec;
    spec.cell = &lib130().cell(pin.cell);
    spec.input = "a";
    spec.outputRising = pin.outputRising;
    spec.loadCap = pin.loadCap;
    const auto m = charlib::characterizeThevenin(spec);
    SCOPED_TRACE(std::string(pin.cell) +
                 (pin.outputRising ? " rising" : " falling"));
    EXPECT_EQ(m.vStart, pin.vStart);
    EXPECT_EQ(m.vEnd, pin.vEnd);
    EXPECT_EQ(m.slew, pin.slew);
    EXPECT_EQ(m.rth, pin.rth);
    EXPECT_EQ(m.delay, pin.delay);
}

TEST(TheveninBitPin, InverterFits) {
    const TheveninPin pins[] = {
        {"INV_X1", true, 30e-15, 0x0p+0, 0x1.3333333333333p+0,
         0x1.195812fc8db98p-36, 0x1.02a3d79d36cc1p+11, 0x1.e6ca6383fd9b2p-36},
        {"INV_X1", false, 30e-15, 0x1.3333333333333p+0, 0x0p+0,
         0x1.0477ccd62497fp-36, 0x1.bc7b26c9078bep+10, 0x1.d78d5a3a2b55ep-36},
        {"INV_X4", true, 120e-15, 0x0p+0, 0x1.3333333333333p+0,
         0x1.11737ff3b273bp-36, 0x1.02a3d79d36cc1p+9, 0x1.e692bc099b0aep-36},
    };
    for (const auto& pin : pins) expectTheveninPin(pin);
}

TEST(TheveninBitPin, SweepLengths) {
    // The tau sweep refines over up to four rounds and stops after the
    // first refinement round that does not move the best tau. NAND2_X1
    // falling stops after its second round; NOR2_X1 rising moves in every
    // refinement round but the last, so it runs all four.
    const TheveninPin pins[] = {
        {"NAND2_X1", false, 30e-15, 0x1.3333333333333p+0, 0x0p+0,
         0x1.a988c84b293bbp-36, 0x1.db68e6082612dp+10, 0x1.e651e8c84f01ep-36},
        {"NOR2_X1", true, 30e-15, 0x0p+0, 0x1.3333333333333p+0,
         0x1.e85c4a778a92ap-36, 0x1.14c92b853f4adp+11, 0x1.3cc99326be7afp-35},
    };
    for (const auto& pin : pins) expectTheveninPin(pin);
}

TEST(NrcBitPin, InverterFiveWidths) {
    charlib::NrcSpec spec;
    spec.cell = &lib130().cell("INV_X2");
    spec.input = "a";
    spec.quietLevel = false;
    spec.widths = {50e-12, 100e-12, 200e-12, 400e-12, 800e-12};
    const auto nrc = charlib::characterizeNrc(spec);
    const std::vector<double> heights = {
        0x1.30de147ae147ap+0, 0x1.f37c28f5c28f6p-1, 0x1.ac15c28f5c29p-1,
        0x1.7fc6666666666p-1, 0x1.6443d70a3d70ap-1};
    EXPECT_EQ(nrc.xs(), spec.widths);
    EXPECT_EQ(nrc.ys(), heights);
}

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(NrcBitPin, CachePointsMatchCharacterizeNrc) {
    // Every bundled cell's first input at both quiet levels on the canonical
    // grid: the cache's per-width points, composed into a curve, are the
    // entries of the whole-curve characterization bit for bit. A second
    // cache filled one point at a time in reverse order gives the same
    // curve and then characterizes nothing more.
    const std::vector<double> grid = core::NrcOptions{}.grid();
    ASSERT_EQ(grid.size(), 15u);
    std::size_t curves = 0;
    for (const auto& name : lib130().names()) {
        const auto& c = lib130().cell(name);
        for (const bool quiet : {false, true}) {
            SCOPED_TRACE(name + (quiet ? " quiet high" : " quiet low"));
            charlib::NrcSpec spec;
            spec.cell = &c;
            spec.input = c.inputNames().front();
            spec.quietLevel = quiet;
            spec.widths = grid;
            la::Grid1d direct;
            try {
                direct = charlib::characterizeNrc(spec);
            } catch (const Error&) {
                // Not sensitizable at this level: the cache must agree.
                charlib::CharCache cache;
                EXPECT_THROW(cache.nrc(spec), Error);
                continue;
            }
            charlib::CharCache cache;
            const auto curve = cache.nrc(spec);
            EXPECT_TRUE(sameBits(curve->xs(), direct.xs()));
            EXPECT_TRUE(sameBits(curve->ys(), direct.ys()));
            EXPECT_EQ(cache.stats().nrcRuns, grid.size());

            charlib::CharCache pointwise;
            for (std::size_t k = grid.size(); k-- > 0;) {
                const auto h = pointwise.nrcHeights(spec, {grid[k]});
                EXPECT_TRUE(sameBits(h, {direct.ys()[k]})) << "width " << k;
            }
            EXPECT_TRUE(sameBits(pointwise.nrc(spec)->ys(), direct.ys()));
            EXPECT_EQ(pointwise.stats().nrcRuns, grid.size());
            EXPECT_EQ(pointwise.stats().nrcHits, grid.size());
            ++curves;
        }
    }
    EXPECT_GT(curves, lib130().names().size());
}

// FNV-1a over the bit patterns of a double sequence.
std::uint64_t fnv1a(std::uint64_t h, double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
    }
    return h;
}

TEST(PropagationBitPin, InverterTableHash) {
    // Control: the propagation table runs no search that stops early, so
    // its hash must never move with the Thevenin or NRC stops.
    charlib::PropagationSpec spec;
    spec.cell = &lib130().cell("INV_X1");
    spec.input = "a";
    spec.outputLevel = false;
    spec.heights = {0.3, 0.6, 0.9, 1.2};
    spec.widths = {100e-12, 300e-12};
    const auto table = charlib::characterizePropagation(spec);
    std::uint64_t h = 1469598103934665603ull;
    for (const la::Grid2d* g : {&table.peak, &table.area}) {
        for (const double x : g->xs()) h = fnv1a(h, x);
        for (const double y : g->ys()) h = fnv1a(h, y);
        for (std::size_t i = 0; i < g->xs().size(); ++i) {
            for (std::size_t j = 0; j < g->ys().size(); ++j) {
                h = fnv1a(h, g->at(i, j));
            }
        }
    }
    h = fnv1a(h, table.outputBaseline);
    EXPECT_EQ(h, 0xfe3bab3d3ce4e87bull);
}

TEST(LoadCurveBitPin, NandBothOutputLevels) {
    // The macromodel's table at its default 33x33 grid, output held low
    // and high: one hash over both axes and every entry.
    std::uint64_t h = 1469598103934665603ull;
    for (const bool level : {false, true}) {
        auto spec = nandSpec(33);
        spec.outputLevel = level;
        const auto g = charlib::characterizeLoadCurve(spec);
        for (const double x : g.xs()) h = fnv1a(h, x);
        for (const double y : g.ys()) h = fnv1a(h, y);
        for (std::size_t i = 0; i < g.xs().size(); ++i) {
            for (std::size_t j = 0; j < g.ys().size(); ++j) {
                h = fnv1a(h, g.at(i, j));
            }
        }
    }
    EXPECT_EQ(h, 0xeb7208efc6eddbd3ull) << std::hex << "0x" << h;
}

TEST(TheveninBitPin, CellGridHash) {
    // Every bundled cell, input and output direction over a slew x load
    // grid: one hash over all fitted models, so a change anywhere in the
    // fit (crossing search, tau sweep, DC resistance) moves it.
    std::uint64_t h = 1469598103934665603ull;
    std::size_t fits = 0;
    for (const auto& name : lib130().names()) {
        const auto& c = lib130().cell(name);
        for (const auto& input : c.inputNames()) {
            for (const bool rising : {true, false}) {
                for (const double slew : {20e-12, 80e-12, 200e-12}) {
                    for (const double load : {2e-15, 10e-15, 50e-15}) {
                        charlib::TheveninSpec spec;
                        spec.cell = &c;
                        spec.input = input;
                        spec.outputRising = rising;
                        spec.inputSlew = slew;
                        spec.loadCap = load;
                        const auto m = charlib::characterizeThevenin(spec);
                        for (const double v :
                             {m.vStart, m.vEnd, m.slew, m.rth, m.delay}) {
                            h = fnv1a(h, v);
                        }
                        ++fits;
                    }
                }
            }
        }
    }
    EXPECT_EQ(fits, 432u);
    EXPECT_EQ(h, 0xe61d3cf6538cd1a6ull);
}

// ---- early-exit equivalence ---------------------------------------------

// The ramp/RC crossing search as it was before it stopped at its fixed
// point: always 100 bisection steps, the tail coefficient recomputed per
// evaluation. The reference detail::rampRcCrossing must match bit for bit.
double rampRcCrossingFullBisection(double frac, double tau, double rc) {
    auto value = [&](double t) {
        if (t <= tau) {
            return (t - rc * (1.0 - std::exp(-t / rc))) / tau;
        }
        return 1.0 -
               (rc / tau) * (1.0 - std::exp(-tau / rc)) *
                   std::exp(-(t - tau) / rc);
    };
    double lo = 0.0;
    double hi = tau + rc;
    while (value(hi) < frac) hi *= 2.0;
    for (int it = 0; it < 100; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (value(mid) < frac) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

TEST(RampRcCrossing, EarlyExitMatchesFullBisectionBitwise) {
    util::Rng rng(0xc0ffee15ULL);
    const double logLo = std::log(1e-13);
    const double logHi = std::log(1e-9);
    std::size_t mismatches = 0;
    for (int draw = 0; draw < 100000; ++draw) {
        const double tau = std::exp(rng.uniform(logLo, logHi));
        const double rc = std::exp(rng.uniform(logLo, logHi));
        for (const double frac : {0.2, 0.8}) {
            const double fast = charlib::detail::rampRcCrossing(frac, tau, rc);
            const double full = rampRcCrossingFullBisection(frac, tau, rc);
            if (std::memcmp(&fast, &full, sizeof fast) != 0 &&
                ++mismatches <= 5) {
                ADD_FAILURE() << std::hexfloat << "frac=" << frac
                              << " tau=" << tau << " rc=" << rc
                              << ": " << fast << " vs " << full;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

// Bisection steps one crossing search spends when run to completion.
long long crossingSteps(double frac, double tau, double rc) {
    charlib::detail::RampRcBisection b(frac, tau, rc);
    while (!b.done()) b.step();
    return b.steps();
}

// The Thevenin tau sweep as it was before pruning: every grid point's two
// crossings bisected to the end and scored. detail::fitRampTau must return
// the same tau and error bit for bit.
charlib::detail::RampTauFit fitRampTauFullSweep(double m20, double m80,
                                                double rc) {
    charlib::detail::RampTauFit fit;
    auto error = [&](double tau) {
        const double c20 = charlib::detail::rampRcCrossing(0.2, tau, rc);
        const double c80 = charlib::detail::rampRcCrossing(0.8, tau, rc);
        fit.steps += crossingSteps(0.2, tau, rc) + crossingSteps(0.8, tau, rc);
        const double e20 = (c20 - m20) / m80;
        const double e80 = (c80 - m80) / m80;
        return e20 * e20 + e80 * e80;
    };
    double bestTau = std::max(m80 - rc, 0.05 * m80);
    double bestErr = error(bestTau);
    for (int it = 0; it < 4; ++it) {
        const double span = (it == 0) ? 20.0 : 1.5;
        const int n = 40;
        const double roundTau = bestTau;
        const double tau0 = bestTau / span;
        for (int a = 0; a <= n; ++a) {
            const double tau =
                tau0 * std::pow(span * span, a / static_cast<double>(n));
            const double e = error(tau);
            if (e < bestErr) {
                bestErr = e;
                bestTau = tau;
            }
        }
        if (it >= 1 && bestTau == roundTau) break;
    }
    fit.tau = bestTau;
    fit.err = bestErr;
    return fit;
}

TEST(Thevenin, PrunedTauSweepMatchesFullSweepBitwise) {
    // Seeded draws with m20/m80 in (0, 1) and rc/m80 log-uniform over
    // [1e-3, 1e3], plus the edges: m20 -> 0, m20 -> m80, rc << m80 and
    // rc >> m80.
    util::Rng rng(0x7a05eed2ULL);
    struct Case {
        double m20, m80, rc;
    };
    std::vector<Case> cases;
    for (int draw = 0; draw < 2000; ++draw) {
        const double m80 = std::exp(rng.uniform(std::log(1e-12),
                                                std::log(1e-9)));
        const double ratio = rng.uniform(1e-6, 1.0 - 1e-6);
        const double rc =
            m80 * std::exp(rng.uniform(std::log(1e-3), std::log(1e3)));
        cases.push_back({ratio * m80, m80, rc});
    }
    for (const double m80 : {3e-12, 80e-12, 700e-12}) {
        for (const double ratio : {1e-12, 1e-6, 0.999999, 1.0 - 1e-15}) {
            for (const double rcRatio : {1e-9, 1e-3, 1.0, 1e3, 1e9}) {
                cases.push_back({ratio * m80, m80, rcRatio * m80});
            }
        }
    }
    std::size_t mismatches = 0;
    long long prunedSteps = 0;
    long long fullSteps = 0;
    for (const auto& c : cases) {
        const auto pruned = charlib::detail::fitRampTau(c.m20, c.m80, c.rc);
        const auto full = fitRampTauFullSweep(c.m20, c.m80, c.rc);
        prunedSteps += pruned.steps;
        fullSteps += full.steps;
        if ((std::memcmp(&pruned.tau, &full.tau, sizeof full.tau) != 0 ||
             std::memcmp(&pruned.err, &full.err, sizeof full.err) != 0) &&
            ++mismatches <= 5) {
            ADD_FAILURE() << std::hexfloat << "m20=" << c.m20
                          << " m80=" << c.m80 << " rc=" << c.rc << ": tau "
                          << pruned.tau << " vs " << full.tau << ", err "
                          << pruned.err << " vs " << full.err;
        }
    }
    EXPECT_EQ(mismatches, 0u);
    // The pruning must actually prune: under 40% of the full sweep's steps.
    EXPECT_LT(prunedSteps * 10, fullSteps * 4)
        << prunedSteps << " of " << fullSteps << " steps";
}

// ---- concurrency --------------------------------------------------------

TEST(CharCache, ConcurrentColdFitsMatchSerial) {
    // Four workers cold-characterize distinct Thevenin and NRC specs
    // through one cache. Each fit's early-stop state lives in its own call,
    // so every result must equal the serial one bit for bit.
    const char* cells[] = {"INV_X1", "INV_X4", "NAND2_X1", "NOR2_X1"};
    std::vector<charlib::TheveninSpec> thevSpecs;
    std::vector<charlib::NrcSpec> nrcSpecs;
    for (std::size_t i = 0; i < std::size(cells); ++i) {
        charlib::TheveninSpec t;
        t.cell = &lib130().cell(cells[i]);
        t.input = "a";
        t.outputRising = (i % 2 == 0);
        t.loadCap = 30e-15;
        thevSpecs.push_back(t);
        charlib::NrcSpec n;
        n.cell = &lib130().cell(cells[i]);
        n.input = "a";
        n.quietLevel = (i % 2 == 1);
        n.widths = {50e-12, 200e-12, 800e-12};
        nrcSpecs.push_back(n);
    }

    charlib::CharCache cache;
    std::vector<std::shared_ptr<const charlib::TheveninModel>> thev(
        std::size(cells));
    std::vector<std::shared_ptr<const la::Grid1d>> nrc(std::size(cells));
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < std::size(cells); ++i) {
        workers.emplace_back([&, i] {
            thev[i] = cache.thevenin(thevSpecs[i]);
            nrc[i] = cache.nrc(nrcSpecs[i]);
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(cache.stats().theveninRuns, std::size(cells));
    EXPECT_EQ(cache.stats().theveninRthRuns, std::size(cells));
    // NRC runs count points: three widths per cell.
    EXPECT_EQ(cache.stats().nrcRuns, 3 * std::size(cells));

    for (std::size_t i = 0; i < std::size(cells); ++i) {
        SCOPED_TRACE(cells[i]);
        const auto t = charlib::characterizeThevenin(thevSpecs[i]);
        EXPECT_EQ(thev[i]->vStart, t.vStart);
        EXPECT_EQ(thev[i]->vEnd, t.vEnd);
        EXPECT_EQ(thev[i]->slew, t.slew);
        EXPECT_EQ(thev[i]->rth, t.rth);
        EXPECT_EQ(thev[i]->delay, t.delay);
        const auto n = charlib::characterizeNrc(nrcSpecs[i]);
        EXPECT_EQ(nrc[i]->xs(), n.xs());
        EXPECT_EQ(nrc[i]->ys(), n.ys());
    }
}

TEST(CharCache, RthSolvedOncePerArc) {
    // R_TH depends on (cell, input, direction) only: one DC solve serves
    // every load and slew of an arc, and each fit equals the direct one.
    charlib::CharCache cache;
    std::size_t fits = 0;
    for (const char* name : {"INV_X1", "NAND2_X1"}) {
        for (const bool rising : {true, false}) {
            for (const double load : {5e-15, 30e-15}) {
                for (const double slew : {20e-12, 80e-12}) {
                    charlib::TheveninSpec spec;
                    spec.cell = &lib130().cell(name);
                    spec.input = "a";
                    spec.outputRising = rising;
                    spec.loadCap = load;
                    spec.inputSlew = slew;
                    const auto cached = cache.thevenin(spec);
                    const auto direct = charlib::characterizeThevenin(spec);
                    SCOPED_TRACE(std::string(name) +
                                 (rising ? " rise" : " fall"));
                    EXPECT_EQ(std::memcmp(cached.get(), &direct, sizeof direct),
                              0);
                    EXPECT_EQ(cached->rth,
                              charlib::theveninResistance(*spec.cell, "a",
                                                          rising));
                    ++fits;
                }
            }
        }
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.theveninRuns, fits);
    EXPECT_EQ(stats.theveninRthRuns, 4u);  // 2 cells x 2 directions
    // R_TH is not part of the persisted tables or of totalRuns().
    EXPECT_EQ(stats.totalRuns(), fits);
}

TEST(CharCache, LoadCurveSweptOncePerHeldSideInputs) {
    // The sweep overrides the swept input, so the held level reaches the
    // table only through the side inputs. An INV has none, and a NAND2
    // holds its other input high at both levels: each (cell, pin) sweeps
    // once, and the level that hits equals its own direct sweep bit for bit.
    charlib::CharCache cache;
    for (const char* name : {"INV_X1", "NAND2_X1"}) {
        for (const bool level : {false, true}) {
            charlib::LoadCurveSpec spec;
            spec.cell = &lib130().cell(name);
            spec.input = "a";
            spec.outputLevel = level;
            spec.nVin = 5;
            spec.nVout = 5;
            const auto cached = cache.loadCurve(spec);
            const auto direct = charlib::characterizeLoadCurve(spec);
            SCOPED_TRACE(std::string(name) + (level ? " high" : " low"));
            ASSERT_EQ(cached->xs(), direct.xs());
            ASSERT_EQ(cached->ys(), direct.ys());
            for (std::size_t ix = 0; ix < direct.xs().size(); ++ix) {
                for (std::size_t iy = 0; iy < direct.ys().size(); ++iy) {
                    EXPECT_EQ(cached->at(ix, iy), direct.at(ix, iy));
                }
            }
        }
    }
    EXPECT_EQ(cache.stats().loadCurveRuns, 2u);
    EXPECT_EQ(cache.stats().loadCurveHits, 2u);
}

TEST(CharCache, CallerOwnedTechnologyMutatedInPlaceMisses) {
    // The cell keeps pointing at the caller's technology, so an in-place
    // corner change must reach the key: the next lookup recharacterizes.
    tech::Technology t = tech::tech130();
    const CellLibrary lib(t);
    charlib::LoadCurveSpec spec;
    spec.cell = &lib.cell("INV_X1");
    spec.input = "a";
    spec.outputLevel = false;
    spec.nVin = 5;
    spec.nVout = 5;
    charlib::CharCache cache;
    const auto nominal = cache.loadCurve(spec);
    EXPECT_EQ(cache.loadCurve(spec), nominal);
    t.nmos.vt0 += 0.02;
    const auto slow = cache.loadCurve(spec);
    EXPECT_NE(slow, nominal);
    EXPECT_EQ(cache.stats().loadCurveRuns, 2u);
    EXPECT_EQ(cache.stats().loadCurveHits, 1u);
    const auto direct = charlib::characterizeLoadCurve(spec);
    for (std::size_t ix = 0; ix < direct.xs().size(); ++ix) {
        for (std::size_t iy = 0; iy < direct.ys().size(); ++iy) {
            EXPECT_EQ(slow->at(ix, iy), direct.at(ix, iy));
        }
    }
}

TEST(InputCap, ChargeMethodAgreesWithAnalytic) {
    for (const char* name : {"INV_X1", "NAND2_X1", "NOR2_X1"}) {
        const auto& c = lib130().cell(name);
        const double analytic = c.inputCapacitance("a");
        const double measured = charlib::measureInputCapacitance(c, "a");
        EXPECT_GT(measured, 0.2 * analytic) << name;
        // The Miller effect can push the effective cap above the static sum;
        // agreement within ~2.5x is the expected physics, not slop.
        EXPECT_LT(measured, 2.5 * analytic) << name;
    }
}

}  // namespace
