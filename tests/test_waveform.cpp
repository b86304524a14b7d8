// Unit and property tests for waveforms, glitch metrics, and sources.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "waveform/metrics.hpp"
#include "waveform/sources.hpp"
#include "waveform/waveform.hpp"

namespace {

using namespace sna;
using wave::Waveform;

// -------------------------------------------------------------- waveform

TEST(Waveform, EvaluatesWithClamping) {
    const Waveform w({{0, 0}, {1, 2}, {3, 0}});
    EXPECT_DOUBLE_EQ(w.value(-1), 0.0);
    EXPECT_DOUBLE_EQ(w.value(0.5), 1.0);
    EXPECT_DOUBLE_EQ(w.value(2.0), 1.0);
    EXPECT_DOUBLE_EQ(w.value(10), 0.0);
}

TEST(Waveform, RejectsNonMonotonicTimes) {
    EXPECT_THROW(Waveform({{0, 0}, {0, 1}}), LogicError);
    EXPECT_THROW(Waveform({{1, 0}, {0, 1}}), LogicError);
    EXPECT_THROW(Waveform({{0, 0}, {1, 1}, {1, 2}}), LogicError);
}

TEST(Waveform, ShiftedBreakpointsShiftTheValues) {
    const Waveform w({{0, 1}, {1, 3}});
    const Waveform later({{2, 1}, {3, 3}});
    for (const double t : {-1.0, 0.0, 0.25, 0.5, 1.0, 4.0}) {
        EXPECT_DOUBLE_EQ(later.value(t + 2.0), w.value(t));
    }
}

TEST(Waveform, CopiesShareOneSampleBuffer) {
    const Waveform w({{0, 1}, {1, 3}, {2, 0}});
    const Waveform copy = w;
    EXPECT_EQ(copy.samples().data(), w.samples().data());
    Waveform assigned;
    assigned = copy;
    EXPECT_EQ(assigned.samples().data(), w.samples().data());

    // A move hands the buffer over and leaves the source empty.
    Waveform moved = std::move(assigned);
    EXPECT_EQ(moved.samples().data(), w.samples().data());
    EXPECT_TRUE(assigned.empty());
    EXPECT_EQ(assigned.size(), 0u);

    EXPECT_TRUE(Waveform().empty());
    EXPECT_TRUE(Waveform(std::vector<wave::Sample>{}).empty());
    EXPECT_THROW(Waveform().value(0.0), LogicError);
}

TEST(Waveform, PlusIsExactOnUnionBreakpoints) {
    const Waveform a({{0, 0}, {2, 2}});
    const Waveform b({{1, 10}, {3, 10}});
    const Waveform s = a.plus(b);
    EXPECT_DOUBLE_EQ(s.value(0.0), 10.0);  // b clamps to 10 before t=1
    EXPECT_DOUBLE_EQ(s.value(1.0), 11.0);
    EXPECT_DOUBLE_EQ(s.value(2.0), 12.0);
    EXPECT_DOUBLE_EQ(s.value(3.0), 12.0);
}

class WaveformAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(WaveformAlgebra, PlusMinusRoundTrip) {
    util::Rng rng(42 + GetParam());
    auto randomWave = [&rng]() {
        std::vector<wave::Sample> s;
        double t = 0.0;
        for (int i = 0; i < 12; ++i) {
            s.push_back({t, rng.uniform(-2, 2)});
            t += rng.uniform(0.05, 1.0);
        }
        return Waveform(std::move(s));
    };
    const Waveform a = randomWave();
    const Waveform b = randomWave();
    const Waveform round = a.plus(b).minus(b);
    // Round-trip must reproduce `a` (linearity). Both clamp outside their
    // spans, so they agree past a's ends too.
    EXPECT_LE(wave::maxDifference(round, a), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaveformAlgebra, ::testing::Range(0, 8));

// --------------------------------------------------------------- metrics

TEST(Metrics, TriangleGlitchAnalytic) {
    // Triangle of height 0.4 V, width 200 ps on a 0 V baseline.
    const Waveform g = wave::triangleGlitch(0.0, 0.4, 1e-10, 2e-10, 1e-9);
    const auto m = wave::measureGlitch(g, 0.0);
    EXPECT_NEAR(m.peak, 0.4, 1e-12);
    EXPECT_NEAR(m.peakTime, 2e-10, 1e-15);
    // Area = 1/2 * base * height.
    EXPECT_NEAR(m.area, 0.5 * 2e-10 * 0.4, 1e-15);
    // Width at 50% of a triangle = half the base.
    EXPECT_NEAR(m.width, 1e-10, 1e-15);
}

TEST(Metrics, NegativeGlitchIsSigned) {
    const Waveform g = wave::triangleGlitch(1.2, -0.5, 1e-10, 2e-10, 1e-9);
    const auto m = wave::measureGlitch(g, 1.2);
    EXPECT_NEAR(m.peak, -0.5, 1e-12);
    EXPECT_LT(m.area, 0.0);
    EXPECT_NEAR(m.width, 1e-10, 1e-15);
}

TEST(Metrics, OppositeLobeDoesNotCancelArea) {
    // Up-lobe then equal down-lobe: the up-glitch area must ignore the dip.
    const Waveform w({{0, 0}, {1, 1}, {2, 0}, {3, -1}, {4, 0}});
    const auto m = wave::measureGlitch(w, 0.0);
    EXPECT_NEAR(std::abs(m.peak), 1.0, 1e-12);
    EXPECT_NEAR(std::abs(m.area), 1.0, 1e-12);  // one triangle only
}

TEST(Metrics, QuietWaveformHasZeroMetrics) {
    const auto m = wave::measureGlitch(Waveform::constant(0.7, 0, 1), 0.7);
    EXPECT_DOUBLE_EQ(m.peak, 0.0);
    EXPECT_DOUBLE_EQ(m.area, 0.0);
    EXPECT_DOUBLE_EQ(m.width, 0.0);
}

TEST(Metrics, IntegrateTrapezoid) {
    const Waveform w({{0, 0}, {1, 1}, {2, 1}, {3, 0}});
    EXPECT_NEAR(wave::integrate(w), 2.0, 1e-12);
}

TEST(Metrics, TimeAboveThreshold) {
    const Waveform w({{0, 0}, {1, 1}, {2, 0}});
    EXPECT_NEAR(wave::timeAbove(w, 0.0, 1.0, 0.5), 1.0, 1e-12);
    EXPECT_NEAR(wave::timeAbove(w, 0.0, 1.0, 0.0), 2.0, 1e-12);
    EXPECT_NEAR(wave::timeAbove(w, 0.0, -1.0, 0.25), 0.0, 1e-12);
}

class GlitchScaling : public ::testing::TestWithParam<double> {};

TEST_P(GlitchScaling, MetricsScaleLinearly) {
    const double k = GetParam();
    // A trapezoid: 0.2 edges around a 0.3 plateau.
    const Waveform g(
        {{0.0, 0.0}, {0.1, 0.0}, {0.3, 0.3}, {0.6, 0.3}, {0.8, 0.0}, {2.0, 0.0}});
    const Waveform gk({{0.0, 0.0},
                       {0.1, 0.0},
                       {0.3, 0.3 * k},
                       {0.6, 0.3 * k},
                       {0.8, 0.0},
                       {2.0, 0.0}});
    const auto m1 = wave::measureGlitch(g, 0.0);
    const auto mk = wave::measureGlitch(gk, 0.0);
    EXPECT_NEAR(mk.peak, k * m1.peak, 1e-12);
    EXPECT_NEAR(mk.area, k * m1.area, 1e-12);
    EXPECT_NEAR(mk.width, m1.width, 1e-12);  // width is scale-invariant
}

INSTANTIATE_TEST_SUITE_P(Factors, GlitchScaling,
                         ::testing::Values(0.5, 1.0, 2.0, 3.5));

TEST(Metrics, ShiftInvariance) {
    // The same triangle glitch, the second 5 time units later.
    const Waveform g({{0.0, 0.0}, {0.2, 0.0}, {0.35, 0.4}, {0.5, 0.0}, {2.0, 0.0}});
    const Waveform later(
        {{5.0, 0.0}, {5.2, 0.0}, {5.35, 0.4}, {5.5, 0.0}, {7.0, 0.0}});
    const auto m1 = wave::measureGlitch(g, 0.0);
    const auto m2 = wave::measureGlitch(later, 0.0);
    EXPECT_NEAR(m1.peak, m2.peak, 1e-12);
    EXPECT_NEAR(m1.area, m2.area, 1e-12);
    EXPECT_NEAR(m1.width, m2.width, 1e-12);
    EXPECT_NEAR(m2.peakTime - m1.peakTime, 5.0, 1e-12);
}

// --------------------------------------------------------------- sources

TEST(Sources, SaturatedRampShape) {
    const Waveform r = wave::saturatedRamp(0.0, 1.2, 1e-10, 5e-11, 1e-9);
    EXPECT_DOUBLE_EQ(r.value(0.0), 0.0);
    EXPECT_DOUBLE_EQ(r.value(1e-10), 0.0);
    EXPECT_NEAR(r.value(1.25e-10), 0.6, 1e-12);
    EXPECT_DOUBLE_EQ(r.value(2e-10), 1.2);
    EXPECT_DOUBLE_EQ(r.value(1e-9), 1.2);
}

TEST(Sources, RejectBadParameters) {
    EXPECT_THROW(wave::saturatedRamp(0, 1, 0, -1, 1), LogicError);
    EXPECT_THROW(wave::triangleGlitch(0, 1, 0.5, 1.0, 1.0), LogicError);
}

// -------------------------------------------------------------- distance

TEST(Distance, MaxAndRms) {
    const Waveform a = Waveform::constant(1.0, 0, 1);
    const Waveform b = Waveform::constant(1.5, 0, 1);
    EXPECT_NEAR(wave::maxDifference(a, b), 0.5, 1e-12);
    EXPECT_NEAR(wave::rmsDifference(a, b), 0.5, 1e-12);
    EXPECT_DOUBLE_EQ(wave::maxDifference(a, a), 0.0);
}

}  // namespace
