#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "charlib/characterize.hpp"
#include "spice/dc.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "waveform/sources.hpp"

namespace sna::charlib {

namespace detail {

// Analytic response of the (ramp + R)ic load C, normalized swing 1, ramp
// duration tau, time constant rc, ramp starting at 0:
//   t <= tau : v(t) = (t - rc (1 - e^{-t/rc})) / tau
//   t  > tau : v(t) = 1 - (rc/tau) (1 - e^{-tau/rc}) e^{-(t-tau)/rc}
// Monotone increasing, so bisection is exact.
RampRcBisection::RampRcBisection(double frac, double tau, double rc)
    : frac_(frac),
      tau_(tau),
      rc_(rc),
      tail_((rc / tau) * (1.0 - std::exp(-tau / rc))),
      hi_(tau + rc) {
    SNA_REQUIRE(frac > 0.0 && frac < 1.0, "crossing fraction out of range");
    while (value(hi_) < frac_) hi_ *= 2.0;
}

double RampRcBisection::value(double t) const {
    if (t <= tau_) {
        return (t - rc_ * (1.0 - std::exp(-t / rc_))) / tau_;
    }
    return 1.0 - tail_ * std::exp(-(t - tau_) / rc_);
}

// Each step's midpoint depends only on (lo, hi), so the first step that
// leaves both unchanged would repeat itself for every remaining step: the
// search is done there, or after kMaxSteps.
void RampRcBisection::step() {
    if (done_) return;
    ++steps_;
    const double mid = 0.5 * (lo_ + hi_);
    if (value(mid) < frac_) {
        if (mid == lo_) {
            done_ = true;
            return;
        }
        lo_ = mid;
    } else {
        if (mid == hi_) {
            done_ = true;
            return;
        }
        hi_ = mid;
    }
    if (steps_ == kMaxSteps) done_ = true;
}

double rampRcCrossing(double frac, double tau, double rc) {
    RampRcBisection b(frac, tau, rc);
    while (!b.done()) b.step();
    return b.result();
}

namespace {

// The fit's score of a candidate's model crossings (c20, c80) against the
// measured ones, relative to m80. Both the score and the pruning bound in
// fitRampTau go through this one function.
double fitError(double c20, double c80, double m20, double m80) {
    const double e20 = (c20 - m20) / m80;
    const double e80 = (c80 - m80) / m80;
    return e20 * e20 + e80 * e80;
}

// Bisection steps per crossing between two pruning checks.
constexpr int kStepsPerCheck = 3;

}  // namespace

// Tau sweep with exact pruning. A grid point's two crossings bisect in
// lockstep, kStepsPerCheck steps at a time; after each batch the point is
// dropped once its error provably cannot beat the incumbent bestErr:
//  * a bisection's final 0.5*(lo+hi) lies inside every earlier bracket
//    [lo_k, hi_k];
//  * every operation in fitError is an IEEE operation monotone in its
//    operands (subtract, divide by m80 > 0, square -- monotone in |x| --,
//    add), so over the bracket box fitError is smallest at the point
//    nearest (m20, m80): lower = fitError(clamp(m20, lo20, hi20),
//    clamp(m80, lo80, hi80));
//  * the bound goes through the same fitError that scores the point, so any
//    contraction the compiler applies hits both alike;
//  * lower >= bestErr implies e >= bestErr, so `e < bestErr` is false and
//    the full sweep would not have adopted the point either.
// A NaN bound never prunes, and the first point, error(bestTau), is always
// computed in full. Points that survive finish both bisections and are
// scored exactly as a full sweep scores them, so the result is bitwise the
// full sweep's.
RampTauFit fitRampTau(double m20, double m80, double rc) {
    RampTauFit fit;
    // The point's error, or +inf once it is provably >= `bound`.
    auto error = [&](double tau, double bound) {
        RampRcBisection b20(0.2, tau, rc);
        RampRcBisection b80(0.8, tau, rc);
        double e = std::numeric_limits<double>::infinity();
        for (;;) {
            for (int k = 0; k < kStepsPerCheck; ++k) {
                b20.step();
                b80.step();
            }
            if (b20.done() && b80.done()) {
                e = fitError(b20.result(), b80.result(), m20, m80);
                break;
            }
            const double lower =
                fitError(std::clamp(m20, b20.lo(), b20.hi()),
                         std::clamp(m80, b80.lo(), b80.hi()), m20, m80);
            if (lower >= bound) break;
        }
        fit.steps += b20.steps() + b80.steps();
        return e;
    };
    double bestTau = std::max(m80 - rc, 0.05 * m80);
    // A NaN bound: the first point is scored in full.
    double bestErr = error(bestTau, std::numeric_limits<double>::quiet_NaN());
    // Rounds 1-3 share one span, so a round that leaves bestTau (and with
    // it bestErr) where it started hands the next round the identical grid:
    // nothing after it can move, and the sweep stops.
    for (int it = 0; it < 4; ++it) {
        const double span = (it == 0) ? 20.0 : 1.5;
        const int n = 40;
        const double roundTau = bestTau;
        const double tau0 = bestTau / span;
        for (int a = 0; a <= n; ++a) {
            const double tau =
                tau0 * std::pow(span * span, a / static_cast<double>(n));
            const double e = error(tau, bestErr);
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

}  // namespace detail

namespace {

// Output level at `frac` of the (vStart -> vEnd) swing.
double crossingTarget(double vStart, double vEnd, double frac) {
    return vStart + frac * (vEnd - vStart);
}

// Does the segment a -> b cross `target` in the transition's direction?
bool crosses(double a, double b, double target, bool rising) {
    return rising ? (a < target && b >= target) : (a > target && b <= target);
}

// The output levels the fit reads, as fractions of the swing: the launch
// (2%) and the two fitted crossings (20%, 80%).
constexpr double kLaunchFraction = 0.02;
constexpr double kLowFraction = 0.2;
constexpr double kHighFraction = 0.8;
constexpr double kFitFractions[] = {kLaunchFraction, kLowFraction,
                                    kHighFraction};

// Output crossing time at `frac` of the swing, linearly interpolated on the
// PWL waveform (sample-scanning alone is biased late on coarse steps).
double measuredCrossing(const wave::Waveform& w, double vStart, double vEnd,
                        double frac, double tAfter) {
    const double target = crossingTarget(vStart, vEnd, frac);
    const bool rising = vEnd > vStart;
    const auto& samples = w.samples();
    for (std::size_t i = 1; i < samples.size(); ++i) {
        if (samples[i].t < tAfter) continue;
        const auto& a = samples[i - 1];
        const auto& b = samples[i];
        if (!crosses(a.v, b.v, target, rising)) continue;
        const double f = (target - a.v) / (b.v - a.v);
        return a.t + f * (b.t - a.t);
    }
    throw ModelError("driver output never crossed the target level during "
                     "Thevenin characterization");
}

}  // namespace

// DC effective driving resistance toward the post-transition rail: clamp
// the output at mid-swing with the inputs at their final values and read
// R = (half swing) / |I|. This is the classic identifiable definition; a
// crossing-time-only fit degenerates for slew-limited (strong) drivers.
double theveninResistance(const cell::Cell& cellRef, const std::string& input,
                          bool outputRising) {
    const double vdd = cellRef.technology().vdd;
    spice::Circuit ckt;
    detail::buildCellBench(ckt, cellRef,
                           cellRef.holdingVector(outputRising, input),
                           detail::BenchOutput::Clamp, 0.5 * vdd);
    const auto dc = spice::solveDc(ckt);
    const double current = dc.sourceCurrent("v_out");
    // Rising output: the cell sources current into the clamp (negative
    // sunk current); falling: it sinks. Either way use the magnitude.
    const double magnitude = std::abs(current);
    if (magnitude < 1e-9) {
        throw ModelError("driver delivers no current at mid-swing; cannot "
                         "extract an effective resistance");
    }
    return (0.5 * vdd) / magnitude;
}

TheveninModel characterizeThevenin(const TheveninSpec& spec) {
    return characterizeThevenin(spec, [&] {
        return theveninResistance(*spec.cell, spec.input, spec.outputRising);
    });
}

TheveninModel characterizeThevenin(const TheveninSpec& spec,
                                   const std::function<double()>& rthOf) {
    SNA_REQUIRE(spec.cell != nullptr, "thevenin spec needs a cell");
    SNA_REQUIRE(spec.loadCap > 0.0, "thevenin load must be positive");
    const cell::Cell& cellRef = *spec.cell;
    const double vdd = cellRef.technology().vdd;

    // Bench: start from the vector holding the output at the pre-transition
    // level, then ramp the chosen input to its flipped value.
    const bool outStart = !spec.outputRising;
    const auto holding = cellRef.holdingVector(outStart, spec.input);

    const double tStart = 50e-12;
    const double tStop = 4e-9;
    const double v0 = holding.at(spec.input) ? vdd : 0.0;
    spice::Circuit ckt;
    const auto outNode = detail::buildCellBench(
        ckt, cellRef, holding, detail::BenchOutput::Load, spec.loadCap,
        spec.input,
        wave::saturatedRamp(v0, vdd - v0, tStart, spec.inputSlew, tStop));

    const double vStart = spec.outputRising ? 0.0 : vdd;
    const double vEnd = vdd - vStart;

    // The fit reads only the first crossing of each kFitFractions level
    // after tStart (measuredCrossing's rule), so the run stops at the sample
    // that completes the last of them. If one never happens the run goes to
    // tStop and measuredCrossing throws.
    spice::TranOptions opt;
    opt.tstop = tStop;
    const bool rising = vEnd > vStart;
    bool seen[std::size(kFitFractions)] = {};
    std::size_t pending = std::size(kFitFractions);
    bool havePrev = false;
    double vPrev = 0.0;
    opt.stopWhen = [&](const spice::TranSample& s) {
        const double v = s.voltage(outNode);
        if (havePrev && s.t >= tStart) {
            for (std::size_t k = 0; k < std::size(kFitFractions); ++k) {
                if (!seen[k] &&
                    crosses(vPrev, v,
                            crossingTarget(vStart, vEnd, kFitFractions[k]),
                            rising)) {
                    seen[k] = true;
                    --pending;
                }
            }
        }
        havePrev = true;
        vPrev = v;
        return pending == 0;
    };
    const auto res = spice::simulateTransient(ckt, opt);
    const auto& out = res.waveform("out");

    const double t20 =
        measuredCrossing(out, vStart, vEnd, kLowFraction, tStart);
    const double t80 =
        measuredCrossing(out, vStart, vEnd, kHighFraction, tStart);
    SNA_REQUIRE(t80 > t20, "inverted crossing order in Thevenin fit");

    // R_TH from the DC effective resistance (always identifiable), then fit
    // the ramp duration tau so the model's 20%/80% crossings match the
    // golden transition. The model ramp starts where the golden output
    // leaves 2% of the swing (driver insertion delay).
    const double rth = rthOf();
    const double rc = rth * spec.loadCap;

    const double tLaunch =
        measuredCrossing(out, vStart, vEnd, kLaunchFraction, tStart);
    const double m20 = t20 - tLaunch;
    const double m80 = t80 - tLaunch;
    const auto fit = detail::fitRampTau(m20, m80, rc);
    log::debug() << "thevenin fit " << cellRef.name() << ": slew=" << fit.tau
                 << " rth=" << rth << " err=" << fit.err;

    TheveninModel model;
    model.vStart = vStart;
    model.vEnd = vEnd;
    model.slew = fit.tau;
    model.rth = rth;
    model.delay = tLaunch - tStart;
    return model;
}

}  // namespace sna::charlib
