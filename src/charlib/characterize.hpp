// Cell characterization: the paper's pre-characterization step.
//
// Produces every model the noise flow consumes:
//  * load-curve tables I_DC = f(V_in, V_out) — Eq. (1) of the paper, the
//    heart of the victim-driver macromodel (DC sweeps over the noise swing);
//  * holding resistance — the victim linearization used by the classical
//    superposition baseline;
//  * Thevenin equivalents (saturated ramp V_TH + resistance R_TH) for
//    aggressor drivers, fitted Dartu–Pileggi style from output crossing
//    times;
//  * noise-propagation tables (input glitch height x width -> output glitch
//    peak/area) for the table-based propagated-noise baseline;
//  * noise rejection curves (NRC) for receiver failure checks;
//  * measured input capacitance (charge method) for receiver loading.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "celllib/cell.hpp"
#include "la/interp.hpp"
#include "waveform/waveform.hpp"

namespace sna::charlib {

// ------------------------------------------------------------------ bench

namespace detail {
/// How a characterization bench terminates the cell output.
enum class BenchOutput {
    Clamp,  ///< grounded DC source `v_out` (DC sweeps read its current)
    Load,   ///< grounded capacitor `cload` (transients read the node)
};

/// The bench every cell characterization runs on: the `vdd` node and its
/// `vsupply` source; per input, in inputNames() order, a node named after
/// the pin and a grounded `v_<pin>` source at its level in `vector` (the
/// pin `input` follows `drive` instead when one is given); the node `out`
/// terminated as `output` says, `value` being the clamp voltage or the
/// load capacitance; then the cell as `dut`. Returns `out`.
spice::NodeId buildCellBench(spice::Circuit& ckt, const cell::Cell& cell,
                             const std::map<std::string, bool>& vector,
                             BenchOutput output, double value,
                             const std::string& input = {},
                             std::optional<wave::Waveform> drive = {});
}  // namespace detail

// ------------------------------------------------------------- load curve

struct LoadCurveSpec {
    const cell::Cell* cell = nullptr;
    std::string input;          ///< sensitive input pin (glitch arrival pin)
    bool outputLevel = false;   ///< held output level (false = low)
    int nVin = 33;
    int nVout = 33;
    /// Sweep range; NaN -> [-0.2 vdd, 1.2 vdd] (the "typical voltage swing
    /// of the given technology" plus overshoot margin).
    double vMin = kAuto;
    double vMax = kAuto;
    static constexpr double kAuto = -1e9;
};

/// DC-sweep the cell and tabulate the current it SINKS at its output pin,
/// as a function of (v_input, v_output). Axis 1 = v_in, axis 2 = v_out.
la::Grid2d characterizeLoadCurve(const LoadCurveSpec& spec);

/// Small-signal holding resistance at the quiet point: 1 / (dI/dVout).
double holdingResistance(const la::Grid2d& loadCurve, double vinHold,
                         double voutHold);

// --------------------------------------------------------------- thevenin

/// Saturated-ramp Thevenin equivalent of a switching driver.
struct TheveninModel {
    double vStart = 0.0;  ///< output rail before the transition
    double vEnd = 0.0;    ///< output rail after
    double slew = 0.0;    ///< ramp duration, s
    double rth = 0.0;     ///< driving resistance, ohm
    double delay = 0.0;   ///< driver insertion delay: input start -> ramp
                          ///< launch, s
};

struct TheveninSpec {
    const cell::Cell* cell = nullptr;
    std::string input;           ///< switching input pin
    bool outputRising = true;    ///< direction of the OUTPUT transition
    double loadCap = 20e-15;     ///< characterization load, F
    double inputSlew = 30e-12;   ///< input ramp, s
};

/// Fit (slew, rth) so the model's 20%/80% output crossing times match the
/// transistor-level simulation into the same load (Dartu–Pileggi).
TheveninModel characterizeThevenin(const TheveninSpec& spec);

/// The same fit with R_TH supplied by `rth`, which is called where the fit
/// needs it: after the transient, so a cell that never switches still
/// reports the transient's error first. A memo of theveninResistance() for
/// the spec's arc gives the bitwise result of the one-argument form.
TheveninModel characterizeThevenin(const TheveninSpec& spec,
                                   const std::function<double()>& rth);

/// The fit's R_TH: the DC effective resistance toward the post-transition
/// rail, with the output clamped at mid-swing. It depends on the arc
/// (cell, switching input, output direction) only, not on the load or the
/// input slew.
double theveninResistance(const cell::Cell& cell, const std::string& input,
                          bool outputRising);

namespace detail {
/// Resumable bisection for the time at which a unit saturated ramp of
/// duration `tau` driving an RC load of time constant `rc` (both starting
/// at t = 0) reaches `frac` of the swing, on the analytic response. The
/// constructor computes the tail coefficient and doubles `hi` until the
/// crossing is bracketed; each step() halves the bracket [lo(), hi()]. The
/// search is done() at its fixed point (a midpoint equal to an end) or
/// after kMaxSteps, and result() is 0.5*(lo + hi), which lies inside every
/// bracket the search passed through.
class RampRcBisection {
public:
    static constexpr int kMaxSteps = 100;

    RampRcBisection(double frac, double tau, double rc);

    void step();  ///< one bisection step; no-op once done()
    bool done() const { return done_; }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    int steps() const { return steps_; }  ///< response evaluations so far
    double result() const { return 0.5 * (lo_ + hi_); }

private:
    double value(double t) const;

    double frac_, tau_, rc_, tail_;
    double lo_ = 0.0;
    double hi_;
    int steps_ = 0;
    bool done_ = false;
};

/// RampRcBisection run to completion. Exposed for its equivalence test.
double rampRcCrossing(double frac, double tau, double rc);

struct RampTauFit {
    double tau = 0.0;      ///< best ramp duration, s
    double err = 0.0;      ///< its squared relative crossing error
    long long steps = 0;   ///< bisection steps spent, both crossings
};

/// The Thevenin fit's ramp-duration sweep: the tau whose ramp into `rc`
/// crosses 20%/80% closest to the measured m20/m80 (times after launch),
/// over a log grid refined in up to four rounds. A grid point stops
/// bisecting once its error provably cannot beat the incumbent, so the
/// result is bitwise that of scoring every point in full.
RampTauFit fitRampTau(double m20, double m80, double rc);
}  // namespace detail

// ------------------------------------------------------------ propagation

/// Pre-characterized noise-propagation tables: the classical way to get the
/// noise transferred through the victim driver ("usually obtained from
/// pre-characterized tables as a function of the input noise glitch area
/// (or width) and height" — paper, Sec. 1).
struct PropagationTable {
    la::Grid2d peak;   ///< (height, width) -> output glitch peak, V (signed)
    la::Grid2d area;   ///< (height, width) -> output glitch area, V*s (signed)
    double outputBaseline = 0.0;  ///< quiet output level, V
};

struct PropagationSpec {
    const cell::Cell* cell = nullptr;
    std::string input;
    bool outputLevel = false;  ///< held output level
    double loadCap = 30e-15;   ///< total victim net + receiver load, F
    std::vector<double> heights;  ///< glitch heights, V (toward other rail)
    std::vector<double> widths;   ///< glitch widths, s
};

PropagationTable characterizePropagation(const PropagationSpec& spec);

/// The canonical propagation grid the design flow characterizes on (shared
/// by the macromodel's lazy table and the wavefront's cached tables, so one
/// cache entry serves both when the load matches).
std::vector<double> canonicalPropagationHeights(double vdd);
std::vector<double> canonicalPropagationWidths();

// -------------------------------------------------------------------- nrc

struct NrcSpec {
    const cell::Cell* cell = nullptr;  ///< receiver cell
    std::string input;
    bool quietLevel = false;   ///< quiet input level (glitch goes other way)
    double loadCap = 10e-15;   ///< receiver output load, F
    std::vector<double> widths;  ///< glitch widths to probe, s
    double failFraction = 0.5;   ///< output crossing fraction that fails
};

/// Noise Rejection Curve: for each width, the minimal glitch height that
/// propagates a failure through the receiver (bisected). Heights above the
/// curve are failures. Monotonically non-increasing in width.
la::Grid1d characterizeNrc(const NrcSpec& spec);

/// One point of the NRC: the failing height at `width` (spec.widths is
/// ignored). Each width bisects on its own, so this is bitwise the entry
/// characterizeNrc reports for `width` in any grid that contains it.
double nrcFailHeight(const NrcSpec& spec, double width);

// -------------------------------------------------------------- input cap

/// Charge-method measurement: slow ramp into the pin through a resistor,
/// C = integral(i dt) / vdd. Cross-validates Cell::inputCapacitance.
double measureInputCapacitance(const cell::Cell& c, const std::string& pin);

}  // namespace sna::charlib
