// Adaptive transient analysis.
//
// Trapezoidal integration with backward-Euler restarts at waveform
// breakpoints (source slope discontinuities), local-truncation-error step
// control via a linear predictor, and the robust DC ladder for the initial
// condition. This engine plays the role of ELDO™ in the paper's experiments:
// the golden transistor-level reference every macromodel is judged against.
//
// Stop hook. TranOptions::stopWhen, when set, is called once per recorded
// sample — the t = 0 operating point included — in time order and on the
// calling thread, with that sample's time and node voltages. Returning true
// ends the run right after that sample: the TranResult then holds exactly
// the samples up to and including it (stats().accepted counts the steps
// taken to reach it), and the hook is not called again. Every sample it
// does see is bitwise the sample the full run records, so a caller whose
// answer is fixed by a prefix of the waveform stops there and gets the same
// answer. An empty hook costs one branch per sample and changes nothing.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "spice/dc.hpp"
#include "waveform/waveform.hpp"

namespace sna::spice {

/// One recorded time point as the stop hook sees it.
struct TranSample {
    double t = 0.0;
    const double* volts = nullptr;  ///< one voltage per non-ground node

    double voltage(NodeId node) const {
        return node == kGround ? 0.0 : volts[node - 1];
    }
};

struct TranOptions {
    double tstop = 0.0;      ///< required, seconds
    double dtInit = 0.0;     ///< 0 -> tstop / 5000 (also the post-breakpoint dt)
    double dtMin = 1e-18;
    double dtMax = 0.0;      ///< 0 -> tstop / 50
    double reltol = 2e-3;    ///< LTE relative tolerance
    double abstol = 2e-5;    ///< LTE absolute floor, volts
    std::size_t maxSteps = 2'000'000;
    /// Optional: return true to end the run after this sample (see the
    /// header comment for the contract).
    std::function<bool(const TranSample&)> stopWhen;
};

struct TranStats {
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    long newtonIterations = 0;
    /// Jacobian factorizations of those iterations; fewer than
    /// newtonIterations when the Newton loop reused a factorization (see
    /// spice/mna.hpp).
    long factorizations = 0;
};

/// Every node voltage at every accepted time point. The time points are
/// stored once and the voltages in one contiguous buffer (one row of
/// nodeCount - 1 values per time point, ground excluded); waveform(node)
/// builds that node's Waveform on demand, so a caller that reads one node
/// pays for one.
class TranResult {
public:
    bool has(const std::string& node) const;
    /// The node's voltage as a piecewise-linear waveform, built by value.
    wave::Waveform waveform(const std::string& node) const;
    const TranStats& stats() const { return stats_; }

private:
    friend TranResult simulateTransient(const Circuit&, const TranOptions&);
    std::vector<std::string> nodes_;  ///< non-ground node names, id order
    std::vector<double> times_;
    std::vector<double> volts_;       ///< times_.size() x nodes_.size()
    TranStats stats_;
};

/// Run a transient from a DC initial condition to options.tstop (or until
/// options.stopWhen asks to stop), recording every node voltage at every
/// accepted time point.
TranResult simulateTransient(const Circuit& circuit,
                             const TranOptions& options);

}  // namespace sna::spice
