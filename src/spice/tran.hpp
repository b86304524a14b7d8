// Adaptive transient analysis.
//
// Trapezoidal integration with backward-Euler restarts at waveform
// breakpoints (source slope discontinuities), local-truncation-error step
// control via a linear predictor, and the robust DC ladder for the initial
// condition. This engine plays the role of ELDO™ in the paper's experiments:
// the golden transistor-level reference every macromodel is judged against.
#pragma once

#include <string>
#include <vector>

#include "spice/dc.hpp"
#include "waveform/waveform.hpp"

namespace sna::spice {

struct TranOptions {
    double tstop = 0.0;      ///< required, seconds
    double dtInit = 0.0;     ///< 0 -> tstop / 5000 (also the post-breakpoint dt)
    double dtMin = 1e-18;
    double dtMax = 0.0;      ///< 0 -> tstop / 50
    double reltol = 2e-3;    ///< LTE relative tolerance
    double abstol = 2e-5;    ///< LTE absolute floor, volts
    std::size_t maxSteps = 2'000'000;
    NewtonOptions newton;
    DcOptions dc;
};

struct TranStats {
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    long newtonIterations = 0;
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

/// Run a transient from a DC initial condition to options.tstop, recording
/// every node voltage at every accepted time point.
TranResult simulateTransient(const Circuit& circuit,
                             const TranOptions& options);

}  // namespace sna::spice
