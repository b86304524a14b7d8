// The paper's contribution: the non-linear victim-driver noise-cluster
// macromodel (Figure 1) and its dedicated analysis engine.
//
// Construction runs the pre-characterization step once per cluster:
//  * the victim driver becomes a TableVccs, the load curve
//    I_DC = f(V_in, V_out) of Eq. (1), characterized by DC sweeps;
//  * each aggressor driver becomes a Thevenin equivalent (saturated ramp
//    V_TH behind R_TH, Dartu-Pileggi style);
//  * the coupled interconnect is reduced at the driving points by moment
//    matching (coupled-Pi by default, PRIMA optionally);
//  * receivers become their input capacitances.
// These are the model's parts of the Fig. 1 cluster (core/cluster.hpp).
// buildCluster() is model drivers -> reduced net -> caps; the baselines
// hang their linear victim on it, and the MOR ablation composes the same
// drivers and caps around the full RC. analyzeAt() adds the victim driver
// and solves the resulting small non-linear circuit with the shared
// Newton/transient core
// — the "dedicated engine embedded into the noise analysis tool". Because
// the macromodel has a handful of unknowns (6 for two aggressors; 10 nodes
// with ground and the fixed source nodes) instead of hundreds, this is
// where the paper's ~20x speed-up comes from.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "charlib/char_cache.hpp"
#include "charlib/characterize.hpp"
#include "core/cluster.hpp"
#include "mor/coupled_pi.hpp"
#include "mor/prima.hpp"
#include "spice/circuit.hpp"

namespace sna::core {

struct MacromodelOptions {
    bool usePrima = false;  ///< PRIMA multiport instead of coupled-Pi
    int primaBlocks = 3;
    int loadCurveGrid = 33; ///< points per axis of the I_DC table
    /// Shared characterization cache. When set, load curves and Thevenin
    /// equivalents are looked up (and characterized at most once per key)
    /// instead of re-swept per cluster; nullptr characterizes directly.
    /// Cached results are bitwise identical to the direct path.
    charlib::CharCache* cache = nullptr;
};

class ClusterMacromodel {
public:
    using Options = MacromodelOptions;

    explicit ClusterMacromodel(const ClusterSpec& spec, Options opt = {});

    const ClusterSpec& spec() const { return spec_; }
    const Options& options() const { return opt_; }

    /// Run at the spec's own alignments.
    NoiseResult analyze() const;

    /// Run with explicit aggressor input-switch times and victim glitch
    /// arrival (the worst-case search knobs). A switch time of +inf holds
    /// that aggressor quiet at its pre-transition rail (window-excluded
    /// aggressors still load the victim, they just never switch).
    NoiseResult analyzeAt(const std::vector<double>& aggressorSwitchTimes,
                          double glitchTime) const;

    // ---- introspection (Fig. 1 bench, baselines) ----
    const la::Grid2d& loadCurve() const { return *loadCurve_; }
    double inputHoldLevel() const { return vinHold_; }
    double outputHoldLevel() const { return voutHold_; }
    /// Victim linearization at the quiet point (baseline B1's model).
    double victimHoldingResistance() const;
    const std::vector<charlib::TheveninModel>& aggressorModels() const {
        return aggressors_;
    }
    const ic::RcNetwork& interconnect() const { return net_; }
    const mor::CoupledPiModel& reducedPi() const;
    /// Receiver input caps per wire (victim first).
    const std::vector<double>& receiverCaps() const { return rxCaps_; }

    /// Noise-propagation table of the victim driver (baseline B1); lazily
    /// characterized on first use.
    const charlib::PropagationTable& propagationTable() const;

    // ---- the model's parts of the Fig. 1 cluster ----
    /// The victim driver: the node `vin`, the node `out`, the source `v_in`
    /// (victimInputSource at `glitchTime`) and the load-curve VCCS
    /// `idc_victim` into `out`, controlled by `vin`. Returns the `out` node.
    spice::NodeId buildVictimDriver(spice::Circuit& ckt,
                                    const std::string& out,
                                    double glitchTime) const;
    /// The other model drivers: the victim driver cap at `dp`, then per
    /// aggressor the Thevenin source (switchingSource) behind R_TH and the
    /// driver cap at `agg<a>_dp`. Returns each wire's driving point.
    std::vector<spice::NodeId> buildDrivers(
        spice::Circuit& ckt, spice::NodeId dp,
        const std::vector<double>& aggressorSwitchTimes) const;
    /// The receiver input caps at each wire's far node.
    void buildReceivers(spice::Circuit& ckt,
                        const std::vector<spice::NodeId>& farNodes) const;
    /// Model drivers -> reduced interconnect (coupled-Pi, or the stored
    /// PRIMA multiport) -> receiver caps, hung off the victim driving point.
    void buildCluster(spice::Circuit& ckt, spice::NodeId dp,
                      const std::vector<double>& aggressorSwitchTimes) const;

    /// Human-readable dump of the assembled macromodel (the Figure 1
    /// artefact): every element with its characterized values.
    std::string describe() const;

private:
    /// The reduced interconnect at the driving points; returns the far
    /// node of each wire.
    std::vector<spice::NodeId> buildReducedNet(
        spice::Circuit& ckt, const std::vector<spice::NodeId>& drvNodes) const;

    ClusterSpec spec_;
    Options opt_;
    ic::RcNetwork net_;
    /// Shared with the cache on a hit (immutable); owned otherwise.
    std::shared_ptr<const la::Grid2d> loadCurve_;
    double vinHold_ = 0.0;
    double voutHold_ = 0.0;
    std::vector<charlib::TheveninModel> aggressors_;
    std::optional<mor::CoupledPiModel> pi_;
    std::optional<mor::PrimaModel> prima_;
    std::vector<double> rxCaps_;
    std::vector<double> drvCaps_;
    /// Shared with the cache on a hit (immutable); owned otherwise.
    mutable std::shared_ptr<const charlib::PropagationTable> propagation_;
};

}  // namespace sna::core
