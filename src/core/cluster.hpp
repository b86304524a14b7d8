// Noise-cluster specification, the parts every run of the Fig. 1 cluster
// is built from, and the golden (ELDO-role) analysis.
//
// A cluster is a victim net with its driver (holding a logic level, with an
// optional noise glitch arriving at one input — the propagated noise), its
// receiver, and capacitively coupled aggressor nets whose drivers switch.
// Every run builds it from three parts, one builder per kind: drivers (the
// macromodel's or transistor cells; both source an aggressor input through
// switchingSource()), interconnect (coupled-Pi, the stored PRIMA or the
// full ic::RcNetwork, each returning every wire's far node) and receivers
// (input caps or transistor cells), and ends in simulateCluster(). The
// golden, simulateGolden(), is supply -> full RC -> per wire (transistor
// driver, transistor receiver): the reference every model is judged by.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "celllib/library.hpp"
#include "interconnect/parallel_bus.hpp"
#include "spice/circuit.hpp"
#include "waveform/metrics.hpp"

namespace sna::core {

struct VictimSpec {
    std::string driverCell = "NAND2_X1";
    std::string glitchInput = "a";   ///< input pin carrying propagated noise
    bool outputLevel = false;        ///< held output level (false = low)
    std::string receiverCell = "INV_X2";
    /// Propagated-noise stimulus at the driver input: triangle toward the
    /// opposite rail. Height 0 disables it.
    double glitchHeight = 0.0;       ///< V
    double glitchWidth = 200e-12;    ///< s
    double glitchTime = 400e-12;     ///< arrival of the glitch onset, s
};

struct AggressorSpec {
    std::string driverCell = "INV_X2";
    bool outputRising = true;        ///< aggressor transition direction
    double inputSlew = 30e-12;
    double switchTime = 400e-12;     ///< aggressor INPUT switch time, s
    std::string receiverCell = "INV_X2";
    double couplingScale = 1.0;      ///< derates this aggressor's coupling
};

struct ClusterSpec {
    const tech::Technology* technology = &tech::tech130();
    VictimSpec victim;
    std::vector<AggressorSpec> aggressors;

    // Interconnect geometry (used when customNet is not set).
    std::string layer = "M4";
    double lengthUm = 500.0;
    int segments = 16;

    /// Externally supplied coupled RC (wire 0 = victim, wires 1.. =
    /// aggressors in order); overrides the geometry fields. Not owned.
    const ic::RcNetwork* customNet = nullptr;

    double tstop = 2.5e-9;
};

/// The cluster's interconnect: customNet if set, else the star cluster from
/// the geometry fields (victim = wire 0).
ic::RcNetwork clusterNet(const ClusterSpec& spec);

struct NoiseResult {
    wave::GlitchMetrics metrics;  ///< at the victim driving point
    wave::Waveform waveform;      ///< victim driving-point voltage
    double runtimeSec = 0.0;      ///< wall-clock of the engine run
    /// Nodes of the engine circuit, ground and source-fixed nodes included
    /// (Circuit::nodeCount()): 10 for the paper's 2-aggressor macromodel,
    /// whose MNA system has 6 unknowns.
    std::size_t engineNodes = 0;
};

/// Full transistor-level + full-RC reference simulation.
NoiseResult simulateGolden(const ClusterSpec& spec);

/// The tail of every cluster run: the transient to `tstop`, the glitch at
/// node `probe` against `baseline`, the engine size, the time since `start`.
NoiseResult simulateCluster(const spice::Circuit& ckt, double tstop,
                            const std::string& probe, double baseline,
                            std::chrono::steady_clock::time_point start);

/// The quiet victim level implied by the spec (0 or vdd).
double victimBaseline(const ClusterSpec& spec);

/// The victim-driver input source implied by the spec: a triangle glitch
/// from `inputHoldLevel` (the glitch input's quiet level, 0 or vdd) toward
/// the opposite rail arriving at `glitchTime`, or that level held if
/// glitchHeight == 0.
spice::SourceSpec victimInputSource(const ClusterSpec& spec,
                                    double inputHoldLevel, double glitchTime);

/// The switch rule: +inf (a window-excluded aggressor, which still loads
/// the victim) holds the input at `from`, its pre-transition rail; any
/// other switch time ramps it to `to` over `slew`.
spice::SourceSpec switchingSource(double switchTime, double from, double to,
                                  double slew, double tstop);

/// The receiver input a wire's far end drives.
inline std::string receiverPin(const cell::Cell& rx) {
    return rx.inputNames().front();
}
/// The aggressor driver input that switches.
inline std::string aggressorInput(const cell::Cell& drv) {
    return drv.inputNames().front();
}

}  // namespace sna::core
