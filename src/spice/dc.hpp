// DC operating-point analysis.
//
// Robust Newton with the classic fallback ladder: plain Newton from the
// given (or zero) initial guess, then gmin stepping (1e-3 S down to the
// final 1e-12 S by decades), then source stepping (20 equal steps to full
// scale).
// The paper's pre-characterization step (load curves I_DC = f(V_in, V_out),
// Eq. (1)) is a dense sweep of these solves, so warm starting across sweep
// points is part of the interface.
#pragma once

#include <string>

#include "spice/mna.hpp"

namespace sna::spice {

/// An operating point: node voltages plus KCL-derived source currents.
class DcSolution {
public:
    DcSolution(const Circuit& circuit, MnaMap map, la::Vector x);

    double voltage(NodeId node) const;
    double voltage(const std::string& node) const;

    /// Current delivered by a ground-referenced voltage source INTO its
    /// pinned terminal, computed from KCL over the attached devices. This is
    /// exactly the quantity the load-curve characterization measures.
    double sourceCurrent(const std::string& vsourceName) const;

    const la::Vector& raw() const { return x_; }

private:
    const Circuit* circuit_;
    MnaMap map_;
    la::Vector x_;
};

/// Solve the operating point; `warmStart` (if given) must have the
/// dimension of the circuit's MNA unknown vector.
DcSolution solveDc(const Circuit& circuit,
                   const la::Vector* warmStart = nullptr);

/// The fallback ladder on an existing map/state, solving in `ws` (built for
/// `map`); used by solveDc and by the transient initial condition. Throws
/// ConvergenceError if everything fails.
void robustDcSolve(MnaMap& map, NewtonWorkspace& ws, la::Vector& x);

}  // namespace sna::spice
