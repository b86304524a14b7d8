// MNA assembly with fixed-node elimination, and the damped Newton solve.
//
// MnaMap classifies every circuit node as ground, source-fixed (driven by a
// ground-referenced ideal voltage source — the overwhelmingly common case in
// noise clusters: supplies, inputs, Thevenin sources), or unknown. Fixed
// nodes are eliminated from the system: their time-dependent values are
// refreshed per evaluation and stamps touching them fold into the RHS. The
// remaining unknowns get a gmin to ground so the Jacobian stays regular in
// cutoff. Floating voltage sources / VCVS add branch-current unknowns, which
// forces the dense solver (their rows have zero diagonals). Per-device state
// and branch offsets are vectors indexed by Device::index().
//
// solveNewton runs on a caller-owned NewtonWorkspace. On the dense path
// (every macromodel and cell circuit) devices stamp straight into its
// Jacobian, which is then re-factored into its DenseLu and solved into its
// step vector: a Newton iteration allocates nothing.
#pragma once

#include <limits>
#include <vector>

#include "la/sparse.hpp"
#include "spice/circuit.hpp"
#include "spice/stamp.hpp"
#include "util/error.hpp"

namespace sna::spice {

class MnaMap {
public:
    explicit MnaMap(const Circuit& circuit);

    const Circuit& circuit() const { return *circuit_; }

    /// Unknown count (node unknowns + branch currents).
    std::size_t unknowns() const { return unknowns_; }
    std::size_t nodeUnknowns() const { return nodeUnknowns_; }
    bool hasBranches() const { return unknowns_ > nodeUnknowns_; }

    /// Index of a node in the solution vector, or -1 (ground/fixed).
    int indexOf(NodeId n) const { return index_[n]; }
    bool isFixed(NodeId n) const { return fixed_[n]; }

    /// Voltage of node n given solution x and current fixed values.
    double voltage(NodeId n, const la::Vector& x) const;
    /// Voltage of node n at the previous accepted time point.
    double voltagePrev(NodeId n, const la::Vector& xPrev) const;
    /// Known voltage of a ground/fixed node at the current evaluation.
    double knownVoltage(NodeId n) const;

    /// Refresh fixed-node values for time t and source scale; called by the
    /// analyses before every evaluation at t.
    void updateFixed(double time, double srcScale);
    /// Snapshot current fixed values as "previous" (on step acceptance).
    void commitFixed();

    /// Total per-device transient state slots and per-device offsets. The
    /// offset lookups throw LogicError for a device of another circuit or
    /// one without state slots / branch rows.
    std::size_t stateSlots() const { return stateSlots_; }
    std::size_t stateBaseOf(const Device& d) const;
    int branchBaseOf(const Device& d) const;

    double gmin() const { return gmin_; }
    void setGmin(double g) { gmin_ = g; }

    /// Stamp every device at the given context; adds gmin diagonals. `j`
    /// and `rhs` are zeroed first and must already have the system's size.
    void assemble(la::DenseMatrix& j, la::Vector& rhs,
                  const EvalContext& ctx) const;
    void assemble(la::SparseMatrix& j, la::Vector& rhs,
                  const EvalContext& ctx) const;

private:
    static constexpr std::size_t kNone =
        std::numeric_limits<std::size_t>::max();

    /// d's index after checking that d belongs to the mapped circuit.
    std::size_t slotOf(const Device& d) const;
    void stampAll(Stamper& st, const EvalContext& ctx) const;

    const Circuit* circuit_;
    std::vector<int> index_;        // NodeId -> unknown index or -1
    std::vector<char> fixed_;       // NodeId -> source-fixed?
    std::vector<double> fixedValue_;
    std::vector<double> fixedPrev_;
    std::vector<const VSource*> fixedSource_;  // NodeId -> driving source
    std::vector<double> fixedSign_;            // +1 pos grounded-neg, -1 swapped
    std::vector<std::size_t> stateBase_;  // Device::index() -> offset or kNone
    std::vector<int> branchBase_;         // Device::index() -> row or -1
    std::size_t nodeUnknowns_ = 0;
    std::size_t unknowns_ = 0;
    std::size_t stateSlots_ = 0;
    double gmin_ = 1e-12;
};

/// Newton options shared by DC and transient.
struct NewtonOptions {
    int maxIterations = 200;
    double vtol = 1e-6;      ///< convergence: max voltage update, V
    double maxStep = 0.5;    ///< damping: max update component per iteration, V
};

struct NewtonStats {
    bool converged = false;
    int iterations = 0;
};

/// Storage reused by every solveNewton call on one map: the Jacobian (dense
/// or sparse, by the size rule), its LU, the RHS and the Newton step.
/// Owned by one analysis on its stack; not shared between threads.
struct NewtonWorkspace {
    explicit NewtonWorkspace(const MnaMap& map);

    /// Dense when there are branch rows (zero diagonals need pivoting) or
    /// fewer than 280 unknowns (dense LU beats the list-based sparse one).
    bool dense;
    la::DenseMatrix jacobian;  ///< dense path
    la::SparseMatrix sparse;   ///< sparse path
    la::DenseLu lu;
    la::Vector rhs;
    la::Vector xNew;
};

/// Damped Newton on the MNA system at one (time, dt, method) configuration;
/// refreshes the map's fixed-node values for `time`/`srcScale` first. x is
/// the initial guess in and the solution out. `ws` must have been built for
/// `map`.
NewtonStats solveNewton(MnaMap& map, NewtonWorkspace& ws, la::Vector& x,
                        double time, double dt, Integration method,
                        bool transient, double srcScale,
                        const la::Vector* xPrev,
                        const std::vector<double>* statePrev,
                        const NewtonOptions& opt);

// ---------------------------------------------------------------------------
// Per-stamp accessors, inline so that device code (every Device::stamp and
// updateState) reaches them without a call.

inline double MnaMap::voltage(NodeId n, const la::Vector& x) const {
    if (n == kGround) return 0.0;
    const int idx = index_[n];
    if (idx >= 0) return x[static_cast<std::size_t>(idx)];
    return fixedValue_[n];
}

inline double MnaMap::voltagePrev(NodeId n, const la::Vector& xPrev) const {
    if (n == kGround) return 0.0;
    const int idx = index_[n];
    if (idx >= 0) return xPrev[static_cast<std::size_t>(idx)];
    return fixedPrev_[n];
}

inline double MnaMap::knownVoltage(NodeId n) const {
    if (n == kGround) return 0.0;
    SNA_REQUIRE(fixed_[n], "knownVoltage on a free node");
    return fixedValue_[n];
}

inline std::size_t MnaMap::slotOf(const Device& d) const {
    const std::size_t i = d.index();
    SNA_REQUIRE(i < stateBase_.size() && circuit_->devices()[i].get() == &d,
                "device is not part of the mapped circuit: " + d.name());
    return i;
}

inline std::size_t MnaMap::stateBaseOf(const Device& d) const {
    const std::size_t base = stateBase_[slotOf(d)];
    SNA_REQUIRE(base != kNone, "device has no state slots: " + d.name());
    return base;
}

inline int MnaMap::branchBaseOf(const Device& d) const {
    const int base = branchBase_[slotOf(d)];
    SNA_REQUIRE(base >= 0, "device has no branch rows: " + d.name());
    return base;
}

inline double EvalContext::v(NodeId n) const { return map_.voltage(n, x_); }

inline double EvalContext::unknown(int index) const {
    SNA_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < x_.size(),
                "unknown index out of range");
    return x_[static_cast<std::size_t>(index)];
}

inline double EvalContext::vPrev(NodeId n) const {
    SNA_REQUIRE(xPrev_ != nullptr, "no previous time point in this context");
    return map_.voltagePrev(n, *xPrev_);
}

inline double EvalContext::state(const Device& d, std::size_t slot) const {
    SNA_REQUIRE(statePrev_ != nullptr, "no state storage in this context");
    return (*statePrev_)[map_.stateBaseOf(d) + slot];
}

inline void EvalContext::setState(const Device& d, std::size_t slot,
                                  double v) const {
    SNA_REQUIRE(stateNext_ != nullptr, "no writable state in this context");
    (*stateNext_)[map_.stateBaseOf(d) + slot] = v;
}

inline int EvalContext::branchRow(const Device& d, std::size_t branch) const {
    return map_.branchBaseOf(d) + static_cast<int>(branch);
}

inline void Stamper::dependence(NodeId node, NodeId ctrl, double didv) {
    const int row = map_.indexOf(node);
    if (row < 0) return;
    const int col = map_.indexOf(ctrl);
    if (col >= 0) {
        add(row, col, didv);
    } else {
        rhs_[row] -= didv * map_.knownVoltage(ctrl);
    }
}

inline void Stamper::conductance(NodeId a, NodeId b, double g) {
    dependence(a, a, +g);
    dependence(a, b, -g);
    dependence(b, b, +g);
    dependence(b, a, -g);
}

inline void Stamper::current(NodeId n, double i) {
    const int row = map_.indexOf(n);
    if (row >= 0) rhs_[row] += i;
}

}  // namespace sna::spice
