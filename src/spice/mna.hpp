// MNA assembly with fixed-node elimination, and the damped Newton solve.
//
// MnaMap classifies every circuit node as ground, source-fixed (driven by a
// ground-referenced ideal voltage source — the overwhelmingly common case in
// noise clusters: supplies, inputs, Thevenin sources), or unknown. Fixed
// nodes are eliminated from the system: their time-dependent values are
// refreshed per evaluation and stamps touching them fold into the RHS. The
// remaining unknowns get a gmin to ground so the Jacobian stays regular in
// cutoff. Floating voltage sources and the reduced multiport add
// branch-current unknowns, whose zero diagonals the pivoting LU handles.
// Per-device state and branch offsets are vectors indexed by Device::index().
//
// Stamp plan. The constructor walks circuit.devices() once and lowers them
// to a flat plan in device order. Every Resistor and Capacitor becomes one
// entry holding its two terminals, each already resolved to an unknown index
// or to the ground/fixed node whose known value folds into the RHS, its
// value (1/ohms or farads) and a capacitor's state slot (resolved through
// stateBaseOf). Every TableVccs becomes one entry holding its resolved
// output and input terminals; its stamp reads the table through the device.
// Grounded voltage sources are dropped: they are the fixed nodes and stamp
// nothing. Every other device keeps a virtual stamp() call at its place.
// assemble() walks the plan, at DC and in transient. The plan is bitwise
// the device stamps: each entry gives every J and rhs slot the same `+=`
// sequence as the Stamper calls it replaces — for R and C,
// Stamper::dependence (a,a), (a,b), (b,b), (b,a) and Stamper::current;
// for a TableVccs, the Stamper::norton of its patch
// (dependence (out,in), (out,out), then current(out, -(z - linearized))
// with linearized = 0.0 + dz/dvin*vin + dz/dvout*vout, in that order) —
// the same order, the same zero skips (J entries skip a zero
// contribution, the RHS folds do not), the same expressions
// (`rhs[row] -= (-g) * v_fixed`) — and gmin is added last. Resistor,
// Capacitor and TableVccs::stamp reach the same helpers through
// Stamper::conductance, Stamper::companion and Stamper::tableVccs.
//
// Capacitor companions. A capacitor's (geq, ieq) depends only on dt, the
// integration method, the previous point and the previous state, which are
// fixed for one solveNewton call: companions() computes them once per call
// into the caller's NewtonWorkspace, every iteration of the call stamps
// them, and the accepted step's state update (updateState) reuses them.
//
// solveNewton runs on a caller-owned NewtonWorkspace: the plan stamps
// straight into its Jacobian, which is factored into its DenseLu (see
// below) and solved into its step vector, so a Newton iteration allocates
// nothing. An iteration moves every unknown by at most 0.5 V (the largest
// component of the update is scaled down to that), a call converges once
// the largest component of the full update is at most 1e-6 V, and it gives
// up after 200 iterations. An update that is not finite (a NaN or infinite
// stamp, a singular or NaN pivot) is a ConvergenceError, never a converged
// point.
//
// Factorization reuse. The workspace keeps the Jacobian its LU was last
// factored from. An iteration whose assembled Jacobian is bitwise equal to
// it (std::memcmp over every entry) solves with that LU instead of
// factoring again; any other Jacobian is factored and becomes the kept one
// (the two buffers swap, nothing is copied). This is exact, not an
// approximation: the LU is a deterministic function of the Jacobian's bits,
// so an equal Jacobian has that very LU, and the step solved from it is
// bitwise the step a fresh factorization would give. A factorization that
// threw is never reused. Hits are common in the macromodel: within one
// solveNewton call the time, dt, fixed-node values and companions are
// constant, every linear stamp is too, and a TableVccs's partials are
// constant on a bilinear patch, so the Jacobian repeats whenever the
// victim output stays in one patch between iterations (or between steps of
// equal dt). A MOSFET's partials move with the iterate, so a cell circuit
// reuses only where its Jacobian entries happen not to (a source-driven
// gate in saturation or cutoff, a settled iterate). NewtonStats and
// TranStats::factorizations count the factorizations actually run.
#pragma once

#include <limits>
#include <vector>

#include "la/dense.hpp"
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

    /// Number of capacitors: the size of companions()' output.
    std::size_t capacitorCount() const { return capacitorCount_; }

    /// The companion of every capacitor at a transient ctx, in plan order.
    /// `out` is resized to capacitorCount().
    void companions(const EvalContext& ctx, std::vector<Companion>& out) const;

    /// Stamp every device at the given context; adds gmin diagonals. `j`
    /// and `rhs` are zeroed first and must already have the system's size.
    /// In a transient context the capacitors stamp `comp`, which
    /// companions() filled at the same ctx; DC leaves it unread.
    void assemble(la::DenseMatrix& j, la::Vector& rhs, const EvalContext& ctx,
                  const std::vector<Companion>& comp) const;
    /// The same, computing the companions first (one-off assemblies).
    void assemble(la::DenseMatrix& j, la::Vector& rhs,
                  const EvalContext& ctx) const;

    /// Write every device's state at ctx (the accepted point, or the
    /// operating point at DC) into ctx's stateNext. A capacitor's slot gets
    /// its current a->b, geq * vab - ieq from `comp` (the companions of the
    /// Newton call that produced ctx's point), or 0 at DC; every other
    /// stateful device runs its updateState(). Every slot is rewritten.
    void updateState(const EvalContext& ctx,
                     const std::vector<Companion>& comp) const;

private:
    friend class Stamper;  // R/C device stamps share the plan's helpers

    static constexpr std::size_t kNone =
        std::numeric_limits<std::size_t>::max();

    /// One end of a two-terminal stamp: its unknown index, or -1 and the
    /// ground/fixed node whose known value folds into the RHS.
    struct Terminal {
        int index;
        NodeId node;
    };

    /// One plan entry, in device order.
    struct Entry {
        enum class Kind : unsigned char {
            Resistor,
            Capacitor,
            TableVccs,
            Device
        };
        Kind kind;
        Terminal a;            ///< TableVccs: the output
        Terminal b;            ///< TableVccs: the input
        double value;          ///< 1/ohms, or farads
        std::size_t slot;      ///< state slot (capacitor/device) or kNone
        const Device* device;  ///< the device (Kind::Device: its stamp())
    };

    /// A source-fixed node and the grounded source that drives it.
    struct Fixed {
        NodeId node;
        const VSource* source;
        double sign;  ///< +1 pos driven with neg grounded, -1 swapped
    };

    /// d's index after checking that d belongs to the mapped circuit.
    std::size_t slotOf(const Device& d) const;

    Terminal terminal(NodeId n) const { return {index_[n], n}; }
    /// Terminal voltage at x; fixed terminals read `known` (fixedValue_ or
    /// fixedPrev_, whose ground entry is always 0).
    static double voltageAt(Terminal t, const la::Vector& x,
                            const std::vector<double>& known) {
        return t.index >= 0 ? x[static_cast<std::size_t>(t.index)]
                            : known[static_cast<std::size_t>(t.node)];
    }

    /// The one conductance stamp: Stamper::conductance's += sequence.
    void stampConductance(la::DenseMatrix& j, la::Vector& rhs, Terminal a,
                          Terminal b, double g) const;
    /// The one capacitor stamp: geq between a and b, ieq into a, out of b.
    void stampCompanion(la::DenseMatrix& j, la::Vector& rhs, Terminal a,
                        Terminal b, const Companion& c) const;
    /// The one TableVccs stamp: Stamper::norton of its patch at ctx.
    void stampTable(la::DenseMatrix& j, la::Vector& rhs, Terminal out,
                    Terminal in, const la::Grid2d& table,
                    const EvalContext& ctx) const;

    const Circuit* circuit_;
    std::vector<int> index_;        // NodeId -> unknown index or -1
    std::vector<char> fixed_;       // NodeId -> source-fixed?
    std::vector<double> fixedValue_;  // NodeId -> value now (ground: 0)
    std::vector<double> fixedPrev_;   // NodeId -> value at the last commit
    std::vector<Fixed> fixedNodes_;   // source-fixed nodes, node order
    std::vector<Entry> plan_;
    std::vector<std::size_t> stateBase_;  // Device::index() -> offset or kNone
    std::vector<int> branchBase_;         // Device::index() -> row or -1
    std::size_t nodeUnknowns_ = 0;
    std::size_t unknowns_ = 0;
    std::size_t stateSlots_ = 0;
    std::size_t capacitorCount_ = 0;
    double gmin_ = 1e-12;
};

struct NewtonStats {
    bool converged = false;
    int iterations = 0;
    int factorizations = 0;  ///< LU factorizations run (<= iterations)
};

/// Storage reused by every solveNewton call on one map: the Jacobian, its
/// LU, the RHS and the Newton step. Owned by one analysis on its stack; not
/// shared between threads.
struct NewtonWorkspace {
    explicit NewtonWorkspace(const MnaMap& map);

    la::DenseMatrix jacobian;  ///< this iteration's Jacobian
    la::DenseMatrix factored;  ///< the Jacobian `lu` factors
    bool luValid = false;      ///< `lu` holds the factorization of `factored`
    la::DenseLu lu;
    la::Vector rhs;
    la::Vector xNew;
    /// Capacitor companions of the last transient solveNewton call; the
    /// accepted step's MnaMap::updateState reads them.
    std::vector<Companion> companions;
};

/// Damped Newton on the MNA system at one (time, dt, method) configuration;
/// refreshes the map's fixed-node values for `time`/`srcScale` first. x is
/// the initial guess in and the solution out. `ws` must have been built for
/// `map`.
NewtonStats solveNewton(MnaMap& map, NewtonWorkspace& ws, la::Vector& x,
                        double time, double dt, Integration method,
                        bool transient, double srcScale,
                        const la::Vector* xPrev,
                        const std::vector<double>* statePrev);

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

inline void MnaMap::stampConductance(la::DenseMatrix& j, la::Vector& rhs,
                                     Terminal a, Terminal b, double g) const {
    // dependence(a, a, +g), (a, b, -g), (b, b, +g), (b, a, -g), in order.
    if (a.index >= 0) {
        detail::addEntry(j, a.index, a.index, +g);
        if (b.index >= 0) {
            detail::addEntry(j, a.index, b.index, -g);
        } else {
            rhs[static_cast<std::size_t>(a.index)] -=
                (-g) * fixedValue_[static_cast<std::size_t>(b.node)];
        }
    }
    if (b.index >= 0) {
        detail::addEntry(j, b.index, b.index, +g);
        if (a.index >= 0) {
            detail::addEntry(j, b.index, a.index, -g);
        } else {
            rhs[static_cast<std::size_t>(b.index)] -=
                (-g) * fixedValue_[static_cast<std::size_t>(a.node)];
        }
    }
}

inline void MnaMap::stampCompanion(la::DenseMatrix& j, la::Vector& rhs,
                                   Terminal a, Terminal b,
                                   const Companion& c) const {
    stampConductance(j, rhs, a, b, c.geq);
    if (a.index >= 0) rhs[static_cast<std::size_t>(a.index)] += c.ieq;
    if (b.index >= 0) rhs[static_cast<std::size_t>(b.index)] += -c.ieq;
}

inline void MnaMap::stampTable(la::DenseMatrix& j, la::Vector& rhs,
                               Terminal out, Terminal in,
                               const la::Grid2d& table,
                               const EvalContext& ctx) const {
    // norton(out, ground, z, {{in, dz/dvin}, {out, dz/dvout}}): every stamp
    // lands in out's row, so a fixed output stamps nothing.
    if (out.index < 0) return;
    const double vin = voltageAt(in, ctx.x_, fixedValue_);
    const double vout = voltageAt(out, ctx.x_, fixedValue_);
    const la::Grid2d::Value v = table.eval(vin, vout);
    const std::size_t row = static_cast<std::size_t>(out.index);
    if (in.index >= 0) {
        detail::addEntry(j, out.index, in.index, v.dzdx);
    } else {
        rhs[row] -= v.dzdx * fixedValue_[static_cast<std::size_t>(in.node)];
    }
    detail::addEntry(j, out.index, out.index, v.dzdy);
    double linearizedAtPoint = 0.0;
    linearizedAtPoint += v.dzdx * vin;
    linearizedAtPoint += v.dzdy * vout;
    const double constPart = v.z - linearizedAtPoint;
    rhs[row] += -constPart;
}

inline void Stamper::tableVccs(NodeId out, NodeId in, const la::Grid2d& table,
                               const EvalContext& ctx) {
    map_.stampTable(j_, rhs_, map_.terminal(out), map_.terminal(in), table,
                    ctx);
}

inline void Stamper::conductance(NodeId a, NodeId b, double g) {
    map_.stampConductance(j_, rhs_, map_.terminal(a), map_.terminal(b), g);
}

inline void Stamper::companion(NodeId a, NodeId b, const Companion& c) {
    map_.stampCompanion(j_, rhs_, map_.terminal(a), map_.terminal(b), c);
}

inline void Stamper::current(NodeId n, double i) {
    const int row = map_.indexOf(n);
    if (row >= 0) rhs_[row] += i;
}

}  // namespace sna::spice
