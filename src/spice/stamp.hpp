// Stamping interfaces between devices and the MNA assembler.
//
// Devices never see matrices directly: they receive an EvalContext (voltage
// lookups at the current Newton iterate and at the previous accepted time
// point, plus integration data) and a Stamper (linearized-KCL primitives).
// The assembler owns fixed-node elimination: stamps that touch a ground or
// source-fixed node are folded into the right-hand side transparently.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "la/dense.hpp"
#include "la/interp.hpp"

namespace sna::spice {

using NodeId = int;
inline constexpr NodeId kGround = 0;

enum class Integration { BackwardEuler, Trapezoidal };

/// Capacitor companion model for one integration step: the current from
/// terminal a to b is geq * v(a,b) - ieq. vabPrev is v(a,b) at the previous
/// accepted point; iPrev, that point's current a->b, is read by the
/// trapezoidal rule only. The one definition behind the MNA plan's
/// capacitor stamps and state updates and Capacitor::currentInto.
struct Companion {
    double geq = 0.0;
    double ieq = 0.0;
};

inline Companion capacitorCompanion(double farads, double dt,
                                    Integration method, double vabPrev,
                                    double iPrev) {
    if (method == Integration::BackwardEuler) {
        const double geq = farads / dt;
        return {geq, geq * vabPrev};
    }
    const double geq = 2.0 * farads / dt;
    return {geq, geq * vabPrev + iPrev};
}

namespace detail {

/// J(r, c) += v, skipping zeros: the one accumulation rule of the device
/// stamps and the MNA plan, so that they assemble identical values.
inline void addEntry(la::DenseMatrix& j, int r, int c, double v) {
    if (v == 0.0) return;
    j(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
}

}  // namespace detail

/// Per-evaluation context handed to Device::stamp and Device::updateState.
class EvalContext {
public:
    EvalContext(const class MnaMap& map, const la::Vector& x,
                const la::Vector* xPrev, double time, double dt,
                Integration method, bool transient, double srcScale,
                const std::vector<double>* statePrev,
                std::vector<double>* stateNext);

    /// Node voltage at the current Newton iterate.
    double v(NodeId n) const;
    /// Node voltage at the previous accepted time point.
    double vPrev(NodeId n) const;
    /// Raw solution entry (branch devices read their own unknowns).
    double unknown(int index) const;

    double time() const { return time_; }
    double dt() const { return dt_; }
    Integration method() const { return method_; }
    bool transient() const { return transient_; }
    /// Independent-source scale in [0,1] (source-stepping homotopy).
    double srcScale() const { return srcScale_; }

    /// Per-device transient state (slot offsets resolved through the map).
    double state(const class Device& d, std::size_t slot) const;
    void setState(const class Device& d, std::size_t slot, double v) const;

    /// Absolute branch-unknown row of a branch device.
    int branchRow(const class Device& d, std::size_t branch = 0) const;

private:
    friend class MnaMap;  // reads the previous point and state directly

    const MnaMap& map_;
    const la::Vector& x_;
    const la::Vector* xPrev_;
    double time_;
    double dt_;
    Integration method_;
    bool transient_;
    double srcScale_;
    const std::vector<double>* statePrev_;
    std::vector<double>* stateNext_;
};

/// Linearized-KCL stamp primitives over J x = rhs.
///
/// Writes straight into the dense Jacobian of the Newton engine's
/// preallocated workspace: each entry receives its `+=` sequence in stamp
/// order, and zero contributions are skipped.
class Stamper {
public:
    Stamper(const class MnaMap& map, la::DenseMatrix& j, la::Vector& rhs);

    /// Two-terminal conductance g between a and b.
    void conductance(NodeId a, NodeId b, double g);

    /// Capacitor companion between a and b: conductance geq, and ieq
    /// injected into a and drawn from b.
    void companion(NodeId a, NodeId b, const Companion& c);

    /// Constant current `i` flowing INTO node n.
    void current(NodeId n, double i);

    /// Linearized dependence: the current LEAVING `node` contains the term
    /// didv * v(ctrl). Fixed/ground controls fold into the RHS.
    void dependence(NodeId node, NodeId ctrl, double didv);

    /// Norton stamp of a nonlinear current i(v...) flowing from `from` to
    /// `to` through the device: i0 is the current at the linearization
    /// point, `partials` the (ctrl node, d i/d v_ctrl) pairs, and `ctx`
    /// supplies the linearization-point voltages (EvalContext::v).
    void norton(NodeId from, NodeId to, double i0,
                std::initializer_list<std::pair<NodeId, double>> partials,
                const EvalContext& ctx);

    /// TableVccs sinking table(v(in), v(out)) from `out` to ground: the
    /// Norton stamp of its bilinear patch at ctx's point.
    void tableVccs(NodeId out, NodeId in, const la::Grid2d& table,
                   const EvalContext& ctx);

    /// Branch-equation access for floating voltage sources and the reduced
    /// multiport's port equations.
    void branchVoltage(int branch, NodeId pos, NodeId neg, double value);
    void branchControl(int branch, NodeId ctrl, double coeff);
    void branchCurrentInto(int branch, NodeId pos, NodeId neg);

    /// Generic branch-row primitives for multi-branch devices (reduced-order
    /// interconnect macromodels): matrix entry between two branch unknowns,
    /// RHS contribution to a branch row, and a current leaving node `n`
    /// proportional to a branch unknown.
    void branchPair(int row, int branchCol, double value);
    void branchRhs(int row, double value);
    void nodeBranch(NodeId n, int branchCol, double coeff);

private:
    /// J(r, c) += v, skipping zeros.
    void add(int r, int c, double v) { detail::addEntry(j_, r, c, v); }

    const MnaMap& map_;
    la::DenseMatrix& j_;
    la::Vector& rhs_;
};

}  // namespace sna::spice
