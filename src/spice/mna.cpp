#include "spice/mna.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace sna::spice {

// ------------------------------------------------------------- EvalContext

EvalContext::EvalContext(const MnaMap& map, const la::Vector& x,
                         const la::Vector* xPrev, double time, double dt,
                         Integration method, bool transient, double srcScale,
                         const std::vector<double>* statePrev,
                         std::vector<double>* stateNext)
    : map_(map),
      x_(x),
      xPrev_(xPrev),
      time_(time),
      dt_(dt),
      method_(method),
      transient_(transient),
      srcScale_(srcScale),
      statePrev_(statePrev),
      stateNext_(stateNext) {}

// ----------------------------------------------------------------- Stamper

Stamper::Stamper(const MnaMap& map, la::DenseMatrix& j, la::Vector& rhs)
    : map_(map), dense_(&j), rhs_(rhs) {}

Stamper::Stamper(const MnaMap& map, la::SparseMatrix& j, la::Vector& rhs)
    : map_(map), sparse_(&j), rhs_(rhs) {}

void Stamper::norton(NodeId from, NodeId to, double i0,
                     std::initializer_list<std::pair<NodeId, double>> partials,
                     const EvalContext& ctx) {
    double linearizedAtPoint = 0.0;
    for (const auto& [ctrl, g] : partials) {
        dependence(from, ctrl, +g);
        dependence(to, ctrl, -g);
        linearizedAtPoint += g * ctx.v(ctrl);
    }
    // Current leaving `from` has constant part (i0 - sum g*v0); move it to
    // the RHS as an injected current.
    const double constPart = i0 - linearizedAtPoint;
    current(from, -constPart);
    current(to, +constPart);
}

void Stamper::branchVoltage(int branch, NodeId pos, NodeId neg, double value) {
    double rhs = value;
    const int ip = map_.indexOf(pos);
    if (ip >= 0) {
        add(branch, ip, +1.0);
    } else {
        rhs -= map_.knownVoltage(pos);
    }
    const int in = map_.indexOf(neg);
    if (in >= 0) {
        add(branch, in, -1.0);
    } else {
        rhs += map_.knownVoltage(neg);
    }
    rhs_[branch] += rhs;
}

void Stamper::branchControl(int branch, NodeId ctrl, double coeff) {
    const int ic = map_.indexOf(ctrl);
    if (ic >= 0) {
        add(branch, ic, coeff);
    } else {
        rhs_[branch] -= coeff * map_.knownVoltage(ctrl);
    }
}

void Stamper::branchCurrentInto(int branch, NodeId pos, NodeId neg) {
    const int ip = map_.indexOf(pos);
    if (ip >= 0) add(ip, branch, +1.0);
    const int in = map_.indexOf(neg);
    if (in >= 0) add(in, branch, -1.0);
}

void Stamper::branchPair(int row, int branchCol, double value) {
    add(row, branchCol, value);
}

void Stamper::branchRhs(int row, double value) { rhs_[row] += value; }

void Stamper::nodeBranch(NodeId n, int branchCol, double coeff) {
    const int row = map_.indexOf(n);
    if (row >= 0) add(row, branchCol, coeff);
}

// ------------------------------------------------------------------ MnaMap

MnaMap::MnaMap(const Circuit& circuit) : circuit_(&circuit) {
    const std::size_t n = circuit.nodeCount();
    index_.assign(n, -1);
    fixed_.assign(n, 0);
    fixedValue_.assign(n, 0.0);
    fixedPrev_.assign(n, 0.0);
    fixedSource_.assign(n, nullptr);
    fixedSign_.assign(n, 1.0);

    // Pass 1: ground-referenced ideal voltage sources pin their free node.
    for (const auto& dev : circuit.devices()) {
        const auto* vs = dynamic_cast<const VSource*>(dev.get());
        if (vs == nullptr || !vs->grounded()) continue;
        const bool posIsFree = (vs->neg() == kGround);
        const NodeId pinned = posIsFree ? vs->pos() : vs->neg();
        SNA_REQUIRE(pinned != kGround, "voltage source shorted to ground: " +
                                           vs->name());
        if (fixed_[pinned]) {
            throw ModelError("node '" + circuit.nodeName(pinned) +
                             "' is driven by two voltage sources ('" +
                             vs->name() + "' and '" +
                             fixedSource_[pinned]->name() + "')");
        }
        fixed_[pinned] = 1;
        fixedSource_[pinned] = vs;
        fixedSign_[pinned] = posIsFree ? +1.0 : -1.0;
    }

    // Pass 2: enumerate unknowns.
    for (NodeId id = 1; id < static_cast<NodeId>(n); ++id) {
        if (!fixed_[id]) index_[id] = static_cast<int>(nodeUnknowns_++);
    }
    unknowns_ = nodeUnknowns_;

    // Pass 3: branch unknowns and state slots, in device order.
    const std::size_t devCount = circuit.devices().size();
    branchBase_.assign(devCount, -1);
    stateBase_.assign(devCount, kNone);
    for (std::size_t i = 0; i < devCount; ++i) {
        const Device& dev = *circuit.devices()[i];
        if (const std::size_t bc = dev.branchCount(); bc > 0) {
            branchBase_[i] = static_cast<int>(unknowns_);
            unknowns_ += bc;
        }
        if (const std::size_t sc = dev.stateCount(); sc > 0) {
            stateBase_[i] = stateSlots_;
            stateSlots_ += sc;
        }
    }

    updateFixed(0.0, 1.0);
    commitFixed();
}

void MnaMap::updateFixed(double time, double srcScale) {
    for (NodeId id = 0; id < static_cast<NodeId>(fixed_.size()); ++id) {
        if (!fixed_[id]) continue;
        fixedValue_[id] =
            fixedSign_[id] * fixedSource_[id]->spec().value(time) * srcScale;
    }
}

void MnaMap::commitFixed() { fixedPrev_ = fixedValue_; }

void MnaMap::stampAll(Stamper& st, const EvalContext& ctx) const {
    for (const auto& dev : circuit_->devices()) dev->stamp(st, ctx);
}

void MnaMap::assemble(la::DenseMatrix& j, la::Vector& rhs,
                      const EvalContext& ctx) const {
    j.setZero();
    std::fill(rhs.begin(), rhs.end(), 0.0);
    Stamper st(*this, j, rhs);
    stampAll(st, ctx);
    // gmin keeps the Jacobian regular when devices are cut off.
    if (gmin_ != 0.0) {
        for (std::size_t i = 0; i < nodeUnknowns_; ++i) j(i, i) += gmin_;
    }
}

void MnaMap::assemble(la::SparseMatrix& j, la::Vector& rhs,
                      const EvalContext& ctx) const {
    j.clear();
    std::fill(rhs.begin(), rhs.end(), 0.0);
    Stamper st(*this, j, rhs);
    stampAll(st, ctx);
    for (std::size_t i = 0; i < nodeUnknowns_; ++i) j.add(i, i, gmin_);
}

// ------------------------------------------------------------------ Newton

NewtonWorkspace::NewtonWorkspace(const MnaMap& map)
    : dense(map.hasBranches() || map.unknowns() < 280),
      jacobian(dense ? map.unknowns() : 0, dense ? map.unknowns() : 0),
      sparse(dense ? 0 : map.unknowns()),
      rhs(map.unknowns(), 0.0),
      xNew(map.unknowns(), 0.0) {}

NewtonStats solveNewton(MnaMap& map, NewtonWorkspace& ws, la::Vector& x,
                        double time, double dt, Integration method,
                        bool transient, double srcScale,
                        const la::Vector* xPrev,
                        const std::vector<double>* statePrev,
                        const NewtonOptions& opt) {
    const std::size_t n = map.unknowns();
    SNA_REQUIRE(x.size() == n, "initial guess has wrong dimension");
    SNA_REQUIRE(ws.rhs.size() == n, "Newton workspace built for another map");
    map.updateFixed(time, srcScale);

    NewtonStats stats;
    for (int iter = 0; iter < opt.maxIterations; ++iter) {
        ++stats.iterations;
        EvalContext ctx(map, x, xPrev, time, dt, method, transient, srcScale,
                        statePrev, nullptr);
        if (ws.dense) {
            map.assemble(ws.jacobian, ws.rhs, ctx);
            ws.lu.refactor(ws.jacobian);
            ws.lu.solveInto(ws.rhs, ws.xNew);
        } else {
            map.assemble(ws.sparse, ws.rhs, ctx);
            ws.xNew = la::solveSparse(ws.sparse, ws.rhs);
        }
        const la::Vector& xNew = ws.xNew;
        double worst = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            worst = std::max(worst, std::abs(xNew[i] - x[i]));
        }
        if (!std::isfinite(worst)) {
            throw ConvergenceError("Newton produced a non-finite update");
        }
        if (worst <= opt.vtol) {
            x = xNew;
            stats.converged = true;
            return stats;
        }
        // Damped update: cap the largest component change.
        const double scale = (worst > opt.maxStep) ? opt.maxStep / worst : 1.0;
        for (std::size_t i = 0; i < n; ++i) {
            x[i] += scale * (xNew[i] - x[i]);
        }
    }
    return stats;
}

}  // namespace sna::spice
