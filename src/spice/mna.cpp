#include "spice/mna.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

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
    : map_(map), j_(j), rhs_(rhs) {}

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
    std::vector<const VSource*> fixedSource(n, nullptr);
    std::vector<double> fixedSign(n, 1.0);

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
                             fixedSource[pinned]->name() + "')");
        }
        fixed_[pinned] = 1;
        fixedSource[pinned] = vs;
        fixedSign[pinned] = posIsFree ? +1.0 : -1.0;
    }

    // Pass 2: enumerate unknowns.
    for (NodeId id = 1; id < static_cast<NodeId>(n); ++id) {
        if (fixed_[id]) {
            fixedNodes_.push_back({id, fixedSource[id], fixedSign[id]});
        } else {
            index_[id] = static_cast<int>(nodeUnknowns_++);
        }
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

    // Pass 4: the stamp plan, in device order.
    plan_.reserve(devCount);
    for (std::size_t i = 0; i < devCount; ++i) {
        const Device& dev = *circuit.devices()[i];
        Entry e{Entry::Kind::Device, terminal(kGround), terminal(kGround), 0.0,
                stateBase_[i], &dev};
        if (const auto* r = dynamic_cast<const Resistor*>(&dev)) {
            e.kind = Entry::Kind::Resistor;
            e.value = 1.0 / r->resistance();
        } else if (const auto* c = dynamic_cast<const Capacitor*>(&dev)) {
            e.kind = Entry::Kind::Capacitor;
            e.value = c->capacitance();
            e.slot = stateBaseOf(*c);
            ++capacitorCount_;
        } else if (dynamic_cast<const TableVccs*>(&dev) != nullptr) {
            e.kind = Entry::Kind::TableVccs;
        } else if (const auto* vs = dynamic_cast<const VSource*>(&dev);
                   vs != nullptr && vs->grounded()) {
            continue;  // a fixed node: nothing to stamp
        }
        if (e.kind != Entry::Kind::Device) {
            e.a = terminal(dev.nodes()[0]);
            e.b = terminal(dev.nodes()[1]);
        }
        plan_.push_back(e);
    }

    updateFixed(0.0, 1.0);
    commitFixed();
}

void MnaMap::updateFixed(double time, double srcScale) {
    for (const Fixed& f : fixedNodes_) {
        fixedValue_[f.node] = f.sign * f.source->spec().value(time) * srcScale;
    }
}

void MnaMap::commitFixed() {
    for (const Fixed& f : fixedNodes_) fixedPrev_[f.node] = fixedValue_[f.node];
}

void MnaMap::companions(const EvalContext& ctx,
                        std::vector<Companion>& out) const {
    out.resize(capacitorCount_);
    if (capacitorCount_ == 0) return;
    SNA_REQUIRE(ctx.transient_, "capacitor companions need a transient context");
    SNA_REQUIRE(ctx.xPrev_ != nullptr,
                "no previous time point in this context");
    const bool trap = ctx.method_ == Integration::Trapezoidal;
    SNA_REQUIRE(!trap || ctx.statePrev_ != nullptr,
                "no state storage in this context");
    const la::Vector& xPrev = *ctx.xPrev_;
    std::size_t k = 0;
    for (const Entry& e : plan_) {
        if (e.kind != Entry::Kind::Capacitor) continue;
        const double vabPrev = voltageAt(e.a, xPrev, fixedPrev_) -
                               voltageAt(e.b, xPrev, fixedPrev_);
        const double iPrev = trap ? (*ctx.statePrev_)[e.slot] : 0.0;
        out[k++] =
            capacitorCompanion(e.value, ctx.dt_, ctx.method_, vabPrev, iPrev);
    }
}

void MnaMap::assemble(la::DenseMatrix& j, la::Vector& rhs,
                      const EvalContext& ctx,
                      const std::vector<Companion>& comp) const {
    j.setZero();
    std::fill(rhs.begin(), rhs.end(), 0.0);
    const bool transient = ctx.transient();
    SNA_REQUIRE(!transient || comp.size() == capacitorCount_,
                "capacitor companions computed for another map");
    Stamper st(*this, j, rhs);
    std::size_t k = 0;
    for (const Entry& e : plan_) {
        switch (e.kind) {
            case Entry::Kind::Resistor:
                stampConductance(j, rhs, e.a, e.b, e.value);
                break;
            case Entry::Kind::Capacitor:
                if (transient) stampCompanion(j, rhs, e.a, e.b, comp[k++]);
                break;  // open in DC
            case Entry::Kind::TableVccs:
                stampTable(j, rhs, e.a, e.b,
                           static_cast<const TableVccs*>(e.device)->table(),
                           ctx);
                break;
            case Entry::Kind::Device:
                e.device->stamp(st, ctx);
                break;
        }
    }
    // gmin keeps the Jacobian regular when devices are cut off.
    for (std::size_t i = 0; i < nodeUnknowns_; ++i) {
        detail::addEntry(j, static_cast<int>(i), static_cast<int>(i), gmin_);
    }
}

void MnaMap::assemble(la::DenseMatrix& j, la::Vector& rhs,
                      const EvalContext& ctx) const {
    std::vector<Companion> comp;
    if (ctx.transient()) companions(ctx, comp);
    assemble(j, rhs, ctx, comp);
}

void MnaMap::updateState(const EvalContext& ctx,
                         const std::vector<Companion>& comp) const {
    SNA_REQUIRE(ctx.stateNext_ != nullptr, "no writable state in this context");
    const bool transient = ctx.transient_;
    SNA_REQUIRE(!transient || comp.size() == capacitorCount_,
                "capacitor companions computed for another map");
    std::vector<double>& next = *ctx.stateNext_;
    std::size_t k = 0;
    for (const Entry& e : plan_) {
        if (e.slot == kNone) continue;
        if (e.kind == Entry::Kind::Device) {
            e.device->updateState(ctx);
        } else if (!transient) {
            next[e.slot] = 0.0;  // DC steady state: no current
        } else {
            const Companion& c = comp[k++];
            const double vab = voltageAt(e.a, ctx.x_, fixedValue_) -
                               voltageAt(e.b, ctx.x_, fixedValue_);
            next[e.slot] = c.geq * vab - c.ieq;
        }
    }
}

// ------------------------------------------------------------------ Newton

NewtonWorkspace::NewtonWorkspace(const MnaMap& map)
    : jacobian(map.unknowns(), map.unknowns()),
      factored(map.unknowns(), map.unknowns()),
      rhs(map.unknowns(), 0.0),
      xNew(map.unknowns(), 0.0),
      companions(map.capacitorCount()) {}

namespace {

// Newton controls (see the header).
constexpr int kMaxIterations = 200;
constexpr double kVtol = 1e-6;     // convergence: max update component, V
constexpr double kMaxStep = 0.5;   // damping: max update component per step, V

// Byte equality of two same-shape matrices: -0.0 differs from 0.0, and a
// NaN equals only its own bits.
bool sameBits(const la::DenseMatrix& a, const la::DenseMatrix& b) {
    const std::size_t bytes = a.data().size() * sizeof(double);
    return bytes == 0 ||
           std::memcmp(reinterpret_cast<const unsigned char*>(a.raw()),
                       reinterpret_cast<const unsigned char*>(b.raw()),
                       bytes) == 0;
}

// Factors ws.jacobian into ws.lu unless it is bitwise the Jacobian ws.lu
// already factors (see the header); returns whether it factored.
bool factorIfChanged(NewtonWorkspace& ws) {
    if (ws.luValid && sameBits(ws.jacobian, ws.factored)) return false;
    ws.luValid = false;
    ws.lu.refactor(ws.jacobian);
    ws.luValid = true;
    std::swap(ws.jacobian, ws.factored);
    return true;
}

}  // namespace

NewtonStats solveNewton(MnaMap& map, NewtonWorkspace& ws, la::Vector& x,
                        double time, double dt, Integration method,
                        bool transient, double srcScale,
                        const la::Vector* xPrev,
                        const std::vector<double>* statePrev) {
    const std::size_t n = map.unknowns();
    SNA_REQUIRE(x.size() == n, "initial guess has wrong dimension");
    SNA_REQUIRE(ws.rhs.size() == n, "Newton workspace built for another map");
    map.updateFixed(time, srcScale);
    // x is updated in place, so one context serves every iteration; the
    // companions are fixed for the whole call.
    const EvalContext ctx(map, x, xPrev, time, dt, method, transient, srcScale,
                          statePrev, nullptr);
    if (transient) map.companions(ctx, ws.companions);

    NewtonStats stats;
    for (int iter = 0; iter < kMaxIterations; ++iter) {
        ++stats.iterations;
        map.assemble(ws.jacobian, ws.rhs, ctx, ws.companions);
        if (factorIfChanged(ws)) ++stats.factorizations;
        ws.lu.solveInto(ws.rhs, ws.xNew);
        const la::Vector& xNew = ws.xNew;
        double worst = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            // A NaN update must stick: std::max would drop it.
            const double d = std::abs(xNew[i] - x[i]);
            if (d > worst || std::isnan(d)) worst = d;
        }
        if (!std::isfinite(worst)) {
            throw ConvergenceError("Newton produced a non-finite update");
        }
        if (worst <= kVtol) {
            x = xNew;
            stats.converged = true;
            return stats;
        }
        // Damped update: cap the largest component change.
        const double scale = (worst > kMaxStep) ? kMaxStep / worst : 1.0;
        for (std::size_t i = 0; i < n; ++i) {
            x[i] += scale * (xNew[i] - x[i]);
        }
    }
    return stats;
}

}  // namespace sna::spice
