#include "spice/device.hpp"

#include <cmath>

#include "spice/mna.hpp"
#include "util/error.hpp"

namespace sna::spice {

// ---------------------------------------------------------------- sources

SourceSpec SourceSpec::dc(double value) {
    SourceSpec s;
    s.dc_ = value;
    return s;
}

SourceSpec SourceSpec::pwl(wave::Waveform w) {
    SNA_REQUIRE(!w.empty(), "PWL source needs a non-empty waveform");
    SourceSpec s;
    s.wave_ = std::move(w);
    return s;
}

double SourceSpec::value(double time) const {
    return wave_.empty() ? dc_ : wave_.value(time);
}

std::vector<double> SourceSpec::breakpoints() const {
    std::vector<double> out;
    for (const auto& s : wave_.samples()) out.push_back(s.t);
    return out;
}

// --------------------------------------------------------------- resistor

Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Device(std::move(name), {a, b}), ohms_(ohms) {
    SNA_REQUIRE(ohms > 0.0, "resistance must be positive: " + this->name());
}

void Resistor::stamp(Stamper& s, const EvalContext&) const {
    s.conductance(nodes()[0], nodes()[1], 1.0 / ohms_);
}

double Resistor::currentInto(NodeId n, const EvalContext& ctx) const {
    const double va = ctx.v(nodes()[0]);
    const double vb = ctx.v(nodes()[1]);
    const double iAToB = (va - vb) / ohms_;
    if (n == nodes()[0]) return -iAToB;
    if (n == nodes()[1]) return +iAToB;
    return 0.0;
}

// -------------------------------------------------------------- capacitor

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads)
    : Device(std::move(name), {a, b}), farads_(farads) {
    SNA_REQUIRE(farads > 0.0, "capacitance must be positive: " + this->name());
}

Companion Capacitor::companion(const EvalContext& ctx) const {
    const double vabPrev = ctx.vPrev(nodes()[0]) - ctx.vPrev(nodes()[1]);
    const double iPrev = (ctx.method() == Integration::Trapezoidal)
                             ? ctx.state(*this, 0)
                             : 0.0;
    return capacitorCompanion(farads_, ctx.dt(), ctx.method(), vabPrev, iPrev);
}

void Capacitor::stamp(Stamper& s, const EvalContext& ctx) const {
    if (!ctx.transient()) return;  // open in DC
    s.companion(nodes()[0], nodes()[1], companion(ctx));
}

double Capacitor::currentInto(NodeId n, const EvalContext& ctx) const {
    if (!ctx.transient()) return 0.0;
    const auto [geq, ieq] = companion(ctx);
    const double vab = ctx.v(nodes()[0]) - ctx.v(nodes()[1]);
    const double iAToB = geq * vab - ieq;
    if (n == nodes()[0]) return -iAToB;
    if (n == nodes()[1]) return +iAToB;
    return 0.0;
}

// ---------------------------------------------------------------- vsource

VSource::VSource(std::string name, NodeId pos, NodeId neg, SourceSpec spec)
    : Device(std::move(name), {pos, neg}), spec_(std::move(spec)) {
    SNA_REQUIRE(pos != neg, "voltage source with shorted terminals: " +
                                this->name());
}

void VSource::stamp(Stamper& s, const EvalContext& ctx) const {
    if (grounded()) return;  // eliminated as a fixed node by the assembler
    const int row = ctx.branchRow(*this);
    s.branchVoltage(row, pos(), neg(), spec_.value(ctx.time()) * ctx.srcScale());
    s.branchCurrentInto(row, pos(), neg());
}

double VSource::currentInto(NodeId, const EvalContext&) const {
    return 0.0;  // determined by the surrounding circuit
}

// -------------------------------------------------------------- tablevccs

TableVccs::TableVccs(std::string name, NodeId out, NodeId in,
                     std::shared_ptr<const la::Grid2d> table)
    : Device(std::move(name), {out, in}), table_(std::move(table)) {
    SNA_REQUIRE(table_ != nullptr && !table_->empty(),
                "TableVccs needs a characterized table: " + this->name());
}

void TableVccs::stamp(Stamper& s, const EvalContext& ctx) const {
    s.tableVccs(nodes()[0], nodes()[1], *table_, ctx);
}

double TableVccs::currentInto(NodeId n, const EvalContext& ctx) const {
    const double i = (*table_)(ctx.v(nodes()[1]), ctx.v(nodes()[0]));
    if (n == nodes()[0]) return -i;  // sunk from the output node
    return 0.0;
}

// ----------------------------------------------------------------- mosfet

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
               MosModel model, double w, double l)
    : Device(std::move(name), {d, g, s, b}),
      model_(model),
      w_(w),
      l_(l),
      beta_(model.kp * w / l) {
    SNA_REQUIRE(w > 0.0 && l > 0.0, "MOSFET geometry must be positive: " +
                                        this->name());
}

Mosfet::Linearization Mosfet::linearize(double vd, double vg, double vs,
                                        double vb) const {
    const double sign = (model_.type == MosType::Nmos) ? 1.0 : -1.0;
    const double vdp = sign * vd;
    const double vgp = sign * vg;
    const double vsp = sign * vs;
    const double vbp = sign * vb;

    Linearization lin{};
    if (vdp >= vsp) {
        // Normal mode (reflected space): effective drain = physical drain.
        const MosEval e =
            evalLevel1(model_, beta_, vgp - vsp, vdp - vsp, vbp - vsp);
        lin.id = sign * e.ids;
        lin.dVg = e.gm;
        lin.dVd = e.gds;
        lin.dVb = e.gmbs;
        lin.dVs = -(e.gm + e.gds + e.gmbs);
    } else {
        // Swapped mode: effective drain = physical source.
        const MosEval e =
            evalLevel1(model_, beta_, vgp - vdp, vsp - vdp, vbp - vdp);
        lin.id = -sign * e.ids;
        lin.dVg = -e.gm;
        lin.dVs = -e.gds;
        lin.dVb = -e.gmbs;
        lin.dVd = e.gm + e.gds + e.gmbs;
    }
    return lin;
}

void Mosfet::stamp(Stamper& s, const EvalContext& ctx) const {
    const NodeId d = drain();
    const NodeId g = gate();
    const NodeId src = source();
    const NodeId b = bulk();
    const Linearization lin =
        linearize(ctx.v(d), ctx.v(g), ctx.v(src), ctx.v(b));
    s.norton(d, src, lin.id,
             {{d, lin.dVd}, {g, lin.dVg}, {src, lin.dVs}, {b, lin.dVb}}, ctx);
}

double Mosfet::currentInto(NodeId n, const EvalContext& ctx) const {
    const Linearization lin =
        linearize(ctx.v(drain()), ctx.v(gate()), ctx.v(source()), ctx.v(bulk()));
    if (n == drain()) return -lin.id;
    if (n == source()) return +lin.id;
    return 0.0;
}

}  // namespace sna::spice
