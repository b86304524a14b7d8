// Device zoo of the SPICE engine.
//
// Every element implements stamp() against the Stamper/EvalContext pair; the
// same code path serves DC (transient()==false: capacitors open) and
// transient (companion models). currentInto() reports the DC/instantaneous
// current a device injects into one of its terminals, which powers both
// KCL-based source-current measurement (load-curve characterization) and the
// KCL property tests.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "la/interp.hpp"
#include "spice/mosfet.hpp"
#include "spice/stamp.hpp"
#include "waveform/waveform.hpp"

namespace sna::spice {

/// Time-dependent value of an independent source: a DC level or a PWL wave.
class SourceSpec {
public:
    SourceSpec() = default;

    static SourceSpec dc(double value);
    static SourceSpec pwl(wave::Waveform w);

    double value(double time) const;
    bool isDc() const { return wave_.empty(); }

    /// Times where the PWL slope changes (transient breakpoints).
    std::vector<double> breakpoints() const;

private:
    double dc_ = 0.0;
    wave::Waveform wave_;
};

class Device {
public:
    Device(std::string name, std::vector<NodeId> nodes)
        : name_(std::move(name)), nodes_(std::move(nodes)) {}
    virtual ~Device() = default;

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    const std::string& name() const { return name_; }
    const std::vector<NodeId>& nodes() const { return nodes_; }

    /// Position in the owning circuit's devices(), assigned when the circuit
    /// registers the device (kUnregistered before that). The MNA map indexes
    /// its per-device state and branch offsets by it.
    static constexpr std::size_t kUnregistered =
        std::numeric_limits<std::size_t>::max();
    std::size_t index() const { return index_; }

    /// Number of per-device transient state slots (e.g. capacitor current).
    virtual std::size_t stateCount() const { return 0; }

    /// Number of branch-current unknowns this device adds to the MNA system.
    virtual std::size_t branchCount() const { return 0; }

    /// Linearized stamp at ctx. The MNA assembler calls it for every device
    /// except resistors and capacitors, which it stamps from its own plan.
    virtual void stamp(Stamper& s, const EvalContext& ctx) const = 0;

    /// Called after a transient step is accepted (and once at the operating
    /// point); writes stateNext slots. Capacitor state is written by the MNA
    /// map from its plan.
    virtual void updateState(const EvalContext& /*ctx*/) const {}

    /// Instantaneous current flowing INTO terminal `n` from this device, at
    /// the ctx voltages. Sources that fix node voltages return 0 (their
    /// current is determined by the rest of the circuit).
    virtual double currentInto(NodeId n, const EvalContext& ctx) const = 0;

private:
    friend class Circuit;  // assigns index_

    std::string name_;
    std::vector<NodeId> nodes_;
    std::size_t index_ = kUnregistered;
};

/// Final: the MNA plan stamps resistors and capacitors from their values,
/// so a subclass could not change how they stamp.
class Resistor final : public Device {
public:
    Resistor(std::string name, NodeId a, NodeId b, double ohms);
    double resistance() const { return ohms_; }
    void stamp(Stamper& s, const EvalContext& ctx) const override;
    double currentInto(NodeId n, const EvalContext& ctx) const override;

private:
    double ohms_;
};

class Capacitor final : public Device {
public:
    Capacitor(std::string name, NodeId a, NodeId b, double farads);
    double capacitance() const { return farads_; }
    std::size_t stateCount() const override { return 1; }  // branch current
    void stamp(Stamper& s, const EvalContext& ctx) const override;
    double currentInto(NodeId n, const EvalContext& ctx) const override;

private:
    /// capacitorCompanion at ctx (a transient context).
    Companion companion(const EvalContext& ctx) const;
    double farads_;
};

/// Independent voltage source. Ground-referenced instances are eliminated
/// as fixed nodes by the assembler (the common, fast case); floating
/// instances get a branch-current unknown.
class VSource : public Device {
public:
    VSource(std::string name, NodeId pos, NodeId neg, SourceSpec spec);
    NodeId pos() const { return nodes()[0]; }
    NodeId neg() const { return nodes()[1]; }
    const SourceSpec& spec() const { return spec_; }
    void setSpec(SourceSpec spec) { spec_ = std::move(spec); }
    bool grounded() const { return pos() == kGround || neg() == kGround; }
    std::size_t branchCount() const override { return grounded() ? 0 : 1; }
    void stamp(Stamper& s, const EvalContext& ctx) const override;
    double currentInto(NodeId n, const EvalContext& ctx) const override;

private:
    SourceSpec spec_;
};

/// Table-driven voltage-controlled current source — the paper's
/// victim-driver macromodel element.
///
/// Sinks i = table(v(in), v(out)) from `out` to ground, where `table` is the
/// characterized load-curve I_DC = f(V_in, V_out) of the driver cell (Eq. (1)
/// of the paper). Newton linearization uses the exact bilinear-patch
/// partials. The table is shared, not copied: every probe circuit of one
/// macromodel points at the same characterized grid. Final, like Resistor
/// and Capacitor: the MNA plan stamps it from its table.
class TableVccs final : public Device {
public:
    TableVccs(std::string name, NodeId out, NodeId in,
              std::shared_ptr<const la::Grid2d> table);
    const la::Grid2d& table() const { return *table_; }
    void stamp(Stamper& s, const EvalContext& ctx) const override;
    double currentInto(NodeId n, const EvalContext& ctx) const override;

private:
    // axes: (v_in, v_out) -> current sunk at out
    std::shared_ptr<const la::Grid2d> table_;
};

/// Level-1 MOSFET (DC current element; instance capacitances are added as
/// separate Capacitor devices by Circuit::addMosfet).
class Mosfet : public Device {
public:
    Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
           MosModel model, double w, double l);
    NodeId drain() const { return nodes()[0]; }
    NodeId gate() const { return nodes()[1]; }
    NodeId source() const { return nodes()[2]; }
    NodeId bulk() const { return nodes()[3]; }
    const MosModel& model() const { return model_; }
    double width() const { return w_; }
    double length() const { return l_; }

    void stamp(Stamper& s, const EvalContext& ctx) const override;
    double currentInto(NodeId n, const EvalContext& ctx) const override;

    /// Drain current and partials w.r.t. the physical terminal voltages;
    /// exposed for unit tests of region/reflection handling.
    struct Linearization {
        double id;  ///< current into physical drain
        double dVd, dVg, dVs, dVb;
    };
    Linearization linearize(double vd, double vg, double vs, double vb) const;

private:
    MosModel model_;
    double w_;
    double l_;
    double beta_;
};

}  // namespace sna::spice
