// Standard-cell model: transistor topology + logic function + pin metadata.
//
// A Cell owns its transistor-level description (resolved against one
// Technology at library construction) and knows enough logic to drive the
// noise flow: which input vector holds the output at a given level, and what
// the output level is for a given input vector. Instantiation lowers the
// cell into a spice::Circuit, creating the internal nodes.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "tech/tech.hpp"

namespace sna::cell {

enum class PinDir { Input, Output };

struct Pin {
    std::string name;
    PinDir dir = PinDir::Input;
};

/// One transistor of the cell netlist. Terminals name either a pin, one of
/// the rails ("vdd"/"gnd"), or a cell-internal node (any other string).
struct TransistorSpec {
    std::string name;
    spice::MosType type = spice::MosType::Nmos;
    std::string drain, gate, source, bulk;
    double width = 0.0;   ///< m
    double length = 0.0;  ///< m
};

class Cell {
public:
    using LogicFn = std::function<bool(const std::vector<bool>&)>;

    /// `techKey`, when given, must be tech::identityKey(tech) of a
    /// technology nothing mutates for the cell's lifetime (sharedLibrary's
    /// private copies); without it technologyKey() rebuilds the key.
    Cell(std::string name, const tech::Technology& tech,
         std::vector<Pin> pins, std::vector<TransistorSpec> fets,
         LogicFn logic, std::shared_ptr<const std::string> techKey = nullptr);

    const std::string& name() const { return name_; }
    const tech::Technology& technology() const { return *tech_; }
    /// tech::identityKey(technology()): the stored key when the cell came
    /// with one, else serialized from the technology now, so a
    /// caller-owned technology mutated in place gets its new key.
    std::string technologyKey() const;
    const std::vector<Pin>& pins() const { return pins_; }
    const std::vector<TransistorSpec>& transistors() const { return fets_; }

    /// Names of the input pins, in declaration order (the LogicFn order).
    std::vector<std::string> inputNames() const;
    /// The single output pin (all bundled cells have exactly one).
    const std::string& outputName() const;

    /// Logic value of the output for a full input assignment.
    bool evaluate(const std::map<std::string, bool>& inputs) const;

    /// A canonical input assignment that holds the output at `level` while
    /// keeping pin `sensitiveInput` logically controlling: flipping only
    /// that pin flips the output. Throws ModelError if no such vector
    /// exists (e.g. non-unate corner); all bundled cells have one for every
    /// input. Pass an empty string to get any vector producing `level`.
    std::map<std::string, bool> holdingVector(bool level,
                                              const std::string& sensitiveInput)
        const;

    /// Lower into a circuit. `pinNodes` must map every pin name; `vdd` is
    /// the supply node. Internal nodes are created as "<inst>.<node>".
    void instantiate(spice::Circuit& c, const std::string& inst,
                     const std::map<std::string, spice::NodeId>& pinNodes,
                     spice::NodeId vdd) const;

    /// Analytic input pin capacitance (gate oxide + overlaps of every
    /// transistor the pin drives), used for receiver loading.
    double inputCapacitance(const std::string& pin) const;

    /// Analytic output pin capacitance (junction + gate-overlap caps of
    /// every transistor terminal on the pin); the driver's own loading of
    /// its net, needed by the macromodel because its TableVccs is purely
    /// resistive.
    double outputCapacitance(const std::string& pin) const;

private:
    std::string name_;
    const tech::Technology* tech_;
    std::shared_ptr<const std::string> techKey_;  ///< null: not stored
    std::vector<Pin> pins_;
    std::vector<TransistorSpec> fets_;
    LogicFn logic_;
};

}  // namespace sna::cell
