// Circuit: the netlist container shared by every engine in OpenSNA.
//
// Nodes are interned strings ("0" and "gnd" are ground); devices are owned
// polymorphic elements. Cells, interconnect builders and the parser all
// target this API; DC and transient analyses consume it read-only (source
// values may be retargeted between runs via the returned device handles,
// which is how characterization sweeps work).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "spice/device.hpp"

namespace sna::spice {

class Circuit {
public:
    Circuit();

    /// Get-or-create a node by name. "0" and "gnd" map to ground.
    NodeId node(const std::string& name);
    std::optional<NodeId> findNode(const std::string& name) const;
    const std::string& nodeName(NodeId id) const;
    /// Total node count including ground.
    std::size_t nodeCount() const { return names_.size(); }

    Resistor& addResistor(const std::string& name, NodeId a, NodeId b,
                          double ohms);
    Capacitor& addCapacitor(const std::string& name, NodeId a, NodeId b,
                            double farads);
    VSource& addVSource(const std::string& name, NodeId pos, NodeId neg,
                        SourceSpec spec);
    TableVccs& addTableVccs(const std::string& name, NodeId out, NodeId in,
                            std::shared_ptr<const la::Grid2d> table);

    /// Adds the transistor plus its constant instance capacitances
    /// (Cgs/Cgd/Cgb/Cdb/Csb) unless withParasitics is false.
    Mosfet& addMosfet(const std::string& name, NodeId d, NodeId g, NodeId s,
                      NodeId b, const MosModel& model, double w, double l,
                      bool withParasitics = true);

    /// Generic adder for externally defined Device subclasses (e.g. the
    /// MOR reduced multiport); registers the name and node fan-out exactly
    /// like the built-in adders.
    template <typename T, typename... Args>
    T& addDevice(Args&&... args) {
        return emplaceDevice<T>(std::forward<Args>(args)...);
    }

    const std::vector<std::unique_ptr<Device>>& devices() const {
        return devices_;
    }
    Device* findDevice(const std::string& name) const;

    /// Devices touching a node (indices into devices()).
    const std::vector<std::size_t>& devicesAt(NodeId n) const;

private:
    template <typename T, typename... Args>
    T& emplaceDevice(Args&&... args) {
        auto dev = std::make_unique<T>(std::forward<Args>(args)...);
        T& ref = *dev;
        registerDevice(std::move(dev));
        return ref;
    }

    /// Validates the name/node references, indexes the device, and assigns
    /// its Device::index().
    void registerDevice(std::unique_ptr<Device> dev);

    std::vector<std::string> names_;
    std::unordered_map<std::string, NodeId> byName_;
    std::vector<std::unique_ptr<Device>> devices_;
    std::unordered_map<std::string, std::size_t> deviceByName_;
    mutable std::vector<std::vector<std::size_t>> nodeDevices_;
};

}  // namespace sna::spice
