#include "spice/circuit.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace sna::spice {

Circuit::Circuit() {
    names_.push_back("0");
    byName_["0"] = kGround;
    byName_["gnd"] = kGround;
    nodeDevices_.emplace_back();
}

NodeId Circuit::node(const std::string& name) {
    const std::string key = str::toLower(name);
    const auto it = byName_.find(key);
    if (it != byName_.end()) return it->second;
    const NodeId id = static_cast<NodeId>(names_.size());
    names_.push_back(name);
    byName_[key] = id;
    nodeDevices_.emplace_back();
    return id;
}

std::optional<NodeId> Circuit::findNode(const std::string& name) const {
    const auto it = byName_.find(str::toLower(name));
    if (it == byName_.end()) return std::nullopt;
    return it->second;
}

const std::string& Circuit::nodeName(NodeId id) const {
    SNA_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < names_.size(),
                "node id out of range");
    return names_[id];
}

void Circuit::registerDevice(std::unique_ptr<Device> dev) {
    SNA_REQUIRE(deviceByName_.find(dev->name()) == deviceByName_.end(),
                "duplicate device name '" + dev->name() + "'");
    const std::size_t idx = devices_.size();
    deviceByName_[dev->name()] = idx;
    for (NodeId n : dev->nodes()) {
        SNA_REQUIRE(n >= 0 && static_cast<std::size_t>(n) < names_.size(),
                    "device references unknown node");
        nodeDevices_[n].push_back(idx);
    }
    dev->index_ = idx;
    devices_.push_back(std::move(dev));
}

Resistor& Circuit::addResistor(const std::string& name, NodeId a, NodeId b,
                               double ohms) {
    return emplaceDevice<Resistor>(name, a, b, ohms);
}

Capacitor& Circuit::addCapacitor(const std::string& name, NodeId a, NodeId b,
                                 double farads) {
    return emplaceDevice<Capacitor>(name, a, b, farads);
}

VSource& Circuit::addVSource(const std::string& name, NodeId pos, NodeId neg,
                             SourceSpec spec) {
    return emplaceDevice<VSource>(name, pos, neg, std::move(spec));
}

TableVccs& Circuit::addTableVccs(const std::string& name, NodeId out,
                                 NodeId in,
                                 std::shared_ptr<const la::Grid2d> table) {
    return emplaceDevice<TableVccs>(name, out, in, std::move(table));
}

Mosfet& Circuit::addMosfet(const std::string& name, NodeId d, NodeId g,
                           NodeId s, NodeId b, const MosModel& model, double w,
                           double l, bool withParasitics) {
    Mosfet& fet = emplaceDevice<Mosfet>(name, d, g, s, b, model, w, l);
    if (withParasitics) {
        const MosCaps caps = instanceCaps(model, w, l);
        auto cap = [&](const char* suffix, NodeId x, NodeId y, double value) {
            if (value > 0.0 && x != y) {
                addCapacitor(name + suffix, x, y, value);
            }
        };
        cap(":cgs", g, s, caps.cgs);
        cap(":cgd", g, d, caps.cgd);
        cap(":cgb", g, b, caps.cgb);
        cap(":cdb", d, b, caps.cdb);
        cap(":csb", s, b, caps.csb);
    }
    return fet;
}

Device* Circuit::findDevice(const std::string& name) const {
    const auto it = deviceByName_.find(name);
    if (it == deviceByName_.end()) return nullptr;
    return devices_[it->second].get();
}

const std::vector<std::size_t>& Circuit::devicesAt(NodeId n) const {
    SNA_REQUIRE(n >= 0 && static_cast<std::size_t>(n) < nodeDevices_.size(),
                "node id out of range");
    return nodeDevices_[n];
}

}  // namespace sna::spice
