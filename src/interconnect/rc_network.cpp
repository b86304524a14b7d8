#include "interconnect/rc_network.hpp"

#include <queue>

#include "util/error.hpp"

namespace sna::ic {

int RcNetwork::addNode(const std::string& name) {
    SNA_REQUIRE(byName_.find(name) == byName_.end(),
                "duplicate RC node '" + name + "'");
    const int id = static_cast<int>(names_.size());
    names_.push_back(name);
    byName_[name] = id;
    ownership_.clear();
    return id;
}

void RcNetwork::addRes(int a, int b, double ohms) {
    SNA_REQUIRE(a >= 0 && a < nodeCount() && b >= 0 && b < nodeCount(),
                "resistor touches unknown RC node");
    SNA_REQUIRE(ohms > 0.0, "RC resistance must be positive");
    res_.push_back({a, b, ohms});
    ownership_.clear();
}

void RcNetwork::addCap(int a, int b, double farads) {
    SNA_REQUIRE(a >= 0 && a < nodeCount(), "capacitor touches unknown node");
    SNA_REQUIRE(b == kGroundNode || (b >= 0 && b < nodeCount()),
                "capacitor far node is invalid");
    SNA_REQUIRE(farads > 0.0, "RC capacitance must be positive");
    caps_.push_back({a, b, farads});
}

void RcNetwork::addWire(const std::string& netName, int driverNode,
                        int receiverNode) {
    SNA_REQUIRE(driverNode >= 0 && driverNode < nodeCount() &&
                    receiverNode >= 0 && receiverNode < nodeCount(),
                "wire ports must be existing nodes");
    wires_.push_back({netName, driverNode, receiverNode});
    ownership_.clear();
}

const std::string& RcNetwork::nodeName(int i) const {
    SNA_REQUIRE(i >= 0 && i < nodeCount(), "node index out of range");
    return names_[i];
}

int RcNetwork::findNode(const std::string& name) const {
    const auto it = byName_.find(name);
    return (it == byName_.end()) ? -2 : it->second;
}

const std::string& RcNetwork::wireName(int w) const {
    SNA_REQUIRE(w >= 0 && w < wireCount(), "wire index out of range");
    return wires_[w].name;
}

int RcNetwork::driverNode(int w) const {
    SNA_REQUIRE(w >= 0 && w < wireCount(), "wire index out of range");
    return wires_[w].driver;
}

int RcNetwork::receiverNode(int w) const {
    SNA_REQUIRE(w >= 0 && w < wireCount(), "wire index out of range");
    return wires_[w].receiver;
}

void RcNetwork::computeOwnership() const {
    ownership_.assign(nodeCount(), -1);
    // Resistive BFS from each wire's driver port: resistors never cross
    // nets, so connectivity defines ownership.
    std::vector<std::vector<std::pair<int, int>>> adj(nodeCount());
    for (const auto& r : res_) {
        adj[r.a].push_back({r.b, 0});
        adj[r.b].push_back({r.a, 0});
    }
    for (int w = 0; w < wireCount(); ++w) {
        std::queue<int> q;
        q.push(wires_[w].driver);
        while (!q.empty()) {
            const int n = q.front();
            q.pop();
            if (ownership_[n] == w) continue;
            SNA_REQUIRE(ownership_[n] == -1,
                        "node '" + names_[n] + "' reachable from two wires");
            ownership_[n] = w;
            for (const auto& [m, tag] : adj[n]) {
                (void)tag;
                if (ownership_[m] == -1) q.push(m);
            }
        }
    }
}

int RcNetwork::wireOfNode(int node) const {
    SNA_REQUIRE(node >= 0 && node < nodeCount(), "node index out of range");
    if (ownership_.size() != static_cast<std::size_t>(nodeCount())) {
        computeOwnership();
    }
    return ownership_[node];
}

double RcNetwork::totalResistanceOf(int wire) const {
    double total = 0.0;
    for (const auto& r : res_) {
        if (wireOfNode(r.a) == wire) total += r.ohms;
    }
    return total;
}

double RcNetwork::totalGroundCapOf(int wire) const {
    double total = 0.0;
    for (const auto& c : caps_) {
        if (c.b == kGroundNode && wireOfNode(c.a) == wire) total += c.farads;
    }
    return total;
}

double RcNetwork::couplingCapBetween(int wireA, int wireB) const {
    double total = 0.0;
    for (const auto& c : caps_) {
        if (c.b == kGroundNode) continue;
        const int wa = wireOfNode(c.a);
        const int wb = wireOfNode(c.b);
        if ((wa == wireA && wb == wireB) || (wa == wireB && wb == wireA)) {
            total += c.farads;
        }
    }
    return total;
}

std::vector<spice::NodeId> RcNetwork::buildInto(spice::Circuit& c,
                                                const std::string& prefix)
    const {
    return lower(c, prefix, {});
}

std::vector<spice::NodeId> RcNetwork::buildInto(
    spice::Circuit& c, const std::string& prefix,
    const std::vector<spice::NodeId>& portNodes) const {
    SNA_REQUIRE(portNodes.size() == wires_.size(),
                "need one driving-point node per wire");
    const auto ids = lower(c, prefix, portNodes);
    std::vector<spice::NodeId> far(wires_.size());
    for (std::size_t w = 0; w < far.size(); ++w) {
        far[w] = ids[wires_[w].receiver];
    }
    return far;
}

// Nodes not given as driving points (every node when `ports` is empty) are
// created in node order.
std::vector<spice::NodeId> RcNetwork::lower(
    spice::Circuit& c, const std::string& prefix,
    const std::vector<spice::NodeId>& ports) const {
    std::vector<spice::NodeId> ids(nodeCount(), -1);
    for (std::size_t w = 0; w < ports.size(); ++w) {
        ids[wires_[w].driver] = ports[w];
    }
    for (int i = 0; i < nodeCount(); ++i) {
        if (ids[i] < 0) ids[i] = c.node(prefix + names_[i]);
    }
    int k = 0;
    for (const auto& r : res_) {
        c.addResistor(prefix + "r" + std::to_string(++k), ids[r.a], ids[r.b],
                      r.ohms);
    }
    k = 0;
    for (const auto& cap : caps_) {
        const spice::NodeId far =
            (cap.b == kGroundNode) ? spice::kGround : ids[cap.b];
        c.addCapacitor(prefix + "c" + std::to_string(++k), ids[cap.a], far,
                       cap.farads);
    }
    return ids;
}

}  // namespace sna::ic
