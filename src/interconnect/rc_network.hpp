// Coupled RC network: the interconnect model of a noise cluster.
//
// A pure RC multi-net structure with named nodes, per-wire driver/receiver
// ports, and coupling capacitances between wires. It is the common exchange
// format between the geometry builders (parallel_bus), the SPEF front-end,
// the MOR engine (which reads its G/C stamps), and the SPICE lowering used
// by the golden simulations.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "spice/circuit.hpp"

namespace sna::ic {

class RcNetwork {
public:
    struct Res {
        int a, b;
        double ohms;
    };
    struct Cap {
        int a;
        int b;  ///< kGroundNode for a grounded capacitor
        double farads;
    };
    static constexpr int kGroundNode = -1;

    // ---- construction ----
    int addNode(const std::string& name);
    void addRes(int a, int b, double ohms);
    void addCap(int a, int b, double farads);

    /// Declare a wire's end ports (node indices must exist).
    void addWire(const std::string& netName, int driverNode, int receiverNode);

    // ---- inspection ----
    int nodeCount() const { return static_cast<int>(names_.size()); }
    const std::string& nodeName(int i) const;
    int findNode(const std::string& name) const;  ///< -2 if absent

    int wireCount() const { return static_cast<int>(wires_.size()); }
    const std::string& wireName(int w) const;
    int driverNode(int w) const;
    int receiverNode(int w) const;
    /// Wire index owning a node, or -1 (nodes are assigned to the wire that
    /// declared them through addWire bookkeeping of name prefixes is NOT
    /// used; ownership is resistive connectivity to the wire ports).
    int wireOfNode(int node) const;

    const std::vector<Res>& resistors() const { return res_; }
    const std::vector<Cap>& caps() const { return caps_; }

    // ---- aggregate queries (tests, reduction) ----
    double totalResistanceOf(int wire) const;
    double totalGroundCapOf(int wire) const;
    double couplingCapBetween(int wireA, int wireB) const;

    // ---- lowering ----
    /// Materialize as R/C devices; circuit nodes are named
    /// "<prefix><nodeName>". Returns circuit node ids indexed like nodes.
    std::vector<spice::NodeId> buildInto(spice::Circuit& c,
                                         const std::string& prefix) const;
    /// The same with wire w's driving point at the existing circuit node
    /// `portNodes[w]`, as mor::CoupledPiModel::buildInto; returns each
    /// wire's receiver-end node.
    std::vector<spice::NodeId> buildInto(
        spice::Circuit& c, const std::string& prefix,
        const std::vector<spice::NodeId>& portNodes) const;

private:
    std::vector<spice::NodeId> lower(
        spice::Circuit& c, const std::string& prefix,
        const std::vector<spice::NodeId>& ports) const;
    void computeOwnership() const;

    std::vector<std::string> names_;
    std::unordered_map<std::string, int> byName_;
    std::vector<Res> res_;
    std::vector<Cap> caps_;
    struct Wire {
        std::string name;
        int driver;
        int receiver;
    };
    std::vector<Wire> wires_;
    mutable std::vector<int> ownership_;  // lazily computed from connectivity
};

}  // namespace sna::ic
