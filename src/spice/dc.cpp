#include "spice/dc.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/log.hpp"

namespace sna::spice {

DcSolution::DcSolution(const Circuit& circuit, MnaMap map, la::Vector x)
    : circuit_(&circuit), map_(std::move(map)), x_(std::move(x)) {}

double DcSolution::voltage(NodeId node) const {
    return map_.voltage(node, x_);
}

double DcSolution::voltage(const std::string& node) const {
    const auto id = circuit_->findNode(node);
    SNA_REQUIRE(id.has_value(), "unknown node '" + node + "'");
    return voltage(*id);
}

double DcSolution::sourceCurrent(const std::string& vsourceName) const {
    const Device* dev = circuit_->findDevice(vsourceName);
    SNA_REQUIRE(dev != nullptr, "unknown device '" + vsourceName + "'");
    const auto* vs = dynamic_cast<const VSource*>(dev);
    SNA_REQUIRE(vs != nullptr, "'" + vsourceName + "' is not a voltage source");
    SNA_REQUIRE(vs->grounded(),
                "sourceCurrent needs a ground-referenced source: " +
                    vsourceName);
    const NodeId pinned = (vs->neg() == kGround) ? vs->pos() : vs->neg();

    EvalContext ctx(map_, x_, nullptr, 0.0, 0.0, Integration::BackwardEuler,
                    /*transient=*/false, /*srcScale=*/1.0, nullptr, nullptr);
    double intoNode = 0.0;
    for (const std::size_t idx : circuit_->devicesAt(pinned)) {
        const Device* d = circuit_->devices()[idx].get();
        if (d == dev) continue;
        intoNode += d->currentInto(pinned, ctx);
    }
    // KCL: source current into the node balances the rest of the circuit.
    double delivered = -intoNode;
    // Report with the source's own polarity (current out of its + pin).
    if (vs->pos() == kGround) delivered = -delivered;
    return delivered;
}

void robustDcSolve(MnaMap& map, NewtonWorkspace& ws, la::Vector& x) {
    auto tryNewton = [&](double gmin, double srcScale) {
        map.setGmin(gmin);
        return solveNewton(map, ws, x, /*time=*/0.0, /*dt=*/0.0,
                           Integration::BackwardEuler, /*transient=*/false,
                           srcScale, nullptr, nullptr)
            .converged;
    };

    const double gminFinal = 1e-12;
    if (tryNewton(gminFinal, 1.0)) return;

    log::debug() << "DC: plain Newton failed, trying gmin stepping";
    std::fill(x.begin(), x.end(), 0.0);
    auto gminStepping = [&] {
        for (double gmin = 1e-3; gmin >= gminFinal / 2; gmin *= 0.1) {
            if (!tryNewton(std::max(gmin, gminFinal), 1.0)) return false;
        }
        return true;
    };
    if (gminStepping()) return;

    log::debug() << "DC: gmin stepping failed, trying source stepping";
    std::fill(x.begin(), x.end(), 0.0);
    auto sourceStepping = [&] {
        for (int step = 1; step <= 20; ++step) {
            if (!tryNewton(gminFinal, static_cast<double>(step) / 20.0)) {
                return false;
            }
        }
        return true;
    };
    if (sourceStepping()) return;

    throw ConvergenceError("DC operating point did not converge");
}

DcSolution solveDc(const Circuit& circuit, const la::Vector* warmStart) {
    MnaMap map(circuit);
    la::Vector x(map.unknowns(), 0.0);
    if (warmStart != nullptr) {
        SNA_REQUIRE(warmStart->size() == x.size(),
                    "warm start has wrong dimension");
        x = *warmStart;
    }
    NewtonWorkspace ws(map);
    robustDcSolve(map, ws, x);
    return DcSolution(circuit, std::move(map), std::move(x));
}

}  // namespace sna::spice
