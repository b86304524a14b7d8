// PRIMA-style passive reduced-order interconnect macromodel.
//
// Block-Arnoldi Krylov projection of the (G, C) system about a positive
// expansion point s0 (shift needed because pure-RC noise-cluster nets are
// capacitively floating, making G alone singular): V spans the block Krylov
// space of (G + s0 C)^{-1} C with starting block (G + s0 C)^{-1} B. The
// congruence transform Ghat = V^T G V, Chat = V^T C V preserves passivity
// and matches block moments at s0. The higher-fidelity alternative to the
// coupled-Pi model for the A1 ablation, and the engine that also exposes
// receiver-node responses.
#pragma once

#include <vector>

#include "la/dense.hpp"
#include "mor/linear_network.hpp"
#include "spice/device.hpp"

namespace sna::mor {

struct PrimaModel {
    la::DenseMatrix ghat;  ///< q x q
    la::DenseMatrix chat;  ///< q x q
    la::DenseMatrix bhat;  ///< q x p (ports inject currents)

    int order() const { return static_cast<int>(ghat.rows()); }
    int ports() const { return static_cast<int>(bhat.cols()); }
};

/// Reduce with `blocks` Krylov block iterations (order q <= blocks * p after
/// deflation). s0 is the expansion point in rad/s; the default targets the
/// 10 ps - 1 ns glitch scale of deep-submicron noise.
PrimaModel primaReduce(const LinearNetwork& net, const std::vector<int>& ports,
                       int blocks, double s0 = 1e10);

/// Multi-terminal linear device realizing a PrimaModel inside any engine of
/// the library. Adds q reduced-state unknowns plus p port-current unknowns:
///   Ghat xh + Chat xh' - Bhat u = 0,   Bhat^T xh = v(ports),
/// with trapezoidal/BE companions on xh' and the port currents u entering
/// the attachment nodes' KCL.
class ReducedMultiport : public spice::Device {
public:
    ReducedMultiport(std::string name, std::vector<spice::NodeId> portNodes,
                     PrimaModel model);

    std::size_t branchCount() const override;
    std::size_t stateCount() const override;
    void stamp(spice::Stamper& s, const spice::EvalContext& ctx) const override;
    void updateState(const spice::EvalContext& ctx) const override;
    double currentInto(spice::NodeId n, const spice::EvalContext& ctx)
        const override;

    const PrimaModel& model() const { return model_; }

private:
    PrimaModel model_;
};

}  // namespace sna::mor
