#include "core/incremental.hpp"

namespace sna::core {

std::unordered_set<std::string> expandDirtyCone(
    const DesignIndex& index, const std::unordered_set<std::string>& seeds,
    std::size_t* coupledNeighbors) {
    std::unordered_set<std::string> dirty = seeds;
    // A seed's value changed (parasitics, driver cell, or window): every
    // cluster that couples to it reads that value — through its aggressor
    // ranking, its aggressor driver model, the shared RC extraction, or the
    // aggressor's switching window — and must re-solve.
    std::size_t neighbors = 0;
    for (const auto& seed : seeds) {
        for (const auto& [net, cap] : index.couplingOf(seed)) {
            if (dirty.insert(net).second) ++neighbors;
        }
    }
    if (coupledNeighbors != nullptr) *coupledNeighbors = neighbors;
    return dirty;
}

}  // namespace sna::core
