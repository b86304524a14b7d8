// The bundled standard-cell library.
//
// Twelve combinational cells (inverters/buffers, NAND/NOR stacks, AOI/OAI
// complex gates) at one or more drive strengths, resolved against a
// Technology. This plays the role of the commercial library the paper
// characterizes; the victim of its main experiment is NAND2_X1 and the
// aggressor driver INV_X1/X2.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "celllib/cell.hpp"

namespace sna::cell {

namespace detail {
struct SharedEntry;  // sharedLibrary's registry entry
}  // namespace detail

class CellLibrary {
public:
    explicit CellLibrary(const tech::Technology& tech);

    const tech::Technology& technology() const { return *tech_; }

    bool has(const std::string& name) const;
    const Cell& cell(const std::string& name) const;
    std::vector<std::string> names() const;

    /// Define an extra cell next to the bundled set — the seam for user
    /// libraries and for lint tests that need a deliberately broken cell.
    /// Throws ModelError if the name is already taken.
    void addCell(const std::string& name, std::vector<Pin> pins,
                 std::vector<TransistorSpec> fets, Cell::LogicFn logic);

private:
    friend struct detail::SharedEntry;

    /// A registry library: `techKey` is tech::identityKey(tech) of the
    /// registry's private copy, which nothing mutates, so every cell
    /// carries the key instead of serializing it per cache lookup.
    CellLibrary(const tech::Technology& tech,
                std::shared_ptr<const std::string> techKey);

    void define(const std::string& name, std::vector<Pin> pins,
                std::vector<TransistorSpec> fets, Cell::LogicFn logic);

    const tech::Technology* tech_;
    std::shared_ptr<const std::string> techKey_;  ///< null: not stored
    std::map<std::string, Cell> cells_;
};

/// Process-wide library for `tech`, built once per distinct technology and
/// shared. Thread-safe; the returned reference stays valid for the process
/// lifetime. Hot paths (cluster assembly, characterization, NRC checks) use
/// this instead of constructing a fresh CellLibrary per call.
///
/// Keyed on the technology's full electrical identity (bitwise parameters,
/// not the object's address) and backed by an owned copy, so short-lived or
/// mutated Technology objects — e.g. a corner sweep rebuilding one at the
/// same stack address — each get their own correct library. The copy is
/// never mutated, so its identity key is built once per entry and every
/// cell carries it (Cell::technologyKey).
const CellLibrary& sharedLibrary(const tech::Technology& tech);

}  // namespace sna::cell
