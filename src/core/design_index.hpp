// One-pass connectivity + coupling index for design-level noise analysis.
//
// The naive design sweep is super-quadratic: Design::driverOf/loadsOf scan
// every instance per query, and ranking one (victim, aggressor) pair scans
// every cap of every SPEF net (coupling caps may be listed under either
// net's section). DesignIndex folds all of that into one pass over the
// instances and one pass over the SPEF caps, after which every query the
// sweep needs is a hash lookup:
//   * net -> driving instance (its output pin is on the net),
//   * net -> (instance, input pin) loads,
//   * net -> {coupled net -> summed coupling cap}, symmetric regardless of
//     which section listed the cap.
//
// On top of the connectivity maps the index builds (lazily) the levelized
// design graph the propagated-noise wavefront needs: nets are nodes, and an
// edge A -> B exists when an instance has an input pin on A and its output
// pin on B (noise on A can travel through that instance onto B). Kahn wave
// levelization assigns level(B) = 1 + max(level(A)) over the fanin;
// combinational cycles are detected and broken deterministically: a
// predecessor walk from the smallest stalled net finds a true cycle and
// discards exactly one edge — the one into the cycle's lexicographically
// smallest member — per stall (recorded in brokenEdges), so acyclic nets
// merely stalled behind a cycle keep their fanin and the schedule is
// reproducible regardless of instance insertion order or thread count.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sna.hpp"
#include "core/timing_windows.hpp"
#include "parser/spef_parser.hpp"
#include "util/task_scheduler.hpp"

namespace sna::core {

/// One through-instance edge of the design graph: noise on `fromNet` arrives
/// at `inst`'s input `pin` and can propagate to the instance's output net.
struct FaninEdge {
    std::string fromNet;
    const Instance* inst = nullptr;
    std::string pin;
};

/// Slot-addressed scheduling view of the level graph, for the
/// dependency-counted wavefront: every net of the graph gets an integer
/// task id in deterministic (level, name) order — so each level occupies a
/// contiguous id range — and the fanin/fanout adjacency covers exactly the
/// scheduled edges (cycle-broken edges excluded, duplicates collapsed).
/// Task ids double as slots for per-net outputs, which is what makes the
/// out-of-order task-graph wavefront bit-identical at any thread count.
struct NetTaskGraph {
    std::vector<std::string> nets;  ///< task id -> net name
    std::unordered_map<std::string, int> idOf;  ///< net name -> task id
    /// Scheduled fanin task ids per task, ascending (always strictly lower
    /// level). faninIds[i].size() == graph.faninCount[i].
    std::vector<std::vector<int>> faninIds;
    /// Dependency DAG for util::runTaskGraph (fanout adjacency ascending,
    /// fanin counts).
    util::TaskGraph graph;
};

/// The levelized net graph (Kahn waves over the driver->fanout edges).
struct NetLevels {
    /// level -> net names, each level sorted by name; every net that touches
    /// an instance pin appears in exactly one level.
    std::vector<std::vector<std::string>> levels;
    std::unordered_map<std::string, int> levelOf;
    /// Fanin edges discarded to break combinational cycles, as
    /// (fromNet, toNet) sorted pairs; empty on a DAG.
    std::vector<std::pair<std::string, std::string>> brokenEdges;
};

class DesignIndex {
public:
    /// `windows`, when given, carries the per-net switching windows the
    /// wavefront propagates (not owned; must outlive the index).
    DesignIndex(const Design& design, const parser::SpefFile& spef,
                const TimingWindows* windows = nullptr);

    /// Instance driving `net`, or nullptr. Matches Design::driverOf: on a
    /// multiply-driven net the winner is deterministic — the instance with
    /// the lexicographically smallest name — regardless of insertion order;
    /// the losing drivers are recorded in extraDriversOf().
    const Instance* driverOf(const std::string& net) const;

    /// Names of the non-winning drivers of a multiply-driven net, sorted;
    /// empty for singly-driven nets. Surfaced as a per-net warning in
    /// NetNoiseReport instead of being dropped silently.
    const std::vector<std::string>& extraDriversOf(
        const std::string& net) const;

    /// The instance named `name`, or nullptr. On duplicate names the first
    /// in design order wins, the one Design::replaceCell rebinds.
    const Instance* instanceNamed(const std::string& name) const;

    /// The design this index was built over.
    const Design& design() const { return *design_; }

    /// The explicit switching-window input (nullptr when none was given).
    const TimingWindows* timingWindows() const { return windows_; }

    /// Swap the switching-window input without rebuilding the index (the
    /// windows object is an analysis input, not connectivity). Incremental
    /// re-analysis calls this so a retained index never serves a stale
    /// windows pointer from a previous request.
    void setTimingWindows(const TimingWindows* windows) { windows_ = windows; }

    /// Re-read the *CAP sections named in `changedNets` from `spef` (which
    /// may be a different SpefFile object than the one the index was built
    /// from — an ECO re-extraction) and rebuild the coupling view of every
    /// net those sections touch, old or new. Connectivity (drivers, loads,
    /// level graph) is untouched: parasitics don't change the netlist.
    ///
    /// Returns the sorted names of the nets whose couplingOf() map actually
    /// changed in value — the seed set for dirty-cone marking. Rebuilt maps
    /// are bit-identical to a fresh DesignIndex over the new SPEF: per-pair
    /// cap sums are re-accumulated in the same (section, cap) order the
    /// constructor uses, so floating-point summation order is preserved.
    std::vector<std::string> patchParasitics(
        const parser::SpefFile& spef,
        const std::vector<std::string>& changedNets);

    /// Whether `spef`'s sections are exactly the index's with the sections
    /// named in `changedNets` re-read (each named one counted as `spef` now
    /// has it): the count and the name digest (SpefFile::sectionDigest)
    /// must both match. A section added or removed without being named,
    /// even alongside another that keeps the count, fails the check, since
    /// patchParasitics cannot follow it. O(named sections).
    bool sectionsFollow(const parser::SpefFile& spef,
                        const std::vector<std::string>& changedNets) const;

    /// (instance, input pin) loads of `net`, in design order; empty if none.
    const std::vector<std::pair<const Instance*, std::string>>& loadsOf(
        const std::string& net) const;

    /// Coupled-net -> summed coupling cap of `net` (F), over every *CAP
    /// section of the SPEF; empty map if the net has no coupling. Ordered by
    /// net name for deterministic iteration.
    const std::map<std::string, double>& couplingOf(
        const std::string& net) const;

    /// Fanin edges of `net`: every (upstream net, instance, input pin)
    /// through which noise can reach `net`'s driver. Sorted by (fromNet,
    /// instance name, pin) for deterministic worst-incoming selection.
    const std::vector<FaninEdge>& faninOf(const std::string& net) const;

    /// Nets reachable from `net` through one instance (its loads' output
    /// nets), sorted and deduplicated.
    const std::vector<std::string>& fanoutOf(const std::string& net) const;

    /// The levelized design graph. Built lazily (thread-safe) on the first
    /// graph query — the flat propagate=false sweep never pays for it.
    const NetLevels& levels() const;

    /// The slot-addressed scheduled DAG over the same nets, built alongside
    /// the levelization. Task ids enumerate nets in (level, name) order.
    const NetTaskGraph& taskGraph() const;

private:
    /// Builds fanin/fanout edges and the levelization; called once.
    void buildGraph() const;
    void ensureGraph() const { std::call_once(graphOnce_, [this] { buildGraph(); }); }

    const Design* design_ = nullptr;  ///< not owned; must outlive the index
    const TimingWindows* windows_ = nullptr;  ///< not owned; may be null
    std::unordered_map<std::string, const Instance*> instanceByName_;
    std::unordered_map<std::string, const Instance*> driverByNet_;
    std::unordered_map<std::string, std::vector<std::string>>
        extraDriversByNet_;
    std::unordered_map<std::string,
                       std::vector<std::pair<const Instance*, std::string>>>
        loadsByNet_;
    std::unordered_map<std::string, std::map<std::string, double>>
        couplingByNet_;
    /// Per-SPEF-section coupling contributions as (owner1, owner2, farads)
    /// in cap-listing order, one entry (empty without coupling) per section.
    /// couplingByNet_ is always derived from this (in sorted section order,
    /// matching SpefFile::nets() iteration), which is what lets
    /// patchParasitics rebuild a net's summed caps bit-identically to a
    /// from-scratch construction.
    std::map<std::string,
             std::vector<std::tuple<std::string, std::string, double>>>
        sectionPairs_;
    /// SpefFile::sectionDigest of sectionPairs_'s keys.
    std::uint64_t sectionDigest_ = 0;
    mutable std::once_flag graphOnce_;
    mutable std::unordered_map<std::string, std::vector<FaninEdge>>
        faninByNet_;
    mutable std::unordered_map<std::string, std::vector<std::string>>
        fanoutByNet_;
    mutable NetLevels levels_;
    mutable NetTaskGraph taskGraph_;
};

}  // namespace sna::core
