// Stage-to-stage noise propagation for the design-level wavefront.
//
// The cluster macromodel already accepts a propagated glitch at one victim
// input (ClusterSpec::glitchInput); this module supplies the design-level
// glue around it: after a net's stage is analyzed, its surviving glitch is
// converted into a glitchInput injection on the fanout clusters (Nazarian &
// Pedram-style propagation), and nets that are not victim clusters
// themselves (no coupling) still carry noise through their driver via the
// pre-characterized propagation tables, so deep chains attenuate stage by
// stage instead of silently dropping noise at the first quiet net.
//
// Width convention: surviving/incoming glitches store the 50%-of-peak width
// that wave::measureGlitch reports. The equivalent triangle injection has
// base = 2 * width (a triangle's 50% width is half its base), which is what
// ClusterSpec::glitchWidth expects.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "charlib/char_cache.hpp"
#include "core/design_index.hpp"

namespace sna::core {

/// The noise left on a net after its stage was analyzed (macromodel metrics
/// for victim clusters, table-propagated estimates for pass-through nets).
struct SurvivingGlitch {
    double height = 0.0;  ///< V, |peak deviation| from the quiet level
    double width = 0.0;   ///< s, 50%-of-peak width
};

/// Glitch severity is only a partial order: the NRC is non-increasing in
/// width, so taller-and-at-least-as-wide dominates, but a tall-narrow and a
/// short-wide glitch are incomparable until solved. Each net therefore
/// keeps the non-dominated set of its surviving glitches (small: bounded by
/// kMaxSurviving, extremes preserved).
using SurvivingSet = std::vector<SurvivingGlitch>;

constexpr std::size_t kMaxSurviving = 4;

/// Merge `g` into the non-dominated set: drops it if dominated, evicts
/// entries it dominates, and caps the front at kMaxSurviving keeping the
/// extremes (tallest and widest). Deterministic.
void mergeSurviving(SurvivingSet& set, const SurvivingGlitch& g);

/// The upstream glitch selected for injection at a net's driver.
struct IncomingGlitch {
    double height = 0.0;   ///< V at the driver input
    double width = 0.0;    ///< s, 50% width
    std::string fromNet;   ///< upstream net it arrives from
    std::string inputPin;  ///< driver input pin connected to fromNet
};

/// Pick the worst glitches arriving at `net`'s driver: the non-dominated
/// front over every (fanin edge, surviving glitch) pair, sorted by height
/// descending (so width ascending — a Pareto-front property) with
/// deterministic tie-breaks, capped at kMaxSurviving keeping the extremes.
/// Empty when no upstream noise reaches the driver; the caller analyzes
/// each candidate and keeps the worse verdict. `survivingOf(fromNet)`
/// returns the upstream net's surviving front, or nullptr when that net has
/// none (or, in the task-graph wavefront, when the edge is not a scheduled
/// dependency — a cycle-broken fanin sits at the same or a later level and
/// must contribute nothing).
std::vector<IncomingGlitch> selectIncoming(
    const DesignIndex& index, const std::string& net,
    const std::function<const SurvivingSet*(const std::string&)>&
        survivingOf);

/// Estimate the glitch transferred through `cell` (input `pin` -> output)
/// with the pre-characterized propagation tables, evaluated at the worse of
/// the two output holding levels (larger transferred area, height on ties).
/// Tables are characterized on the canonical (height, width) grid at a
/// canonical load, so with a cache each (cell, pin, level) is characterized
/// exactly once per run no matter how many chain nets reuse it. Returns a
/// zero-height glitch when the driver filters the noise out.
SurvivingGlitch propagateThroughDriver(const cell::Cell& cell,
                                       const std::string& pin,
                                       const IncomingGlitch& incoming,
                                       charlib::CharCache* cache);

/// The canonical load the pass-through propagation tables are characterized
/// at (the PropagationSpec default). Per-net loads would make every cache
/// key unique; glitch attenuation estimates are load-insensitive enough
/// that one table per (cell, pin, level) is the right trade.
constexpr double kPropagationLoadCap = 30e-15;

// ---------------------------------------------------------------- windows

/// The switching window seen after `cell` when the transition arrives at
/// input `pin` inside `fanin`: shifted by the stage's characterized
/// insertion delay and widened by its output slew. Delay and slew come from
/// the driver's Thevenin equivalents (both transition directions, at the
/// canonical propagation load), so with a cache each (cell, pin, direction)
/// characterizes once per run. Unbounded fanin windows pass through
/// untouched without characterizing anything.
TimingWindow propagateWindowThroughDriver(const cell::Cell& cell,
                                          const std::string& pin,
                                          const TimingWindow& fanin,
                                          charlib::CharCache* cache);

/// FRAME-style window propagation along the levelized design graph, one
/// window per net addressed by task id (NetTaskGraph order: level, then
/// name): nets with an explicit entry in the window set keep it; every
/// other net takes the union (hull) of its fanin windows, each shifted
/// through the stage via propagateWindowThroughDriver; nets with no fanin
/// and no entry default to the unbounded window. A fanin later in task-id
/// order — a cycle-broken edge — reads as unbounded.
///
/// This is the cone pass, the one propagation body: it recomputes the
/// window of every id in `sources`, and of every net downstream of a
/// window that moved, in ascending task-id order, leaving the rest of
/// `byId` as retained. A net's window depends only on its earlier fanins'
/// windows, its driver cell and its explicit entry, so the sources of an
/// ECO are the nets on re-bound instances' pins and the nets whose
/// explicit entry changed. `byId` is resized to the graph (new slots
/// start unbounded). `moved`, when given, receives the ids whose window
/// changed in value (operator!=), ascending. Returns the number of nets
/// recomputed. `windows` overrides the explicit window set; nullptr reads
/// `index.timingWindows()`.
std::size_t propagateWindowCone(const DesignIndex& index,
                                charlib::CharCache* cache,
                                const TimingWindows* windows,
                                const std::vector<int>& sources,
                                std::vector<TimingWindow>& byId,
                                std::vector<int>* moved = nullptr);

/// The full pass keyed by net name: propagateWindowCone with every net a
/// source and nothing retained, one window per net of the level graph.
/// The override lets the lint hull check (SNA-L303) propagate a candidate
/// window set without mutating the index.
std::unordered_map<std::string, TimingWindow> propagateWindows(
    const DesignIndex& index, charlib::CharCache* cache,
    const TimingWindows* windows = nullptr);

}  // namespace sna::core
