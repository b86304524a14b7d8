// Worst-case noise alignment search.
//
// The total glitch depends on when each aggressor switches and when the
// propagated glitch arrives. The paper's worst case "occurs when all the
// noise glitch peaks are aligned"; this module provides that heuristic as a
// starting point plus a coordinate-refinement search on the macromodel
// (cheap — each probe is a ~10-node transient), and a brute-force grid
// reference for validation.
//
// Both searches simulate each distinct probe once. A coordinate sweep
// re-offers its incumbent at the centre point and clamps edge points onto
// bounds an earlier sweep already probed; those repeats are bit-identical
// transients, so an exact-probe memo answers them instead.
//
// Timing windows (FRAME-style temporal correlation) only restrict which
// alignments are feasible. They are an argument, `const AlignmentWindows*`
// (null: unconstrained), read in one place for both ways of choosing an
// alignment: the search below, and the caller's fixed alignment
// (fixedAlignment).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/macromodel.hpp"
#include "core/timing_windows.hpp"

namespace sna::core {

struct AlignmentOptions {
    double window = 0.8e-9;   ///< search window around the initial times, s
    int coarsePoints = 7;     ///< grid points per variable per round
    int rounds = 3;           ///< shrink-and-refine rounds
};

/// Timing-window constraints on one cluster's alignment, all in absolute
/// simulation time. The unbounded defaults constrain nothing.
struct AlignmentWindows {
    /// Empty, or one window per spec aggressor: the allowed interval of that
    /// aggressor's OUTPUT transition (already intersected with the victim's
    /// sensitivity interval by the caller). An empty window excludes the
    /// aggressor: it is held quiet (switch time +inf, reported as such in
    /// the alignment's aggressor switch times).
    std::vector<TimingWindow> aggressors;

    /// Allowed occupancy window of the injected victim-input glitch (its
    /// triangle spans [glitchTime, glitchTime + glitchWidth]). Callers must
    /// drop the glitch candidate entirely instead of passing a window with
    /// no feasible onset.
    TimingWindow glitch;
};

/// One alignment of a cluster's stimuli: each aggressor's input switch time
/// (+inf: held quiet) and the injected glitch's onset.
struct AlignmentTimes {
    std::vector<double> aggressorSwitchTimes;
    double glitchTime = 0.0;
};

struct AlignmentResult {
    /// Worst-case input switch times; +inf marks a window-excluded
    /// aggressor that was held quiet.
    std::vector<double> aggressorSwitchTimes;
    double glitchTime = 0.0;
    NoiseResult worst;
    /// Transients this search simulated: one per distinct probe, plus one
    /// per memo hit that had to be re-run to become the incumbent (only
    /// possible when the memo was filled by another search).
    int evaluations = 0;
};

/// Exact-probe memo: |peak| of every probe simulated on one model, keyed on
/// the bit patterns of the aggressor switch times and the glitch time (so
/// -0.0 and +0.0 are different probes, and +inf marks a quiet aggressor).
/// A repeated probe is answered from the memo; since the transient is
/// deterministic this is exact. Values only — never waveforms — so a memo
/// stays a few kB; a hit that would become the incumbent is re-simulated
/// for its waveform.
///
/// Searches that share a memo must run on the same ClusterMacromodel
/// (checked): the windowed design flow runs its unconstrained and its
/// window-constrained search on one model and one memo. A memo is plain
/// mutable state: use one per thread.
class ProbeMemo {
public:
    explicit ProbeMemo(const ClusterMacromodel& model) : model_(&model) {}

    const ClusterMacromodel& model() const { return *model_; }
    /// Distinct probes recorded.
    std::size_t size() const { return values_.size(); }

    std::optional<double> find(const std::vector<double>& aggTimes,
                               double glitchTime) const;
    void record(const std::vector<double>& aggTimes, double glitchTime,
                double value);

private:
    const ClusterMacromodel* model_;
    std::map<std::vector<std::uint64_t>, double> values_;
};

/// The simulation horizon of a cluster whose victim input carries an
/// injected glitch with triangle base `glitchBase`. A broad, near-DC glitch
/// can outlast `tstop`: the search probes onsets up to 0.8 * tstop, so the
/// triangle only fits for any probe when the horizon is at least 5x its
/// base. The horizon is extended rather than the glitch clamped (clamping
/// would analyze a narrower, weaker glitch — optimistic).
double glitchHorizon(double tstop, double glitchBase);

/// The feasible onsets of an injected glitch with triangle base
/// `glitchBase` whose occupancy [onset, onset + base] must meet window `w`,
/// on a horizon `tstop`: [max(0, w.earliest - base), min(0.8 tstop,
/// w.latest)]. TimingWindow::empty() when the window leaves no onset. The
/// search, the fixed-alignment clamp and the design flow's decision to
/// drop a glitch candidate all read this one interval.
TimingWindow glitchOnsetInterval(const TimingWindow& w, double glitchBase,
                                 double tstop);

/// The caller's fixed alignment (no search) under `windows`: the spec's own
/// times, with every aggressor whose window is empty held quiet (+inf), and
/// the glitch onset clamped into glitchOnsetInterval when the glitch window
/// is bounded and that interval is not empty. Null `windows` gives the
/// spec's times unchanged.
///
/// It is coarser than the search's spec candidate: a bounded aggressor
/// window leaves that aggressor's time alone (the search clamps it into the
/// window's feasible input interval), and an aggressor whose feasible input
/// interval is empty keeps switching (the search holds it quiet).
AlignmentTimes fixedAlignment(const ClusterSpec& spec,
                              const AlignmentWindows* windows = nullptr);

/// Coordinate-descent worst-|peak| search starting from peak-aligned
/// initial times. All probed times are clamped to [0, 0.8 tstop]: a
/// candidate before t = 0 would truncate the stimulus and score a
/// misleading objective. The spec's own alignment is always evaluated and
/// wins ties, so the search never returns worse than the caller's fixed
/// alignment.
///
/// `memo`, when given, holds the probes of earlier searches on `model` and
/// receives this search's; the returned alignment and waveform are
/// bit-identical to a search without it, only `evaluations` drops. Without
/// one the search keeps a private memo.
///
/// `windows`, when given, narrows every search variable to its feasible
/// interval. An aggressor window constrains the OUTPUT transition, so the
/// search maps it to input switch times through the aggressor's
/// characterized delay and slew; an empty window, or one whose feasible
/// input interval is empty, excludes the aggressor (held quiet, its axis
/// skipped). A bounded glitch window narrows the onset to
/// glitchOnsetInterval; it is ignored when the spec injects no glitch.
AlignmentResult findWorstAlignment(const ClusterMacromodel& model,
                                   const AlignmentOptions& opt = {},
                                   ProbeMemo* memo = nullptr,
                                   const AlignmentWindows* windows = nullptr);

/// Exhaustive grid over the same window, clamped to [0, 0.8 tstop] like the
/// search (validation / small cases only: cost is up to
/// pointsPerAxis^(aggressors + 1) transients, fewer where the clamp merges
/// grid points).
AlignmentResult bruteForceWorstAlignment(const ClusterMacromodel& model,
                                         double window, int pointsPerAxis);

}  // namespace sna::core
