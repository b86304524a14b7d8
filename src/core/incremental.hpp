// Incremental design re-analysis: the ECO-loop fast path.
//
// Production noise signoff is thousands of near-identical runs against a
// mostly-unchanged design: a buffer is resized, one net is re-routed and
// re-extracted, and everything else is exactly the run before. A full
// analyzeDesign re-solves all N nets anyway. This module adds the delta
// path: the caller describes what changed (DesignDelta), the engine marks
// the affected cone on the retained level graph — the must-solve nets (the
// changed nets and instances themselves, and the coupling neighbors that
// see them as aggressors or share re-extracted parasitics) and their
// downstream closure — patches the retained DesignIndex in place, re-runs
// the task-graph scheduler restricted to the dirty task ids, and splices
// the retained NetNoiseReports for every clean net.
//
// One cutoff rule serves every dirty task. A task's solve is a pure
// function of its inputs (given the fingerprinted options): a victim reads
// its driver and first-load cells, its ranked aggressors' driver cells, the
// cluster RC, its incoming glitches, its window gate and the net's other
// drivers; a pass-through net its driver and first-load cells, its incoming
// glitches and its gate. The task builds those inputs once and serializes
// them bitwise into a key. Each task id keeps the retained solve its slots
// hold, with its key, and the last three solves those slots replaced, most
// recent first (AnalysisSnapshot::TaskMemo). When every dirty fanin
// finished ok in this run, the key picks one of three ways:
//   * keep — it equals the retained key: the task keeps its retained front
//     and reports without a solve. So the re-solve stops where the noise
//     converges, and a must-solve coupling neighbour whose cluster reads
//     nothing the delta changed (an aggressor reads its net's driver, SPEF
//     section and window, never its receivers) is not solved either;
//   * restore — it equals a previous key: that front and report are
//     swapped back into the slots, without a solve, and the replaced solve
//     becomes the most recent previous one. An ECO that undoes the one
//     before it (a resize tried and reverted, a cap toggled back)
//     re-solves nothing, and neither do two such edits whose cones meet:
//     toggled in any order, they walk a shared task through four states;
//   * solve — any other key moves the retained slots and key into the
//     most recent previous entry, dropping the least recent past three,
//     then solves.
// Entries move, never copy, so a restored report shares the samples of the
// report first returned for it. A sequence through five or more states
// re-solves a state older than the three kept. A keep or restore takes
// effect after the `core.solve_net` fault point and the failure policy's
// upstream checks.
//
// Keeps and restores are decided on the calling thread. On a retained
// snapshot that is not rebuilt, it walks the dirty tasks in topological
// order before the scheduler starts: a task whose dirty fanins it already
// decided, all ok, builds its key, and a keep or restore is applied right
// there — fault point, failure policy and cancel token honoured as on the
// scheduled path. Only the tasks that must solve, and their downstream
// closure, reach the scheduler, so an update that re-solves nothing wakes
// no worker.
//
// There is one run path. A full analyzeDesign is the update that rebuilds
// the index, reselects every victim and marks every task must-solve; an
// update on a reusable snapshot patches the index and marks its delta's
// must-solve tasks. Both then run the same solve.
//
// Cost model of one incremental call. O(dirty cone):
//   * seeding — delta instances by name through the index, re-read SPEF
//     sections through patchParasitics;
//   * windows — only the forward cone of the window sources (nets on a
//     re-bound instance's pins, nets whose explicit window changed) is
//     re-propagated, stopping where a window comes out bit-identical; a
//     window never reads parasitics, so a re-extraction moves none;
//   * victim selection — only must-solve victims are re-ranked (the whole
//     list is reselected only when one gains or loses victim status), and
//     the SPEF's section count and name digest are checked against the
//     index's sections with the delta's named sections applied
//     (DesignIndex::sectionsFollow: a section the delta adds or removes
//     without naming it forces a rebuild);
//   * the solve — the calling thread decides every keep and restore it can
//     reach, and the scheduler runs the remaining dirty task ids only; the
//     retained slots are rewritten in place for those ids alone; each
//     dirty task builds its inputs and key (a victim's includes its
//     cluster RC, which a solve builds anyway), and a task kept or
//     restored costs that and at most four key comparisons (a restore, a
//     swap of its slots) instead of a solve;
//   * the workers — the snapshot keeps its pool (AnalysisSnapshot::pool),
//     so only a call that changes the thread count spawns threads, and a
//     call that solves nothing wakes none and builds no restricted graph;
//   * the returned list — the snapshot owns it (AnalysisSnapshot::reports)
//     and the outcome shares it: the run writes the entries of its
//     solved, restored, failed and quarantined tasks in place, and a clean
//     report is neither copied nor moved. Copy-on-write: when the caller
//     still holds the list the previous call returned, this call clones it
//     first (O(design), once), so a held list never changes. A quiet net
//     gaining or losing its report moves the quiet reports behind it.
// O(design), by design:
//   * the per-task records of markDirty, and the restricted task graph of
//     restrictTaskGraph when any task reaches the scheduler;
//   * on a re-extraction, patchParasitics re-sums the coupling of the
//     owners it touched over every section's coupling pairs (in the
//     constructor's order, for bit-identity); a call whose re-read
//     sections touch no owner (every resize) skips it;
//   * the explicit-window comparison (O(explicit windows)).
// A call whose snapshot is not reusable runs this path with every task
// dirty, so it costs what a full run costs, plus one key per task; a run
// without a snapshot builds no key. The retained keys cost a few hundred
// bytes per task, and each task that ever re-solved keyed slots keeps one
// superseded solve beside them: a key, a report (~300 waveform samples for
// a victim) and a surviving front.
//
// Contract: analyzeDesignIncremental returns reports bit-identical to a
// cold analyzeDesign over the same (mutated) design at any thread count.
// Whenever the snapshot cannot guarantee that — no prior run, different
// Design object, changed analysis options, a connectivity change, or a SPEF
// section added or removed without being named — the call rebuilds the
// index and runs this path with every task dirty (capturing a fresh
// snapshot), never a wrong answer.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/design_index.hpp"
#include "core/propagate.hpp"
#include "core/sna.hpp"
#include "core/timing_windows.hpp"
#include "util/thread_pool.hpp"

namespace sna::core {

/// What an ECO changed since the snapshot's run. Names the engine does not
/// recognize mark nothing dirty; with DesignNoiseOptions::lint enabled they
/// are reported as SNA-L501/L502 (errors) before the run — in strict mode a
/// typo'd delta throws instead of silently splicing stale results.
struct DesignDelta {
    /// SPEF net sections whose parasitics were re-extracted (the SpefFile
    /// passed to analyzeDesignIncremental carries the new values), added or
    /// removed. Also list here the nets of any removed instance. A section
    /// added or removed without being listed forces a rebuild.
    std::vector<std::string> nets;
    /// Instances whose cell binding changed in place (Design::replaceCell).
    /// Every net on the instance's pins is re-solved.
    std::vector<std::string> instances;
    /// Set when the netlist structure changed — instances added or removed,
    /// pins moved between nets. Forces a full index rebuild and re-run
    /// (still capturing a fresh snapshot for the next iteration).
    bool connectivityChanged = false;
};

/// One victim cluster picked by phase 1 of a run: the net, its driver and
/// first receiver, and its aggressors ranked strongest-coupled first as
/// (driver cell, aggressor net). Names and Instance pointers only — never
/// pointers into a SpefFile, which an ECO loop may replace between calls.
struct VictimSelection {
    std::string net;
    const Instance* driver = nullptr;
    const Instance* firstLoad = nullptr;
    std::vector<std::pair<std::string, std::string>> ranked;
};

/// Retained state of one analyzeDesign run, the input and output of every
/// incremental iteration. Populate it by running analyzeDesign with
/// DesignNoiseOptions::snapshot pointing here; analyzeDesignIncremental
/// both consumes and refreshes it, so an ECO loop keeps passing the same
/// object. Owns the DesignIndex; the Design stays caller-owned and must
/// outlive the snapshot (the SpefFile may be replaced between calls).
///
/// Per-net state is addressed like the run's own slots — victim reports by
/// victim slot, surviving fronts, quiet reports and windows by task id —
/// and a run writes its dirty slots in place (a full run is the case where
/// every slot is dirty). A run that is cancelled or faulted may therefore
/// leave slots half-written; it always clears `valid`.
///
/// The reports are the list the last run returned (see `reports`), so a
/// clean net's report is neither copied nor moved by an update.
struct AnalysisSnapshot {
    bool valid = false;
    const Design* design = nullptr;  ///< identity check only, not owned
    std::size_t instanceCount = 0;
    /// Scalar analysis options of the captured run; an option change
    /// invalidates the splice (clean nets would carry stale verdicts).
    std::string fingerprint;
    std::unique_ptr<DesignIndex> index;
    /// Phase 1's victim list in SPEF order; a victim's slot is its
    /// position. An incremental run re-ranks only its must-solve victims
    /// and reselects the whole list when one gains or loses victim status.
    std::vector<VictimSelection> victims;
    std::unordered_map<std::string, int> slotOf;  ///< victim net -> slot
    /// The report list the last run returned (AnalysisOutcome::reports
    /// shares it): victim slot i is entry i, and the quiet nets' reports
    /// follow in task-id order. A run writes the entries of the tasks it
    /// solved, restored, failed or quarantined in place, after cloning the
    /// list if a caller still holds it.
    std::shared_ptr<std::vector<NetNoiseReport>> reports;
    /// By task id (DesignIndex::taskGraph; the flat sweep's are empty): the
    /// entry of the net's quiet report in `reports`, -1 when it has none.
    std::vector<int> quietEntry;
    std::vector<SurvivingSet> surviving;  ///< by task id
    /// Windows mode only: the propagated window of every task id, and the
    /// explicit window set it was propagated from (a copy, compared bit for
    /// bit on the next call — the caller may edit its windows in place).
    std::vector<TimingWindow> netWindows;
    TimingWindows explicitWindows;
    /// One task's solve memo (see the header comment): the inputs key its
    /// retained slots were solved from, empty where none is known, and the
    /// last kPrevious solves those slots replaced, most recent first, none
    /// until a solve replaces keyed slots.
    struct TaskMemo {
        /// Two edits whose cones meet, each toggled, walk a task through
        /// four input states: the retained one and three replaced ones.
        static constexpr std::size_t kPrevious = 3;
        /// The superseded solve, moved out of the task's slots.
        struct Previous {
            std::string key;
            /// The victim report of a victim task; the quiet report of a
            /// pass-through net (empty when its solve produced none).
            std::optional<NetNoiseReport> report;
            SurvivingSet surviving;
        };
        std::string key;
        std::vector<Previous> previous;
    };
    /// By task id. A victim reselect and a rebuild drop every memo.
    std::vector<TaskMemo> taskMemos;
    /// Waiver-applied diagnostics of the captured run's lint pass; empty
    /// when DesignNoiseOptions::lint was off.
    std::vector<lint::Diagnostic> lint;
    /// The worker pool of the last multi-threaded call, kept for the next:
    /// a call whose resolved thread count matches runs on it, any other
    /// count replaces it (a serial call releases it). It holds no analysis
    /// state, so a rebuild, a cancelled or a faulted call keeps it. Shared,
    /// so a caller may hold on to it past a replacement.
    std::shared_ptr<util::ThreadPool> pool;
};

/// Observability counters for one incremental call. A call that rebuilds
/// counts like any other update with every task dirty.
struct IncrementalStats {
    std::size_t totalTasks = 0;  ///< graph nets (wavefront) or victims (flat)
    /// Dirty this call: the must-solve nets and their downstream closure,
    /// every task when the call rebuilt. On a completed run, callerTasks +
    /// scheduler.tasksExecuted.
    std::size_t dirtyTasks = 0;
    /// Of dirtyTasks, the tasks the calling thread decided before the
    /// scheduler started: a keep or restore whose dirty fanins were all
    /// decided there and finished ok (a fault at the task's fault point
    /// counts too). The scheduler runs the rest. 0 when the call rebuilt.
    std::size_t callerTasks = 0;
    /// Of dirtyTasks, the tasks that kept their retained slots without a
    /// solve: their inputs key equalled the retained one and every
    /// dirty fanin finished ok. Must-solve tasks count here as well as
    /// closure tasks, on the calling thread or scheduled; 0 when the call
    /// rebuilt.
    std::size_t cutoffTasks = 0;
    /// Of dirtyTasks, the tasks whose slots came back from a previous
    /// solve: their inputs key equalled the key of one of the solves their
    /// retained slots had replaced, and every dirty fanin finished ok.
    /// Counted apart from cutoffTasks; 0 when the call rebuilt.
    std::size_t restoredTasks = 0;
    /// Delta nets/pins + window/coupling diffs; 0 when the call rebuilt.
    std::size_t seedNets = 0;
    std::size_t coupledNeighbors = 0;  ///< added around the seeds
    /// Victim reports kept from the snapshot (clean, cut off or restored)
    /// and victim reports solved this call; together, the victim count.
    std::size_t reusedVictimReports = 0;
    std::size_t solvedVictimReports = 0;
    /// Reports this call copied into the list (or vector) it returned: the
    /// whole list when a caller still held the one the snapshot's last run
    /// returned, the finished reports of a cancelled run on a retained
    /// snapshot, every report for analyzeDesignIncremental's vector, and
    /// none otherwise — an update writes its changed entries in place.
    std::size_t reportsCopied = 0;
    /// Nets whose switching window was recomputed (windows mode): the
    /// window sources and whatever their moved windows reached downstream,
    /// every net when the call rebuilt.
    std::size_t windowNetsRepropagated = 0;
    /// True when the call could not splice (invalid snapshot, option or
    /// connectivity change, a SPEF section come or gone unnamed): it
    /// rebuilt the index, reselected every victim and ran every task dirty.
    bool indexRebuilt = false;
    /// The scheduled run's counters: the dirty tasks the calling thread
    /// left, none when it decided every one.
    util::SchedulerStats scheduler;
};

/// The must-solve set of `seeds` on the index: seeds, plus every coupling
/// neighbor of a seed (a changed net re-ranks and re-loads the clusters it
/// couples into; a changed driver cell changes its net's aggressor model).
/// Coupling dirtiness does NOT spread transitively: a victim reads its
/// aggressors' parasitics, drivers, and windows, never their reports, so
/// only value-changed seeds contaminate their neighbors. The propagated
/// wavefront adds the downstream closure over the scheduled fanout edges
/// at solve time, where each dirty net re-solves only if its inputs key
/// moved. Exposed for testing.
std::unordered_set<std::string> expandDirtyCone(
    const DesignIndex& index, const std::unordered_set<std::string>& seeds,
    std::size_t* coupledNeighbors = nullptr);

/// Re-analyze after `delta`, reusing everything `snapshot` retained: the
/// index is patched (parasitics re-read from `spef` for the changed
/// sections), timing windows are re-propagated over the cone of the
/// delta's window sources and diffed, the dirty cone is re-solved on the
/// task-graph scheduler restricted to its task ids, and every clean net's
/// report is spliced from the snapshot. The snapshot is refreshed in place
/// for the next iteration. Reports are bit-identical to
/// a cold analyzeDesign over the same state at any thread count; when the
/// snapshot cannot be reused the call rebuilds the index and runs every
/// task dirty, which is exactly that full run. The returned vector is a
/// copy of the snapshot's report list (O(design));
/// analyzeDesignIncrementalOutcome shares the list instead.
std::vector<NetNoiseReport> analyzeDesignIncremental(
    const Design& design, const parser::SpefFile& spef,
    const DesignDelta& delta, AnalysisSnapshot& snapshot,
    const DesignNoiseOptions& opt = {}, IncrementalStats* stats = nullptr);

/// Resilient variant of analyzeDesignIncremental: the dirty-cone run
/// inherits DesignNoiseOptions::{cancel, deadline, onNetFailure} and a
/// cancelled/timed-out run returns the partial AnalysisOutcome instead of
/// throwing. Because the retained index is patched in place before the
/// solve, an incomplete or faulted run invalidates the snapshot
/// (`snapshot.valid == false`) — the next iteration rebuilds rather than
/// splicing reports that no longer match the index. On the rebuild path
/// `lintOut` carries the delta's findings, then the design's, then the
/// post-run resilience findings; `snapshot.lint` keeps the design's.
AnalysisOutcome analyzeDesignIncrementalOutcome(
    const Design& design, const parser::SpefFile& spef,
    const DesignDelta& delta, AnalysisSnapshot& snapshot,
    const DesignNoiseOptions& opt = {}, IncrementalStats* stats = nullptr);

}  // namespace sna::core
