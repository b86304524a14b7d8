// Design-level static noise analysis.
//
// The "complete methodology" the paper leaves as future work, built on the
// macromodel: a gate-level design (cell instances + nets) with SPEF
// parasitics is swept net by net; every net with coupling capacitance
// becomes a victim cluster (driver from the design, aggressors discovered
// through the SPEF coupling caps), analyzed at its worst alignment and
// checked against the receiver's NRC.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "core/timing_windows.hpp"
#include "lint/diagnostic.hpp"
#include "parser/spef_parser.hpp"
#include "parser/waivers_parser.hpp"
#include "util/task_scheduler.hpp"

namespace sna::core {

struct AnalysisSnapshot;  // core/incremental.hpp

struct Instance {
    std::string name;
    std::string cellName;
    /// pin name -> net name.
    std::map<std::string, std::string> pinToNet;
};

class Design {
public:
    explicit Design(const cell::CellLibrary& lib) : lib_(&lib) {}

    const cell::CellLibrary& library() const { return *lib_; }

    /// Adds an instance; every pin of the cell must be connected.
    void addInstance(Instance inst);

    /// Rebind instance `instName` to `cellName` in place — the ECO "resize
    /// a driver" mutation. The new cell must be pin-compatible (identical
    /// pin names, same output and input roles) so the connectivity — and
    /// therefore a retained DesignIndex and its level graph — stays valid;
    /// throws ModelError otherwise, or when no such instance exists.
    /// Instance storage is not reallocated, so Instance pointers held by an
    /// index survive. Pass the instance in DesignDelta::instances to have
    /// analyzeDesignIncremental re-solve its cone.
    void replaceCell(const std::string& instName, const std::string& cellName);

    const std::vector<Instance>& instances() const { return instances_; }

    /// Instance driving `net` (its output pin is on the net), or nullptr.
    /// On a multiply-driven net the winner is deterministic: the instance
    /// with the lexicographically smallest name, matching DesignIndex.
    const Instance* driverOf(const std::string& net) const;

    /// (instance, input pin) pairs loading `net`.
    std::vector<std::pair<const Instance*, std::string>> loadsOf(
        const std::string& net) const;

private:
    const cell::CellLibrary* lib_;
    std::vector<Instance> instances_;
};

/// The propagated-noise component of a net's verdict (propagate=true only).
struct PropagatedNoise {
    bool present = false;  ///< an upstream glitch was injected at the driver
    std::string fromNet;   ///< upstream net it arrived from
    std::string inputPin;  ///< victim-driver input pin carrying it
    double height = 0.0;   ///< V at the driver input
    double width = 0.0;    ///< s, 50%-of-peak width
    /// Local-only verdict (upstream glitch suppressed): bit-identical to
    /// what propagate=false reports for the same cluster (with timing
    /// windows supplied it is the window-constrained local run instead).
    /// When !present these mirror `cluster` (local == combined without
    /// incoming noise).
    double localPeak = 0.0;      ///< V, |worst peak|
    double localNrcLimit = 0.0;  ///< V
    double localMargin = 0.0;    ///< V (negative = failure)
    bool localFails = false;
};

/// Timing-window outcome of a net's verdict (only filled when
/// DesignNoiseOptions::windows was supplied to the wavefront).
struct WindowNoise {
    bool constrained = false;  ///< windows were supplied and applied
    /// The net's switching window: explicit input entry, or the hull of its
    /// fanin windows propagated through the stage delays.
    TimingWindow window;
    /// Worst margin ignoring all windows — the pessimistic verdict the
    /// PR 2 wavefront reports — next to the window-constrained margin that
    /// governs `cluster`. windowedMargin - unconstrainedMargin is the
    /// pessimism the windows recovered (>= 0 up to search noise).
    double unconstrainedMargin = 0.0;
    double windowedMargin = 0.0;
    /// Aggressor nets whose switching window cannot overlap the victim's
    /// sensitivity interval: dropped from the worst-case combination.
    std::vector<std::string> excludedAggressors;
    /// Upstream nets whose surviving glitch was dropped at this net because
    /// its arrival window misses the victim's sensitivity interval.
    std::vector<std::string> droppedIncoming;
};

struct NetNoiseReport {
    /// Per-net resilience verdict (DesignNoiseOptions::onNetFailure).
    /// Anything other than `ok` means the numeric fields below must not be
    /// trusted for signoff: `failed` nets threw during their solve (the
    /// captured error is in `error`), `quarantined` nets sit downstream of
    /// a failed net and were never solved, and `degraded` nets solved but
    /// bridged an upstream failure with a pass-through front, so their
    /// margins are approximate.
    enum class Status { ok, failed, quarantined, degraded };

    std::string net;
    std::vector<std::string> aggressorNets;
    /// The governing verdict: combined propagated + coupled noise when an
    /// upstream glitch reaches this net's driver, local-only otherwise.
    /// With timing windows supplied, this is the window-constrained run.
    ClusterReport cluster;
    PropagatedNoise propagated;
    WindowNoise windows;
    /// Non-winning drivers of a multiply-driven net (the lexicographically
    /// smallest instance is analyzed); empty for singly-driven nets.
    /// Surfaced here so the conflict is visible in sign-off instead of
    /// being dropped silently.
    std::vector<std::string> otherDrivers;
    Status status = Status::ok;
    std::string error;  ///< captured what() when status == failed
};

/// What happens to a run when one net's solve throws
/// (DesignNoiseOptions::onNetFailure).
enum class NetFailurePolicy {
    /// Today's behavior, bit-identical: the first exception aborts the
    /// whole run (rethrown after the wavefront drains).
    failFast,
    /// The failing net's report is marked `failed` (error captured) and its
    /// entire downstream cone is suppressed: every net reachable over
    /// scheduled fanin edges is marked `quarantined` and never solves.
    /// Nets outside the cone are bit-identical to a clean run.
    quarantineCone,
    /// The failing net's report is marked `failed`, but instead of
    /// suppressing its cone the net degrades to a pass-through: its
    /// incoming glitches transfer downstream unattenuated (conservative).
    /// Downstream nets solve normally and are marked `degraded`.
    degradeToPassthrough,
};

struct DesignNoiseOptions {
    double tstop = 2.5e-9;
    std::size_t maxAggressors = 3;  ///< strongest-coupled first
    /// Per-cluster options (macromodel, alignment search, NRC grid).
    ReportOptions report;
    /// Worker threads for the victim-net loop; 1 (or negative) runs
    /// serially, 0 resolves to std::thread::hardware_concurrency() (see
    /// util::resolveThreadCount). Report order and numeric results are
    /// identical at any thread count.
    int threads = 1;
    /// Characterization cache shared across clusters. nullptr uses a fresh
    /// per-run cache; pass one to share across runs or to read its stats.
    charlib::CharCache* cache = nullptr;
    /// Stage-to-stage noise propagation: analyze nets in dependency order
    /// along the design graph and inject each net's surviving glitch into
    /// its fanout clusters (combined with the local coupling noise at the
    /// worst alignment). false keeps the flat single-pass sweep —
    /// bit-identical results at any thread count.
    bool propagate = false;
    /// Surviving glitches below this height are dropped instead of being
    /// propagated further, V.
    double propagateMinHeight = 1e-3;
    /// Per-net switching windows (FRAME-style temporal correlation), not
    /// owned. Wavefront mode only (`propagate == true`; ignored otherwise):
    /// windows propagate level-by-level along the design graph, aggressors
    /// and incoming glitches only collide with a victim where their windows
    /// overlap its sensitivity interval, and every report carries the
    /// unconstrained margin next to the window-constrained one. nullptr —
    /// or all-unbounded windows — reproduces the pure worst-alignment
    /// wavefront.
    const TimingWindows* windows = nullptr;
    /// When non-null, the run writes its scheduler counters here (resolved
    /// worker count, tasks executed, steals, ready-frontier high water,
    /// per-worker busy fractions), flat sweep and wavefront alike; the flat
    /// sweep's tasks are its victims.
    util::SchedulerStats* schedulerStats = nullptr;
    /// When non-null, analyzeDesign captures its retained state here (index,
    /// per-net reports, surviving fronts, propagated windows) so later ECO
    /// iterations can run analyzeDesignIncremental against it. See
    /// core/incremental.hpp.
    AnalysisSnapshot* snapshot = nullptr;
    /// Design lint (lint/lint.hpp). off skips the checker entirely; warn
    /// runs it right after the index is built and publishes the report via
    /// `lintOut` and the snapshot — every analysis value stays bit-identical
    /// to off; strict additionally throws lint::LintError before anything
    /// solves when unwaived errors remain. analyzeDesignIncremental lints
    /// the delta (SNA-L501/L502) before touching the snapshot.
    lint::Mode lint = lint::Mode::off;
    /// Waivers applied to the lint report (parser::parseWaivers); not owned.
    const std::vector<parser::Waiver>* lintWaivers = nullptr;
    /// When non-null and lint != off, receives the waiver-applied report
    /// (also filled before a strict-mode throw).
    lint::LintReport* lintOut = nullptr;
    /// Cooperative cancellation: when non-null the run polls this token at
    /// every task boundary and inside the SPICE transient loop, and
    /// unwinds cleanly once it trips. analyzeDesignOutcome returns the
    /// partial result; analyzeDesign throws util::CancelledError. Not
    /// owned; may be tripped from any thread.
    const util::CancelToken* cancel = nullptr;
    /// Wall-clock budget in seconds (steady clock, measured from the start
    /// of the solve phase); <= 0 means none. Internally arms a deadline on
    /// a run-local token chained under `cancel`, so both compose.
    double deadline = 0.0;
    /// Per-net failure quarantine; see NetFailurePolicy. The default is
    /// bit-identical to the historical all-or-nothing behavior.
    NetFailurePolicy onNetFailure = NetFailurePolicy::failFast;
};

/// Why an analyzeDesignOutcome run stopped.
enum class TerminationReason {
    completed,        ///< every scheduled task ran
    cancelled,        ///< CancelToken::cancel() observed mid-run
    deadlineExpired,  ///< the deadline tripped mid-run
};

/// An immutable report list behind a shared handle. Copies of the handle
/// share one vector, so returning, storing or passing the list never copies
/// a report. It reads like a `const std::vector<NetNoiseReport>` and binds
/// to one. A retained AnalysisSnapshot owns the vector of the list its last
/// run returned and patches it in place on the next update, but only once
/// no handle but its own is left; while a caller still holds the list, that
/// update first clones it (copy-on-write), so a held list never changes.
class ReportList {
public:
    using const_iterator = std::vector<NetNoiseReport>::const_iterator;

    ReportList() = default;
    explicit ReportList(std::shared_ptr<std::vector<NetNoiseReport>> list)
        : list_(std::move(list)) {}

    const std::vector<NetNoiseReport>& vector() const {
        static const std::vector<NetNoiseReport> kEmpty;
        return list_ != nullptr ? *list_ : kEmpty;
    }
    operator const std::vector<NetNoiseReport>&() const { return vector(); }

    const_iterator begin() const { return vector().begin(); }
    const_iterator end() const { return vector().end(); }
    std::size_t size() const { return vector().size(); }
    bool empty() const { return vector().empty(); }
    const NetNoiseReport& operator[](std::size_t i) const {
        return vector()[i];
    }
    const NetNoiseReport& front() const { return vector().front(); }
    const NetNoiseReport& back() const { return vector().back(); }

    /// The reports as a vector of their own: moved out when this is the
    /// list's only handle, copied otherwise.
    std::vector<NetNoiseReport> release() &&;

private:
    std::shared_ptr<std::vector<NetNoiseReport>> list_;
};

/// The structured result of a resilient run. On a completed run `reports`
/// is exactly what analyzeDesign returns (plus per-report status marks
/// under a non-failFast policy). On a cancelled/timed-out run it carries
/// every report whose task completed — each bitwise-identical to the same
/// net's report in an uncancelled run — and `unsolvedNets` lists the nets
/// whose tasks never ran; nothing torn is ever returned, and the retained
/// AnalysisSnapshot is only captured on full, fault-free completion.
struct AnalysisOutcome {
    /// Immutable and shared with the retained snapshot of the run, if any:
    /// holding it costs nothing until the snapshot's next update, which
    /// then copies the whole list once so that this one stays as returned.
    /// Dropped before that update, it costs the update nothing.
    ReportList reports;
    TerminationReason reason = TerminationReason::completed;
    /// Victim nets whose task did not complete before cancellation, in
    /// deterministic task order (pass-through propagation tasks are an
    /// implementation detail and are not listed). On any run,
    /// reports.size() + unsolvedNets.size() equals the victim-cluster
    /// count. Empty on a completed run.
    std::vector<std::string> unsolvedNets;
    /// Per-policy failure accounting (sorted, deduplicated): nets whose
    /// solve threw, nets suppressed downstream of one, and nets that
    /// solved across a pass-through bridge.
    std::vector<std::string> failedNets;
    std::vector<std::string> quarantinedNets;
    std::vector<std::string> degradedNets;

    bool complete() const { return reason == TerminationReason::completed; }
    bool clean() const {
        return complete() && failedNets.empty() && quarantinedNets.empty() &&
               degradedNets.empty();
    }
};

/// Analyze every SPEF net that has coupling capacitance and a driver and at
/// least one load in the design. Nets are reported in SPEF order.
///
/// The pipeline: a one-pass DesignIndex replaces the per-query instance and
/// cap scans, a CharCache runs each characterization (load curve, Thevenin,
/// NRC, propagation table) once per distinct key instead of once per
/// cluster, and one dependency-counted task graph (util::runTaskGraph)
/// solves the nets on `opt.threads` workers. The flat sweep is the graph
/// with no edges: one independent task per victim cluster. With
/// `opt.propagate` the tasks are the nets of DesignIndex's level graph,
/// and a net solves the moment its last scheduled fanin finishes, so its
/// upstream glitch is known before its own cluster solves. The victim
/// reports stay in SPEF order; they are followed by propagated-only
/// entries (empty aggressor list, NRC check against the propagated glitch)
/// for quiet uncoupled nets that noise reaches, in deterministic
/// level-then-name order.
std::vector<NetNoiseReport> analyzeDesign(const Design& design,
                                          const parser::SpefFile& spef,
                                          const DesignNoiseOptions& opt = {});

/// The resilient entry point: same pipeline as analyzeDesign, but a
/// cancelled or timed-out run returns a structured partial AnalysisOutcome
/// instead of throwing, and per-net failures are handled per
/// `opt.onNetFailure`. analyzeDesign is a thin wrapper that throws
/// util::CancelledError when the outcome is incomplete.
///
/// A full analysis runs the incremental update's path (core/incremental.hpp)
/// with a rebuilt index, every victim reselected and every task must-solve,
/// on the slots of `opt.snapshot` (a throwaway snapshot when null). The
/// snapshot is splice input only after full, fault-free completion — a
/// partial or quarantined run leaves `opt.snapshot->valid == false`.
AnalysisOutcome analyzeDesignOutcome(const Design& design,
                                     const parser::SpefFile& spef,
                                     const DesignNoiseOptions& opt = {});

}  // namespace sna::core
