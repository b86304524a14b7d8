#include "core/sna.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/design_index.hpp"
#include "core/incremental.hpp"
#include "core/propagate.hpp"
#include "lint/lint.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace sna::core {

void Design::addInstance(Instance inst) {
    const cell::Cell& c = lib_->cell(inst.cellName);
    for (const auto& pin : c.pins()) {
        if (inst.pinToNet.find(pin.name) == inst.pinToNet.end()) {
            throw ModelError("instance '" + inst.name + "': pin '" +
                             pin.name + "' is not connected");
        }
    }
    instances_.push_back(std::move(inst));
}

void Design::replaceCell(const std::string& instName,
                         const std::string& cellName) {
    for (auto& inst : instances_) {
        if (inst.name != instName) continue;
        if (inst.cellName == cellName) return;
        const cell::Cell& oldCell = lib_->cell(inst.cellName);
        const cell::Cell& newCell = lib_->cell(cellName);
        // Same output pin and the same input pins in the same order: the
        // instance's pinToNet stays valid and so does every connectivity
        // edge a retained DesignIndex derived from the old binding.
        if (oldCell.outputName() != newCell.outputName() ||
            oldCell.inputNames() != newCell.inputNames()) {
            throw ModelError("replaceCell: '" + cellName +
                             "' is not pin-compatible with '" +
                             inst.cellName + "' on instance '" + instName +
                             "'");
        }
        inst.cellName = cellName;
        return;
    }
    throw ModelError("replaceCell: no instance named '" + instName + "'");
}

const Instance* Design::driverOf(const std::string& net) const {
    // Deterministic on multiply-driven nets: the lexicographically smallest
    // instance name wins, independent of insertion order (DesignIndex makes
    // the same choice, so the indexed and brute-force paths agree).
    const Instance* best = nullptr;
    for (const auto& inst : instances_) {
        const cell::Cell& c = lib_->cell(inst.cellName);
        const auto it = inst.pinToNet.find(c.outputName());
        if (it != inst.pinToNet.end() && it->second == net &&
            (best == nullptr || inst.name < best->name)) {
            best = &inst;
        }
    }
    return best;
}

std::vector<std::pair<const Instance*, std::string>> Design::loadsOf(
    const std::string& net) const {
    std::vector<std::pair<const Instance*, std::string>> out;
    for (const auto& inst : instances_) {
        const cell::Cell& c = lib_->cell(inst.cellName);
        for (const auto& in : c.inputNames()) {
            const auto it = inst.pinToNet.find(in);
            if (it != inst.pinToNet.end() && it->second == net) {
                out.push_back({&inst, in});
            }
        }
    }
    return out;
}

std::vector<NetNoiseReport> ReportList::release() && {
    const std::shared_ptr<std::vector<NetNoiseReport>> list = std::move(list_);
    if (list == nullptr) return {};
    if (list.use_count() != 1) return *list;
    // Sole owner: the last other handle's release happened before this.
    std::atomic_thread_fence(std::memory_order_acquire);
    return std::move(*list);
}

namespace {

/// Records one cluster run's output glitch in the net's surviving front.
void recordRun(SurvivingSet& out, const ClusterReport& run) {
    SurvivingGlitch sg;
    sg.height = std::abs(run.worst.metrics.peak);
    sg.width = run.worst.metrics.width;
    mergeSurviving(out, sg);
}

/// Windows mode's view of one net's inputs (SolveRun::gateWindows): the
/// net's own window, and which incoming glitches and aggressors can collide
/// with it there.
struct WindowGate {
    TimingWindow sens;  ///< the net's own (sensitivity) window
    /// Per incoming candidate: its carrier's window misses this net, so it
    /// only enters the unconstrained verdict.
    std::vector<char> dropped;
    std::vector<TimingWindow> incomingWindows;  ///< per incoming candidate
    std::vector<TimingWindow> aggWindows;       ///< per ranked aggressor
    std::vector<std::string> excludedAggressors;  ///< empty overlaps
    /// False when every window involved is unbounded and nothing was
    /// dropped: the constrained run would equal the unconstrained one, so
    /// a single solve serves both margins.
    bool constraining = false;
};

/// Scalar analysis options that change per-net results, encoded bitwise. A
/// snapshot whose fingerprint differs cannot splice: a clean net's retained
/// report was computed under different knobs. Thread count and the lint
/// mode are deliberately absent — they never change a value. So are
/// cancel/deadline/onNetFailure: a snapshot is only ever captured from a
/// complete, fault-free run, and such runs are bit-identical across all
/// failure policies.
std::string fingerprintOf(const DesignNoiseOptions& opt) {
    std::ostringstream os;
    const auto put = [&os](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        os << std::hex << bits << std::dec << '/';
    };
    put(opt.tstop);
    os << opt.maxAggressors << '/' << opt.propagate << '/';
    put(opt.propagateMinHeight);
    os << (opt.windows != nullptr) << '/' << opt.report.searchAlignment
       << '/' << opt.report.macromodel.usePrima << '/'
       << opt.report.macromodel.primaBlocks << '/'
       << opt.report.macromodel.loadCurveGrid << '/';
    put(opt.report.alignment.window);
    os << opt.report.alignment.coarsePoints << '/'
       << opt.report.alignment.rounds << '/';
    put(opt.report.nrc.widthMin);
    put(opt.report.nrc.widthLimit);
    put(opt.report.nrc.growth);
    os << static_cast<int>(opt.report.nrc.interp);
    return os.str();
}

/// Sorts `v` and drops duplicates: the deterministic order of every name
/// list a report or an outcome carries.
void sortUnique(std::vector<std::string>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// The report a net gets when its solve never produced one: enough to keep
/// the report list shape (one entry per victim, SPEF order) while making
/// the missing numbers impossible to mistake for a verdict.
NetNoiseReport failureStub(const std::string& net,
                           NetNoiseReport::Status status,
                           const char* what = nullptr) {
    NetNoiseReport r;
    r.net = net;
    r.status = status;
    if (what != nullptr) r.error = what;
    return r;
}

/// Phase 1 for one SPEF net: the victim cluster it heads — coupling, a
/// driver, a load, and at least one coupled SPEF net with a driver — with
/// its aggressors ranked by summed coupling cap (ties on the net name, for
/// determinism) and cut at `maxAggressors`; nullopt when it heads none.
std::optional<VictimSelection> selectVictim(const DesignIndex& index,
                                            const parser::SpefFile& spef,
                                            const std::string& netName,
                                            std::size_t maxAggressors) {
    const auto& coupling = index.couplingOf(netName);
    if (coupling.empty()) return std::nullopt;
    const Instance* driver = index.driverOf(netName);
    if (driver == nullptr) return std::nullopt;
    const auto& loads = index.loadsOf(netName);
    if (loads.empty()) return std::nullopt;

    std::vector<std::pair<double, std::string>> ranked;
    for (const auto& [agg, cc] : coupling) {
        if (spef.nets().find(agg) == spef.nets().end()) continue;
        if (index.driverOf(agg) == nullptr) continue;
        ranked.push_back({cc, agg});
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    if (ranked.size() > maxAggressors) ranked.resize(maxAggressors);
    if (ranked.empty()) return std::nullopt;

    VictimSelection v;
    v.net = netName;
    v.driver = driver;
    v.firstLoad = loads.front().first;
    for (const auto& [cc, agg] : ranked) {
        v.ranked.push_back({index.driverOf(agg)->cellName, agg});
    }
    return v;
}

/// Phase 1: re-rank the must-solve victims in place (any other victim's
/// coupling, aggressor drivers and SPEF membership are all unchanged, so
/// its retained selection is current). When a must-solve net gains or
/// loses victim status — or `reselect` — the whole list is selected again
/// in SPEF order and every retained report follows its net to the new
/// slot, the quiet reports following the new victim entries in their
/// order; a rebuild reselects on an emptied snapshot. The snapshot must be
/// the only holder of its report list. Returns the victim slots left
/// without a retained report.
std::vector<int> refreshVictims(
    AnalysisSnapshot& state, const DesignIndex& index,
    const parser::SpefFile& spef, std::size_t maxAggressors,
    const std::unordered_set<std::string>& mustSolve, bool reselect) {
    for (const std::string& net : mustSolve) {
        if (reselect) break;
        std::optional<VictimSelection> v;
        if (spef.nets().count(net) != 0) {
            v = selectVictim(index, spef, net, maxAggressors);
        }
        const auto it = state.slotOf.find(net);
        if ((it != state.slotOf.end()) != v.has_value()) {
            reselect = true;
        } else if (v) {
            state.victims[static_cast<std::size_t>(it->second)] =
                std::move(*v);
        }
    }
    if (!reselect) return {};
    // A flat task id is its victim slot, so a memo could outlive its net's
    // move to another slot; no memo survives a reselect.
    state.taskMemos.clear();
    const std::unordered_map<std::string, int> oldSlot =
        std::move(state.slotOf);
    const std::size_t oldVictims = state.victims.size();
    const std::shared_ptr<std::vector<NetNoiseReport>> old =
        std::move(state.reports);
    state.victims.clear();
    state.slotOf.clear();
    for (const auto& [netName, spefNet] : spef.nets()) {
        if (!index.couplingOf(netName).empty() &&
            index.driverOf(netName) == nullptr) {
            log::warn() << "SPEF net '" << netName
                        << "' has coupling but no driver in the design";
            continue;
        }
        std::optional<VictimSelection> v =
            selectVictim(index, spef, netName, maxAggressors);
        if (!v) continue;
        state.slotOf.emplace(netName, static_cast<int>(state.victims.size()));
        state.victims.push_back(std::move(*v));
    }
    const std::size_t victims = state.victims.size();
    state.reports = std::make_shared<std::vector<NetNoiseReport>>(victims);
    std::vector<NetNoiseReport>& list = *state.reports;
    std::vector<int> unrecorded;
    for (std::size_t i = 0; i < victims; ++i) {
        const auto it = oldSlot.find(state.victims[i].net);
        if (it == oldSlot.end()) {
            unrecorded.push_back(static_cast<int>(i));
            continue;
        }
        list[i] = std::move((*old)[static_cast<std::size_t>(it->second)]);
    }
    if (old != nullptr) {
        list.insert(list.end(),
                    std::make_move_iterator(old->begin() +
                                            static_cast<std::ptrdiff_t>(
                                                oldVictims)),
                    std::make_move_iterator(old->end()));
    }
    const int shift = static_cast<int>(victims) - static_cast<int>(oldVictims);
    for (int& e : state.quietEntry) {
        if (e >= 0) e += shift;
    }
    return unrecorded;
}

/// The flat sweep's task graph: one task per victim slot in SPEF order and
/// no edges (task id == victim slot), so every cluster solves on its own.
/// Built from the victim list alone; the index's level graph stays lazy.
NetTaskGraph flatTaskGraph(const AnalysisSnapshot& state) {
    const std::size_t n = state.victims.size();
    NetTaskGraph g;
    g.nets.reserve(n);
    for (const VictimSelection& v : state.victims) g.nets.push_back(v.net);
    g.idOf = state.slotOf;
    g.faninIds.assign(n, {});
    g.graph.fanout.assign(n, {});
    g.graph.faninCount.assign(n, 0);
    return g;
}

/// What a prepare step hands the solve: the tasks whose own inputs may have
/// changed. A rebuild marks every task. An update names its must-solve nets
/// (seeds and their coupling neighbours) and the victim slots left without
/// a retained report. The solve adds the downstream closure itself.
struct DirtyInputs {
    bool everyTask = false;
    std::unordered_set<std::string> mustSolve;
    std::vector<int> unrecordedSlots;
};

/// One task's state in one run. Set before the scheduler starts (by the
/// marking and the calling thread's decisions), then written only by the
/// task itself and read by its fanouts once their dependency count reached
/// zero, so no completion order can race.
struct TaskRecord {
    /// A dirty task is must-solve, or downstream of one. It becomes reused
    /// when its inputs' key matched the retained one and it kept its
    /// retained slots, restored when the key matched its previous solve's
    /// and that solve came back. A clean task is not run.
    enum class Role : char { clean, dirty, reused, restored };
    /// The failure policy's verdict on the task.
    enum class State : char { ok, failed, quarantined, degraded };
    Role role = Role::clean;
    State state = State::ok;
    /// Ran to a decision (solved, reused, restored, stubbed or
    /// quarantined), or is clean; still false after the run where
    /// cancellation skipped it. A dirty task not yet done when the
    /// scheduler starts is scheduled.
    bool done = true;
    /// A dirty task's entry in SolveRun::quiet; -1 for a clean task.
    int quiet = -1;
};

/// Everything one task's solve reads besides the run's options (which the
/// snapshot fingerprint pins): the solve is a pure function of it. A
/// victim reads its selection's cells and ranked aggressors, the cluster
/// RC, its incoming glitches, its window gate and the net's other
/// drivers; a pass-through net reads its driver and first-load cells, its
/// incoming glitches and its gate.
struct TaskInputs {
    const Instance* driver = nullptr;     ///< null: an undriven net
    const Instance* firstLoad = nullptr;  ///< null: a net without a load
    /// Victims only (null/empty for a pass-through net).
    const std::vector<std::pair<std::string, std::string>>* ranked = nullptr;
    ic::RcNetwork rc;
    const std::vector<std::string>* otherDrivers = nullptr;
    std::vector<IncomingGlitch> incoming;
    WindowGate gate;  ///< default (nothing gated) without windows
};

/// `in` serialized field by field into a key: a double as its bit pattern,
/// an index as 4 bytes, a name or a list behind its length, so equal keys
/// mean bitwise-equal inputs and no padding byte enters. Nothing specific
/// to one run (a slot, a pointer) is written. The RC's node names are left
/// out — a node is its index to every solve — but its wire names, the
/// cluster's net names, are not. A gate's excluded aggressors and its
/// `constraining` flag follow from its windows and the ranked names, so
/// they are left out too.
std::string taskKey(const TaskInputs& in) {
    std::string key;
    const auto raw = [&key](auto v) {
        char b[sizeof v];
        std::memcpy(b, &v, sizeof v);
        key.append(b, sizeof v);
    };
    const auto count = [&raw](std::size_t n) {
        raw(static_cast<std::uint32_t>(n));
    };
    const auto text = [&](const std::string& s) {
        count(s.size());
        key += s;
    };
    const auto cell = [&](const Instance* inst) {
        raw(static_cast<char>(inst != nullptr));
        if (inst != nullptr) text(inst->cellName);
    };
    const auto window = [&raw](const TimingWindow& w) {
        raw(w.earliest);
        raw(w.latest);
    };
    cell(in.driver);
    cell(in.firstLoad);
    raw(static_cast<char>(in.ranked != nullptr));
    if (in.ranked != nullptr) {
        count(in.ranked->size());
        for (const auto& [drvCell, agg] : *in.ranked) {
            text(drvCell);
            text(agg);
        }
        count(static_cast<std::size_t>(in.rc.nodeCount()));
        count(in.rc.resistors().size());
        for (const ic::RcNetwork::Res& r : in.rc.resistors()) {
            raw(static_cast<std::int32_t>(r.a));
            raw(static_cast<std::int32_t>(r.b));
            raw(r.ohms);
        }
        count(in.rc.caps().size());
        for (const ic::RcNetwork::Cap& c : in.rc.caps()) {
            raw(static_cast<std::int32_t>(c.a));
            raw(static_cast<std::int32_t>(c.b));
            raw(c.farads);
        }
        count(static_cast<std::size_t>(in.rc.wireCount()));
        for (int w = 0; w < in.rc.wireCount(); ++w) {
            text(in.rc.wireName(w));
            raw(static_cast<std::int32_t>(in.rc.driverNode(w)));
            raw(static_cast<std::int32_t>(in.rc.receiverNode(w)));
        }
        count(in.otherDrivers->size());
        for (const std::string& d : *in.otherDrivers) text(d);
    }
    count(in.incoming.size());
    for (const IncomingGlitch& g : in.incoming) {
        raw(g.height);
        raw(g.width);
        text(g.fromNet);
        text(g.inputPin);
    }
    window(in.gate.sens);
    count(in.gate.dropped.size());
    for (const char d : in.gate.dropped) raw(d);
    count(in.gate.incomingWindows.size());
    for (const TimingWindow& w : in.gate.incomingWindows) window(w);
    count(in.gate.aggWindows.size());
    for (const TimingWindow& w : in.gate.aggWindows) window(w);
    return key;
}

/// One victim's solve: the local-only verdict (exactly what the flat sweep
/// computes), then one combined run per incoming candidate (the Pareto
/// front is incomparable until solved), each at both holding levels on one
/// macromodel per level. The worst margin over {local, each combined
/// candidate} governs: a destructively aligned injection must not mask a
/// local failure. Every run's output glitch joins `produced`: a
/// non-governing candidate or level can still leave the wider (or taller)
/// glitch on the net, and downstream stages must see it.
///
/// `windowed` marks a run with timing windows. With a constraining gate the
/// runs are window-constrained (they govern the verdict and feed the
/// front), the same models give the unconstrained margin over every
/// candidate, and a window-dropped candidate enters only that margin.
/// Without one the constrained run would be the unconstrained run, so one
/// solve reports the margin as both.
NetNoiseReport solveVictim(const cell::CellLibrary& lib,
                           const std::string& net, TaskInputs& in,
                           double tstop, const ReportOptions& ropt,
                           bool windowed, SurvivingSet& produced) {
    const std::vector<IncomingGlitch>& incoming = in.incoming;
    WindowGate& gate = in.gate;
    NetNoiseReport r;
    r.net = net;
    for (const auto& [drvCell, agg] : *in.ranked) {
        r.aggressorNets.push_back(agg);
    }
    // Every candidate shares the aggressor windows; only the glitch window
    // is the candidate's own.
    AlignmentWindows windows;
    if (gate.constraining) windows.aggressors = gate.aggWindows;
    double& uncMargin = r.windows.unconstrainedMargin;
    // Candidate 0 is the local-only run; candidate i + 1 injects incoming[i].
    for (std::size_t c = 0; c <= incoming.size(); ++c) {
        const IncomingGlitch* glitch = c > 0 ? &incoming[c - 1] : nullptr;
        const bool dropped = glitch != nullptr && gate.constraining &&
                             gate.dropped[c - 1] != 0;
        const bool gated = gate.constraining && !dropped;
        if (gated) {
            windows.glitch = glitch != nullptr ? gate.incomingWindows[c - 1]
                                               : TimingWindow::unbounded();
        }
        ClusterReport worst;
        double worstUnc = 0.0;
        bool first = true;
        for (const bool level : {false, true}) {
            ClusterSpec spec;
            spec.technology = &lib.technology();
            spec.customNet = &in.rc;
            spec.tstop = tstop;
            spec.victim.driverCell = in.driver->cellName;
            spec.victim.outputLevel = level;
            spec.victim.glitchInput =
                lib.cell(in.driver->cellName).inputNames().front();
            spec.victim.receiverCell = in.firstLoad->cellName;
            if (glitch != nullptr) {
                spec.victim.glitchInput = glitch->inputPin;
                spec.victim.glitchHeight = glitch->height;
                // Stored as 50% width; the triangle injection takes the base.
                spec.victim.glitchWidth = 2.0 * glitch->width;
                spec.tstop = glitchHorizon(spec.tstop, spec.victim.glitchWidth);
            }
            for (const auto& [drvCell, agg] : *in.ranked) {
                AggressorSpec as;
                as.driverCell = drvCell;
                // The damaging direction: aggressors switch away from the
                // victim's held level.
                as.outputRising = !level;
                spec.aggressors.push_back(as);
            }
            const ClusterMacromodel model(spec, ropt.macromodel);
            ClusterReport unc;
            ClusterReport run =
                analyzeCluster(model, ropt, gated ? &windows : nullptr,
                               gated ? &unc : nullptr);
            // A dropped candidate cannot reach the net inside its window:
            // it leaves no glitch there.
            if (!dropped) recordRun(produced, run);
            if (gated && (first || unc.margin < worstUnc)) {
                worstUnc = unc.margin;
            }
            if (first || run.margin < worst.margin) worst = std::move(run);
            first = false;
        }
        if (dropped) {
            uncMargin = std::min(uncMargin, worst.margin);
            continue;
        }
        if (glitch == nullptr) {
            r.cluster = std::move(worst);
            r.propagated.localPeak = std::abs(r.cluster.worst.metrics.peak);
            r.propagated.localNrcLimit = r.cluster.nrcLimit;
            r.propagated.localMargin = r.cluster.margin;
            r.propagated.localFails = r.cluster.fails;
            if (gated) uncMargin = worstUnc;
            continue;
        }
        // Record the primary (tallest) injected candidate even when the
        // local-only run ends up governing: `present` reports that an
        // upstream glitch reached this driver, not which run won.
        const bool governs = worst.margin < r.cluster.margin;
        if (!r.propagated.present || governs) {
            r.propagated.present = true;
            r.propagated.fromNet = glitch->fromNet;
            r.propagated.inputPin = glitch->inputPin;
            r.propagated.height = glitch->height;
            r.propagated.width = glitch->width;
        }
        if (gated) uncMargin = std::min(uncMargin, worstUnc);
        if (governs) r.cluster = std::move(worst);
    }
    r.otherDrivers = *in.otherDrivers;
    if (windowed) {
        r.windows.constrained = true;
        r.windows.window = gate.sens;
        r.windows.windowedMargin = r.cluster.margin;
        if (!gate.constraining) uncMargin = r.cluster.margin;
    }
    if (gate.constraining) {
        // Exclusions are recorded from two places: empty window overlaps
        // (gateWindows), and aggressors the governing run's search had to
        // hold quiet because the overlap left no feasible INPUT switch time
        // once mapped through that run's delay/slew (+inf times).
        const auto& times = r.cluster.aggressorSwitchTimes;
        const auto& ranked = *in.ranked;
        for (std::size_t a = 0; a < times.size() && a < ranked.size(); ++a) {
            if (std::isinf(times[a])) {
                gate.excludedAggressors.push_back(ranked[a].second);
            }
        }
        sortUnique(gate.excludedAggressors);
        r.windows.excludedAggressors = std::move(gate.excludedAggressors);
        std::vector<std::string> droppedFrom;
        for (std::size_t i = 0; i < incoming.size(); ++i) {
            if (gate.dropped[i] != 0) {
                droppedFrom.push_back(incoming[i].fromNet);
            }
        }
        sortUnique(droppedFrom);
        r.windows.droppedIncoming = std::move(droppedFrom);
    }
    return r;
}

/// One incoming glitch carried through a pass-through net's driver.
struct Transfer {
    SurvivingGlitch sg;
    const IncomingGlitch* from = nullptr;
};

/// A pass-through net's receiver check over a transfer set, and the
/// candidate that governs it.
struct NrcScan {
    ClusterReport cluster;
    const IncomingGlitch* governing = nullptr;
};

/// The solve shared by every run: one task per net, run by the
/// dependency-counted scheduler on the slots of `state`. The propagated
/// wavefront's tasks are the nets of the design graph, and a net solves the
/// moment its scheduled fanins finish; the flat sweep is the same graph
/// with no edges and one task per victim. Every per-net output is
/// slot-addressed — reports by victim slot (their entries in the report
/// list), surviving fronts and quiet reports by task id — and a task reads
/// nothing but its scheduled fanins' slots, so completion order cannot
/// change a single bit. Only the dirty tasks are scheduled; every clean
/// task's slots still hold the prior run's values, so a dirty task reads
/// its clean fanins exactly as it would after solving them.
struct SolveRun {
    const cell::CellLibrary& lib;
    const parser::SpefFile& spef;
    /// The run's options; `opt.cache` is never null (runAnalysis supplies a
    /// run-local cache).
    const DesignNoiseOptions& opt;
    const DesignIndex& index;
    AnalysisSnapshot& state;
    ReportOptions ropt;
    NetTaskGraph flat;  ///< the flat sweep's graph; empty when propagating
    const NetTaskGraph& tg;
    const bool useWindows;
    /// `state` is a retained snapshot: each solved task's inputs key is
    /// kept with its slots, and a dirty task whose key matches keeps them
    /// or restores its previous solve. A run on a throwaway snapshot builds
    /// no key. Both return the snapshot's report list itself (a cancelled
    /// run a list of its own: copied from a retained snapshot, moved from a
    /// throwaway one).
    const bool retain;
    std::vector<TaskRecord> tasks;
    /// The quiet report slot of every dirty task (TaskRecord::quiet), moved
    /// out of the report list while the run may replace, drop or add it,
    /// and the task id of each; publishQuiet moves them back.
    std::vector<std::optional<NetNoiseReport>> quiet;
    std::vector<std::size_t> quietIds;
    /// Run-local cancellation: the caller's token (if any) chains under a
    /// token that also carries the run's deadline, so both compose. With
    /// neither set `cancel` stays null and every solve path is exactly the
    /// historical zero-overhead one.
    util::CancelToken runToken;
    const util::CancelToken* cancel = nullptr;

    SolveRun(const Design& design, const parser::SpefFile& spefFile,
             const DesignNoiseOptions& options, AnalysisSnapshot& snapshot,
             bool retainSlots)
        : lib(design.library()),
          spef(spefFile),
          opt(options),
          index(*snapshot.index),
          state(snapshot),
          ropt(options.report),
          flat(options.propagate ? NetTaskGraph{} : flatTaskGraph(snapshot)),
          tg(options.propagate ? index.taskGraph() : flat),
          useWindows(options.propagate && options.windows != nullptr),
          retain(retainSlots),
          runToken(options.cancel) {
        if (ropt.macromodel.cache == nullptr) ropt.macromodel.cache = opt.cache;
        if (opt.cancel != nullptr || opt.deadline > 0.0) {
            runToken.setDeadlineAfter(opt.deadline);
            cancel = &runToken;
        }
        // Nothing reads the flat sweep's fronts (no task has a fanin) and it
        // has no quiet nets, so its slots are simply reset: a reselected
        // victim list may change its task count.
        if (!opt.propagate) {
            state.surviving.clear();
            state.quietEntry.clear();
        }
        state.surviving.resize(tg.nets.size());
        state.quietEntry.resize(tg.nets.size(), -1);
        if (retain) state.taskMemos.resize(tg.nets.size());
    }

    /// The victim slot of `net`, or -1 for a pass-through net.
    int victimSlot(const std::string& net) const {
        const auto it = state.slotOf.find(net);
        return it != state.slotOf.end() ? it->second : -1;
    }

    /// Victim slot `slot`'s report: its entry in the report list.
    NetNoiseReport& victimReport(int slot) {
        return (*state.reports)[static_cast<std::size_t>(slot)];
    }

    /// Dirty task `id`'s quiet report slot.
    std::optional<NetNoiseReport>& quietReport(std::size_t id) {
        return quiet[static_cast<std::size_t>(tasks[id].quiet)];
    }

    TimingWindow windowAt(const std::string& net) const {
        const auto it = tg.idOf.find(net);
        return it != tg.idOf.end()
                   ? state.netWindows[static_cast<std::size_t>(it->second)]
                   : TimingWindow::unbounded();
    }

    /// Marks task `id` dirty and moves its quiet report, if any, out of the
    /// report list into its slot for the run.
    void markTask(std::size_t id) {
        TaskRecord& t = tasks[id];
        t.role = TaskRecord::Role::dirty;
        t.done = false;
        t.quiet = static_cast<int>(quiet.size());
        std::optional<NetNoiseReport>& q = quiet.emplace_back();
        quietIds.push_back(id);
        const int e = state.quietEntry[id];
        if (e >= 0) {
            q = std::move((*state.reports)[static_cast<std::size_t>(e)]);
        }
    }

    /// Marks the must-solve tasks dirty, then their downstream closure over
    /// the scheduled fanout edges (the flat sweep has none) — exactly the
    /// edges over which a solve can observe an upstream front. Returns the
    /// number of dirty tasks.
    std::size_t markDirty(const DirtyInputs& dirty) {
        tasks.assign(tg.nets.size(), TaskRecord{});
        if (dirty.everyTask) {
            quiet.reserve(tasks.size());
            for (std::size_t id = 0; id < tasks.size(); ++id) markTask(id);
            return tasks.size();  // nothing is left to close over
        }
        std::vector<int> stack;
        const auto mark = [&](int id) {
            if (tasks[static_cast<std::size_t>(id)].role !=
                TaskRecord::Role::clean) {
                return;
            }
            markTask(static_cast<std::size_t>(id));
            stack.push_back(id);
        };
        const auto markNet = [&](const std::string& net) {
            const auto it = tg.idOf.find(net);
            if (it != tg.idOf.end()) mark(it->second);
        };
        for (const std::string& net : dirty.mustSolve) markNet(net);
        // The update's cone marking re-solves any victim the snapshot never
        // recorded; this loop is a no-op, but a wrong mask must degrade to
        // extra work, never to an empty report slot.
        for (const int i : dirty.unrecordedSlots) {
            markNet(state.victims[static_cast<std::size_t>(i)].net);
        }
        while (!stack.empty()) {
            const int t = stack.back();
            stack.pop_back();
            for (const int d : tg.graph.fanout[static_cast<std::size_t>(t)]) {
                mark(d);
            }
        }
        return quiet.size();
    }

    /// The glitches reaching task `id`'s driver. Surviving fronts are
    /// visible over scheduled fanin edges only: a cycle-broken fanin sits
    /// at the same or a later level and may still be in flight, so its slot
    /// is never read. The flat sweep injects nothing.
    std::vector<IncomingGlitch> incomingOf(int id) const {
        if (!opt.propagate) return {};
        const std::vector<int>& faninIds =
            tg.faninIds[static_cast<std::size_t>(id)];
        const auto survivingOf =
            [&](const std::string& from) -> const SurvivingSet* {
            const auto it = tg.idOf.find(from);
            if (it == tg.idOf.end() ||
                !std::binary_search(faninIds.begin(), faninIds.end(),
                                    it->second)) {
                return nullptr;
            }
            const SurvivingSet& s =
                state.surviving[static_cast<std::size_t>(it->second)];
            return s.empty() ? nullptr : &s;
        };
        return selectIncoming(index, tg.nets[static_cast<std::size_t>(id)],
                              survivingOf);
    }

    /// Windows mode (FRAME-style temporal correlation): which incoming
    /// glitches and aggressors can collide with `net` inside its window.
    WindowGate gateWindows(const std::string& net, int slot,
                           const std::vector<IncomingGlitch>& incoming) const {
        WindowGate gate;
        gate.sens = windowAt(net);
        for (const IncomingGlitch& in : incoming) {
            // The incoming glitch can only collide with this net where its
            // carrier's window overlaps the victim's sensitivity interval —
            // and, for victim clusters, only if that overlap leaves a
            // feasible onset inside the horizon the cluster runs to.
            const TimingWindow ov = windowAt(in.fromNet).intersect(gate.sens);
            bool drop = ov.empty();
            if (!drop && slot >= 0 && ov.bounded()) {
                const double base = 2.0 * in.width;
                drop = glitchOnsetInterval(ov, base,
                                           glitchHorizon(opt.tstop, base))
                           .empty();
            }
            gate.dropped.push_back(drop ? 1 : 0);
            gate.incomingWindows.push_back(ov);
            if (drop || ov.bounded()) gate.constraining = true;
        }
        if (slot >= 0) {
            const auto& ranked =
                state.victims[static_cast<std::size_t>(slot)].ranked;
            for (const auto& [drvCell, agg] : ranked) {
                const TimingWindow ov = windowAt(agg).intersect(gate.sens);
                gate.aggWindows.push_back(ov);
                if (ov.bounded() || ov.empty()) gate.constraining = true;
                if (ov.empty()) gate.excludedAggressors.push_back(agg);
            }
        }
        return gate;
    }

    /// Everything task `id`'s solve reads, built once (see TaskInputs).
    TaskInputs inputsOf(int id, int slot) const {
        const std::string& net = tg.nets[static_cast<std::size_t>(id)];
        TaskInputs in;
        in.incoming = incomingOf(id);
        if (slot >= 0) {
            const VictimSelection& w =
                state.victims[static_cast<std::size_t>(slot)];
            in.driver = w.driver;
            in.firstLoad = w.firstLoad;
            in.ranked = &w.ranked;
            std::vector<std::string> clusterNets{w.net};
            for (const auto& [drvCell, agg] : w.ranked) {
                clusterNets.push_back(agg);
            }
            in.rc = ic::rcFromSpef(spef, clusterNets);
            in.otherDrivers = &index.extraDriversOf(w.net);
        } else {
            in.driver = index.driverOf(net);
            const auto& loads = index.loadsOf(net);
            if (!loads.empty()) in.firstLoad = loads.front().first;
        }
        if (useWindows) in.gate = gateWindows(net, slot, in.incoming);
        return in;
    }

    /// The worst (minimum) NRC margin over a transfer set at `receiver`,
    /// both holding levels each.
    NrcScan scanNrc(const std::vector<Transfer>& ts,
                    const std::string& receiver) const {
        NrcScan s;
        bool first = true;
        for (const Transfer& t : ts) {
            for (const bool level : {false, true}) {
                ClusterSpec spec;
                spec.technology = &lib.technology();
                spec.victim.receiverCell = receiver;
                spec.victim.outputLevel = level;
                wave::GlitchMetrics m;
                m.peak = t.sg.height;
                m.width = t.sg.width;
                const double limit = nrcLimitFor(spec, m, opt.cache, ropt.nrc);
                const double margin = limit - t.sg.height;
                if (first || margin < s.cluster.margin) {
                    s.cluster.worst.metrics = m;
                    s.cluster.nrcLimit = limit;
                    s.cluster.margin = margin;
                    s.cluster.fails = t.sg.height >= limit;
                    s.governing = t.from;
                }
                first = false;
            }
        }
        return s;
    }

    /// A quiet net that noise reaches: its driver carries every incoming
    /// candidate through the cached propagation tables into `produced`, and
    /// its receiver is checked against the NRC, so a propagated-only
    /// failure on an uncoupled net is not silently missed.
    void solvePassThrough(int id, const TaskInputs& inputs,
                          SurvivingSet& produced) {
        const std::string& net = tg.nets[static_cast<std::size_t>(id)];
        const std::vector<IncomingGlitch>& incoming = inputs.incoming;
        const WindowGate& gate = inputs.gate;
        const Instance* drv = inputs.driver;
        // Pass-through items always have fanin edges, and fanin edges are
        // only built through a net's driver.
        SNA_REQUIRE(drv != nullptr, "pass-through net without a driver");
        // Every candidate's transfer survives unless dominated: incomparable
        // outputs stay side by side in the front. Window-dropped candidates
        // (their carrier's window misses this net's sensitivity interval)
        // neither survive nor reach the receiver; they are kept aside only
        // for the unconstrained comparison margin.
        std::vector<Transfer> transfers;
        std::vector<Transfer> allTransfers;  // windows mode only
        std::vector<std::string> droppedFrom;
        for (std::size_t i = 0; i < incoming.size(); ++i) {
            const IncomingGlitch& in = incoming[i];
            const bool drop = useWindows && gate.dropped[i] != 0;
            // Every window-dropped candidate is recorded, whether or not its
            // transfer would have cleared the height filter — same
            // accounting as the victim solve.
            if (drop) droppedFrom.push_back(in.fromNet);
            Transfer t;
            t.sg = propagateThroughDriver(lib.cell(drv->cellName), in.inputPin,
                                          in, opt.cache);
            t.from = &in;
            if (t.sg.height < opt.propagateMinHeight || t.sg.width <= 0.0) {
                continue;
            }
            if (useWindows) allTransfers.push_back(t);
            if (drop) continue;
            transfers.push_back(t);
            mergeSurviving(produced, t.sg);
        }
        if (inputs.firstLoad == nullptr) return;
        if (transfers.empty() && (!useWindows || allTransfers.empty())) return;
        const std::string& receiver = inputs.firstLoad->cellName;
        NetNoiseReport pr;
        pr.net = net;
        if (!transfers.empty()) {
            NrcScan s = scanNrc(transfers, receiver);
            pr.cluster = std::move(s.cluster);
            pr.propagated.present = true;
            pr.propagated.fromNet = s.governing->fromNet;
            pr.propagated.inputPin = s.governing->inputPin;
            pr.propagated.height = s.governing->height;
            pr.propagated.width = s.governing->width;
        }
        if (useWindows) {
            // The unconstrained view over every transfer, dropped or not —
            // what the windows-less wavefront would have checked here. With
            // nothing dropped it is the scan already done.
            NrcScan unc;
            if (droppedFrom.empty()) {
                unc.cluster = pr.cluster;
            } else {
                unc = scanNrc(allTransfers, receiver);
            }
            pr.windows.constrained = true;
            pr.windows.window = gate.sens;
            pr.windows.unconstrainedMargin = unc.cluster.margin;
            if (transfers.empty()) {
                // Every candidate was window-dropped: no noise reaches the
                // receiver in-window, so the governing margin is the full
                // NRC budget of the glitch the unconstrained view would
                // have seen.
                pr.cluster.nrcLimit = unc.cluster.nrcLimit;
                pr.cluster.margin = unc.cluster.nrcLimit;
                pr.cluster.fails = false;
            }
            pr.windows.windowedMargin = pr.cluster.margin;
            sortUnique(droppedFrom);
            pr.windows.droppedIncoming = std::move(droppedFrom);
        }
        // No local (coupled) noise on a quiet net: the local-only margin is
        // the receiver's full NRC budget.
        pr.propagated.localPeak = 0.0;
        pr.propagated.localNrcLimit = pr.cluster.nrcLimit;
        pr.propagated.localMargin = pr.cluster.nrcLimit;
        pr.propagated.localFails = false;
        quietReport(static_cast<std::size_t>(id)) = std::move(pr);
    }

    /// The keep/restore rule on task `uid`'s inputs key, for a task whose
    /// dirty fanins all finished ok (see core/incremental.hpp): reused
    /// when the key equals the one its retained slots were solved from,
    /// restored when it equals the key of one of the solves they replaced
    /// (that solve's index in TaskMemo::previous goes to `entry`), dirty
    /// (the task must solve) otherwise. Reads only: runTask applies a
    /// restore.
    TaskRecord::Role memoRole(std::size_t uid, const std::string& key,
                              std::size_t& entry) const {
        const AnalysisSnapshot::TaskMemo& memo = state.taskMemos[uid];
        if (key == memo.key) return TaskRecord::Role::reused;
        for (std::size_t i = 0; i < memo.previous.size(); ++i) {
            if (key == memo.previous[i].key) {
                entry = i;
                return TaskRecord::Role::restored;
            }
        }
        return TaskRecord::Role::dirty;
    }

    /// Swaps task `uid`'s retained slots and key with the solve in `prev`.
    /// Swapped, never copied, so a restored report shares the samples of
    /// the report first returned for it.
    void swapSlots(std::size_t uid, int slot,
                   AnalysisSnapshot::TaskMemo::Previous& prev) {
        std::swap(state.taskMemos[uid].key, prev.key);
        std::swap(state.surviving[uid], prev.surviving);
        if (slot < 0) {
            quietReport(uid).swap(prev.report);
        } else {
            if (!prev.report) prev.report.emplace();  // a new entry
            std::swap(victimReport(slot), *prev.report);
        }
    }

    /// A restore: previous solve `entry` comes back into task `uid`'s
    /// slots, and the solve it replaces becomes the most recent previous
    /// one.
    void restorePrevious(std::size_t uid, int slot, std::size_t entry) {
        auto& previous = state.taskMemos[uid].previous;
        const auto it = previous.begin() + static_cast<std::ptrdiff_t>(entry);
        swapSlots(uid, slot, *it);
        std::rotate(previous.begin(), it, it + 1);
    }

    /// A superseding solve: the retained slots and key become the most
    /// recent previous solve, and the least recent one past
    /// TaskMemo::kPrevious is dropped (its contents land in the slots the
    /// solve then clears).
    void retireRetained(std::size_t uid, int slot) {
        auto& previous = state.taskMemos[uid].previous;
        if (previous.size() < AnalysisSnapshot::TaskMemo::kPrevious) {
            previous.emplace_back();
        }
        std::rotate(previous.begin(), previous.end() - 1, previous.end());
        swapSlots(uid, slot, previous.front());
    }

    /// Task `id`'s solve from its inputs, built once. When the run retains
    /// its slots and every scheduled fanin finished ok (`faninsOk`), a keep
    /// or restore (memoRole, setting `entry`) answers without a solve;
    /// runTask swaps a restored solve back into the slots. Otherwise the
    /// retained slots and key become the task's most recent previous solve
    /// (retireRetained), and the task solves as a
    /// victim cluster or a pass-through net into cleared slots, publishes
    /// its surviving front and retains its new key (dirty). A quiet non-victim net, or a leaf with neither downstream
    /// nets nor a receiver to check, has nothing to do (a loaded net with
    /// no fanout still needs the NRC check).
    TaskRecord::Role solveNet(int id, int slot, bool faninsOk,
                              std::size_t& entry) {
        const auto uid = static_cast<std::size_t>(id);
        TaskInputs in = inputsOf(id, slot);
        std::string key;
        if (retain) {
            key = taskKey(in);
            const TaskRecord::Role role =
                faninsOk ? memoRole(uid, key, entry) : TaskRecord::Role::dirty;
            if (role != TaskRecord::Role::dirty) return role;
            // Slots that no key describes (a capture run's, a reselect's)
            // are nothing to restore, so they get no previous entry.
            if (!state.taskMemos[uid].key.empty()) retireRetained(uid, slot);
        }
        state.surviving[uid].clear();
        quietReport(uid).reset();
        SurvivingSet produced;
        if (slot >= 0) {
            victimReport(slot) = solveVictim(
                lib, tg.nets[uid], in, opt.tstop, ropt, useWindows, produced);
        } else if (!in.incoming.empty() &&
                   (in.firstLoad != nullptr ||
                    !index.fanoutOf(tg.nets[uid]).empty())) {
            solvePassThrough(id, in, produced);
        }
        // Publish the front into its slot: the height filter runs here so
        // downstream tasks only ever see the final value, after their
        // dependency count reaches zero.
        SurvivingSet kept;
        for (const SurvivingGlitch& sg : produced) {
            if (sg.height >= opt.propagateMinHeight && sg.width > 0.0) {
                kept.push_back(sg);
            }
        }
        state.surviving[uid] = std::move(kept);
        // Copied, not moved: the appended-to string may hold up to twice
        // the key's size.
        if (retain) state.taskMemos[uid].key = key;
        return TaskRecord::Role::dirty;
    }

    /// One task under the failure-quarantine policy: the task the scheduler
    /// runs, and, with `decided` a keep or restore (of previous solve
    /// `entry`), a task the calling thread decided from its key
    /// (decideOnCaller). The fault point and
    /// the policy's upstream checks come before any keep or restore takes
    /// effect, so neither a retained nor a previous key ever hides an
    /// injected fault or a failed cone. Under failFast no fanin is ever
    /// failed, quarantined or degraded, and a throwing solve is rethrown
    /// before any state is written, so exceptions propagate through the
    /// scheduler untouched. A flat task has no fanins, so quarantineCone
    /// and degradeToPassthrough both reduce to "capture the failure and go
    /// on". A task that fails or is quarantined leaves slots that no key
    /// describes; such a run never leaves the snapshot splice input.
    void runTask(int id, TaskRecord::Role decided = TaskRecord::Role::dirty,
                 std::size_t entry = 0) {
        const auto uid = static_cast<std::size_t>(id);
        const std::string& net = tg.nets[uid];
        const int slot = victimSlot(net);
        TaskRecord& task = tasks[uid];
        const NetFailurePolicy policy = opt.onNetFailure;
        // Cone state over the scheduled fanin edges. Each fanin's state was
        // committed before this task's dependency count reached zero.
        bool upstreamFault = false;
        bool upstreamDegraded = false;
        for (const int f : tg.faninIds[uid]) {
            const TaskRecord::State s =
                tasks[static_cast<std::size_t>(f)].state;
            if (s == TaskRecord::State::failed ||
                s == TaskRecord::State::quarantined) {
                upstreamFault = true;
            } else if (s == TaskRecord::State::degraded) {
                upstreamDegraded = true;
            }
        }
        if (policy == NetFailurePolicy::quarantineCone && upstreamFault) {
            // Suppressed, not solved: empty surviving front (nothing
            // propagates out of the cone), stub report for victims.
            task.state = TaskRecord::State::quarantined;
            state.surviving[uid].clear();
            quietReport(uid).reset();
            if (slot >= 0) {
                victimReport(slot) =
                    failureStub(net, NetNoiseReport::Status::quarantined);
            }
            task.done = true;
            return;
        }
        try {
            SNA_FAULT_POINT("core.solve_net", net);
            const bool faninsOk = !upstreamFault && !upstreamDegraded;
            task.role = decided != TaskRecord::Role::dirty
                            ? decided
                            : solveNet(id, slot, faninsOk, entry);
            if (task.role == TaskRecord::Role::restored) {
                restorePrevious(uid, slot, entry);
            }
            if (!faninsOk) {
                // degradeToPassthrough: solved across a bridged failure —
                // margins are real numbers but built on approximate inputs.
                task.state = TaskRecord::State::degraded;
                if (slot >= 0) {
                    victimReport(slot).status =
                        NetNoiseReport::Status::degraded;
                }
                std::optional<NetNoiseReport>& q = quietReport(uid);
                if (q.has_value()) q->status = NetNoiseReport::Status::degraded;
            }
        } catch (const util::CancelledError&) {
            throw;  // cancellation is never a per-net failure
        } catch (const std::exception& e) {
            if (policy == NetFailurePolicy::failFast) throw;
            task.state = TaskRecord::State::failed;
            if (slot >= 0) {
                victimReport(slot) =
                    failureStub(net, NetNoiseReport::Status::failed, e.what());
            }
            quietReport(uid).reset();
            SurvivingSet pass;
            if (policy == NetFailurePolicy::degradeToPassthrough) {
                // Bridge the failed stage conservatively: its incoming
                // glitches transfer downstream unattenuated.
                for (const IncomingGlitch& in : incomingOf(id)) {
                    SurvivingGlitch sg;
                    sg.height = in.height;
                    sg.width = in.width;
                    if (sg.height >= opt.propagateMinHeight &&
                        sg.width > 0.0) {
                        mergeSurviving(pass, sg);
                    }
                }
            }
            state.surviving[uid] = std::move(pass);
        }
        task.done = true;
    }

    /// Moves the dirty tasks' quiet reports back into the report list: in
    /// place when each task has a report exactly where it had one before,
    /// else into a quiet tail rebuilt in task-id order (moves either way).
    void publishQuiet() {
        std::vector<NetNoiseReport>& list = *state.reports;
        bool reshaped = false;
        for (std::size_t k = 0; k < quiet.size(); ++k) {
            reshaped = reshaped || (state.quietEntry[quietIds[k]] >= 0) !=
                                       quiet[k].has_value();
        }
        if (!reshaped) {
            for (std::size_t k = 0; k < quiet.size(); ++k) {
                if (!quiet[k]) continue;
                const int e = state.quietEntry[quietIds[k]];
                list[static_cast<std::size_t>(e)] = std::move(*quiet[k]);
            }
            return;
        }
        const std::size_t victims = state.victims.size();
        std::vector<NetNoiseReport> tail;
        for (std::size_t id = 0; id < tasks.size(); ++id) {
            int& e = state.quietEntry[id];
            std::optional<NetNoiseReport>* q =
                tasks[id].quiet >= 0 ? &quietReport(id) : nullptr;
            if (q != nullptr ? !q->has_value() : e < 0) {
                e = -1;
                continue;
            }
            tail.push_back(q != nullptr
                               ? std::move(**q)
                               : std::move(list[static_cast<std::size_t>(e)]));
            e = static_cast<int>(victims + tail.size() - 1);
        }
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(victims),
                   list.end());
        list.insert(list.end(), std::make_move_iterator(tail.begin()),
                    std::make_move_iterator(tail.end()));
    }

    /// The returned report list: the snapshot's own — every victim slot in
    /// SPEF order, then the quiet nets' propagated-only reports in task-id
    /// order. A cancelled run returns a list of its own holding only the
    /// finished tasks' reports, copied from a retained snapshot (counted in
    /// `st`) and moved out of a throwaway one.
    ReportList publishReports(bool cancelled, IncrementalStats& st) {
        publishQuiet();
        if (!cancelled) return ReportList(state.reports);
        std::vector<NetNoiseReport>& list = *state.reports;
        auto out = std::make_shared<std::vector<NetNoiseReport>>();
        const auto take = [&](std::size_t e) {
            if (retain) {
                out->push_back(list[e]);
            } else {
                out->push_back(std::move(list[e]));
            }
        };
        for (std::size_t i = 0; i < state.victims.size(); ++i) {
            const int id = tg.idOf.at(state.victims[i].net);
            if (tasks[static_cast<std::size_t>(id)].done) take(i);
        }
        for (std::size_t id = 0; id < tasks.size(); ++id) {
            const int e = state.quietEntry[id];
            if (e >= 0 && tasks[id].done) take(static_cast<std::size_t>(e));
        }
        if (retain) st.reportsCopied += out->size();
        return ReportList(std::move(out));
    }

    /// Resilience accounting and partial-result assembly: per-task verdicts
    /// into the outcome's net lists, the run's counters into `st` (and
    /// `opt.schedulerStats`), and the reports. On a cancelled run the
    /// unfinished victim slots are dropped — every report returned is
    /// complete and bitwise-identical to the same net's report in an
    /// uncancelled run.
    AnalysisOutcome assembleOutcome(util::SchedulerStats sched,
                                    IncrementalStats& st) {
        AnalysisOutcome outcome;
        bool cancelled = false;
        for (std::size_t id = 0; id < tasks.size(); ++id) {
            const std::string& net = tg.nets[id];
            if (!tasks[id].done) {
                cancelled = true;
                // Only victim clusters are reported as unsolved: the
                // invariant callers rely on is reports + unsolvedNets == the
                // victim set, and pass-through propagation tasks never
                // produce a report in the first place.
                if (victimSlot(net) >= 0) outcome.unsolvedNets.push_back(net);
                continue;
            }
            switch (tasks[id].state) {
                case TaskRecord::State::failed:
                    outcome.failedNets.push_back(net);
                    break;
                case TaskRecord::State::quarantined:
                    outcome.quarantinedNets.push_back(net);
                    break;
                case TaskRecord::State::degraded:
                    outcome.degradedNets.push_back(net);
                    break;
                case TaskRecord::State::ok: break;
            }
        }
        if (cancelled) {
            outcome.reason =
                cancel != nullptr &&
                        cancel->reason() == util::CancelToken::Reason::deadline
                    ? TerminationReason::deadlineExpired
                    : TerminationReason::cancelled;
        }
        sortUnique(outcome.failedNets);
        sortUnique(outcome.quarantinedNets);
        sortUnique(outcome.degradedNets);
        st.totalTasks = tasks.size();
        for (std::size_t id = 0; id < tasks.size(); ++id) {
            const TaskRecord::Role role = tasks[id].role;
            if (role == TaskRecord::Role::clean) continue;
            ++st.dirtyTasks;
            if (role == TaskRecord::Role::reused) {
                ++st.cutoffTasks;
            } else if (role == TaskRecord::Role::restored) {
                ++st.restoredTasks;
            } else if (victimSlot(tg.nets[id]) >= 0) {
                ++st.solvedVictimReports;
            }
        }
        st.reusedVictimReports = state.victims.size() - st.solvedVictimReports;
        st.scheduler = sched;
        if (opt.schedulerStats != nullptr) {
            *opt.schedulerStats = std::move(sched);
        }
        outcome.reports = publishReports(cancelled, st);
        return outcome;
    }

    /// Decides on the calling thread, before the scheduler starts, every
    /// dirty task that needs no solve. In topological (task id) order, a
    /// task whose dirty fanins were all decided here and finished ok builds
    /// its inputs and key; a keep or restore (memoRole) then runs through
    /// runTask, the fault point and the failure policy included, exactly
    /// as a scheduled task would. A task that must solve, or whose inputs
    /// throw while they are built, and its downstream closure, are left to
    /// the scheduler (where runTask applies the policy to that exception),
    /// so an update that solves nothing wakes no worker. A stopped cancel
    /// token ends the walk: the rest drains unsolved through the scheduler.
    /// Returns the number of tasks decided.
    std::size_t decideOnCaller() {
        std::size_t decided = 0;
        for (std::size_t uid = 0; uid < tasks.size(); ++uid) {
            if (tasks[uid].done) continue;  // clean
            const auto& fanins = tg.faninIds[uid];
            if (!std::all_of(fanins.begin(), fanins.end(), [&](int f) {
                    const TaskRecord& t = tasks[static_cast<std::size_t>(f)];
                    return t.done && t.state == TaskRecord::State::ok;
                })) {
                continue;
            }
            if (cancel != nullptr && cancel->stopRequested()) break;
            const int id = static_cast<int>(uid);
            const int slot = victimSlot(tg.nets[uid]);
            TaskRecord::Role role = TaskRecord::Role::dirty;
            std::size_t entry = 0;
            try {
                role = memoRole(uid, taskKey(inputsOf(id, slot)), entry);
            } catch (const std::exception&) {
                // Inputs that cannot be built (a section without a driver
                // conn, say) fail in the scheduled solve, under the policy.
            }
            if (role == TaskRecord::Role::dirty) continue;
            runTask(id, role, entry);
            ++decided;
        }
        return decided;
    }

    /// Marks the dirty tasks, decides on the calling thread those a
    /// retained snapshot keeps or restores (a rebuild has no key to match),
    /// and runs the rest alone: edges from a clean or decided fanin vanish
    /// (its slot is already filled); edges among the rest keep their
    /// dependency order, so a net still solves after every scheduled
    /// upstream net, and the whole ready frontier runs at once. When the
    /// calling thread decided every dirty task there is no rest, and the
    /// scheduler's counters are those of its empty run.
    AnalysisOutcome run(const DirtyInputs& dirty, IncrementalStats& st) {
        const std::size_t dirtyTasks = markDirty(dirty);
        if (retain && !dirty.everyTask) st.callerTasks = decideOnCaller();
        // threads == 0 means "use the machine" (hardware_concurrency). A
        // retained snapshot keeps its pool for the next call; a throwaway
        // one's pool ends with the call.
        const int threads = util::resolveThreadCount(opt.threads);
        std::shared_ptr<util::ThreadPool>& pool = state.pool;
        if (threads <= 1) {
            pool.reset();
        } else if (pool == nullptr || pool->size() != threads) {
            pool.reset();  // release the old workers before spawning new ones
            pool = std::make_shared<util::ThreadPool>(threads);
        }
        util::SchedulerStats sched;  // what an empty run reports
        sched.workers = pool != nullptr ? std::max(1, pool->size()) : 1;
        if (st.callerTasks < dirtyTasks) {
            std::vector<char> keep(tasks.size());
            for (std::size_t id = 0; id < tasks.size(); ++id) {
                keep[id] = tasks[id].done ? 0 : 1;
            }
            const util::RestrictedTaskGraph sub =
                util::restrictTaskGraph(tg.graph, keep);
            sched = util::runTaskGraph(
                sub.graph,
                [&](int t) {
                    runTask(sub.fullId[static_cast<std::size_t>(t)]);
                },
                pool.get(), cancel);
        }
        return assembleOutcome(std::move(sched), st);
    }
};

/// The shared lint gate: apply waivers to the checker's report, hand the
/// waived diagnostics to `snapshotLint` when given, publish `prefix` (the
/// delta's findings, already gated) followed by them through
/// `opt.lintOut`, and throw lint::LintError in strict mode on surviving
/// errors. The checker only reads the index (and characterizes window-hull
/// Thevenins through the shared cache — values the analysis would compute
/// identically anyway), so warn mode cannot perturb a single analysis bit.
void runLintGate(lint::LintReport& report, const DesignNoiseOptions& opt,
                 std::vector<lint::Diagnostic>* snapshotLint,
                 const lint::LintReport& prefix = {}) {
    if (opt.lintWaivers != nullptr) {
        lint::applyWaivers(report, *opt.lintWaivers);
    }
    if (snapshotLint != nullptr) *snapshotLint = report.diagnostics;
    report.diagnostics.insert(report.diagnostics.begin(),
                              prefix.diagnostics.begin(),
                              prefix.diagnostics.end());
    if (opt.lintOut != nullptr) *opt.lintOut = report;
    if (opt.lint == lint::Mode::strict && report.hasErrors()) {
        throw lint::LintError(report);
    }
}

/// Post-run lint findings for the report gate (SNA-L7xx, resilience):
/// emitted after the solve, so they can never gate a strict run — they
/// exist to make a partial signoff impossible to mistake for a clean one
/// in lint-consuming tooling.
void appendResilienceLint(lint::LintReport& lr,
                          const AnalysisOutcome& outcome) {
    const auto add = [&lr](const char* rule, lint::Severity sev,
                           const std::string& net, const char* message) {
        lint::Diagnostic d;
        d.rule = rule;
        d.severity = sev;
        d.object = net;
        d.message = message;
        lr.diagnostics.push_back(std::move(d));
    };
    for (const std::string& net : outcome.failedNets) {
        add("SNA-L701", lint::Severity::warning, net,
            "net solve failed; margins unavailable (see the report's "
            "captured error)");
    }
    for (const std::string& net : outcome.quarantinedNets) {
        add("SNA-L702", lint::Severity::warning, net,
            "net quarantined downstream of a failed solve; never analyzed");
    }
    for (const std::string& net : outcome.degradedNets) {
        add("SNA-L703", lint::Severity::info, net,
            "net solved across a pass-through bridge; margins approximate");
    }
}

/// The throwing entry points' view of an outcome: its reports when every
/// task ran, util::CancelledError otherwise.
std::vector<NetNoiseReport> reportsOrThrow(AnalysisOutcome&& outcome) {
    if (!outcome.complete()) {
        throw util::CancelledError(
            outcome.reason == TerminationReason::deadlineExpired
                ? "analysis deadline expired"
                : "analysis cancelled");
    }
    return std::move(outcome.reports).release();
}

/// Calls `changed(net)` for every net whose explicit window differs bit for
/// bit between `before` and `now` — added, removed, or moved — and returns
/// whether any did. Both sets are name-ordered, so one merge walk.
template <typename Changed>
bool diffExplicitWindows(const TimingWindows& before, const TimingWindows& now,
                         Changed&& changed) {
    bool any = false;
    auto b = before.all().begin();
    auto n = now.all().begin();
    while (b != before.all().end() || n != now.all().end()) {
        bool differs = true;
        if (n == now.all().end() ||
            (b != before.all().end() && b->first < n->first)) {
            changed((b++)->first);  // removed
        } else if (b == before.all().end() || n->first < b->first) {
            changed((n++)->first);  // added
        } else {
            differs = !b->second.sameBits(n->second);
            if (differs) changed(b->first);
            ++b;
            ++n;
        }
        any = any || differs;
    }
    return any;
}

/// The rebuild prepare step, for a full analysis and for an update whose
/// snapshot cannot splice: a fresh index (linted, with the delta's findings
/// in front), and on the emptied `state` every victim reselected and every
/// window propagated. Every task is then must-solve.
DirtyInputs prepareRebuild(const Design& design, const parser::SpefFile& spef,
                           const DesignNoiseOptions& opt,
                           AnalysisSnapshot& state, bool retain,
                           const lint::LintReport& deltaLint,
                           IncrementalStats& st) {
    auto index = std::make_unique<DesignIndex>(
        design, spef, opt.propagate ? opt.windows : nullptr);
    std::vector<lint::Diagnostic> designLint;
    if (opt.lint != lint::Mode::off) {
        lint::LintOptions lo;
        lo.nrc = opt.report.nrc;
        lo.cache = opt.cache;
        lo.loadCurveGrid = opt.report.macromodel.loadCurveGrid;
        lint::LintReport lr = lint::lintDesign(*index, spef, lo);
        runLintGate(lr, opt, &designLint, deltaLint);
    }
    // The run writes its slots into the snapshot in place, so the snapshot
    // stops being splice input until the run has completed cleanly.
    std::shared_ptr<util::ThreadPool> pool = std::move(state.pool);
    state = AnalysisSnapshot{};
    state.pool = std::move(pool);
    state.index = std::move(index);
    state.lint = std::move(designLint);
    const bool useWindows = opt.propagate && opt.windows != nullptr;
    if (retain) {
        state.design = &design;
        state.instanceCount = design.instances().size();
        state.fingerprint = fingerprintOf(opt);
        state.explicitWindows = useWindows ? *opt.windows : TimingWindows{};
    }
    refreshVictims(state, *state.index, spef, opt.maxAggressors, {}, true);
    // Windows are propagated over the whole level graph before any cluster
    // solves: a victim's aggressors can live on ANY level, so their windows
    // must be known up front, not wavefront-ordered.
    if (useWindows) {
        std::vector<int> every(state.index->taskGraph().nets.size());
        std::iota(every.begin(), every.end(), 0);
        st.windowNetsRepropagated = propagateWindowCone(
            *state.index, opt.cache, nullptr, every, state.netWindows);
    }
    st.indexRebuilt = true;
    DirtyInputs dirty;
    dirty.everyTask = true;
    return dirty;
}

/// Makes `state` the only holder of its report list before anything
/// writes to it: a list that a caller still holds is cloned first
/// (copy-on-write), so the caller's stays as it was returned. Returns the
/// number of reports copied.
std::size_t ownReports(AnalysisSnapshot& state) {
    if (state.reports.use_count() == 1) {
        // The other holders' reads of the list happen before this run's
        // writes: each released its handle with a release decrement, which
        // the count just read observed.
        std::atomic_thread_fence(std::memory_order_acquire);
        return 0;
    }
    state.reports =
        std::make_shared<std::vector<NetNoiseReport>>(*state.reports);
    return state.reports->size();
}

/// The update prepare step on a reusable snapshot: the retained index is
/// patched for `delta`, the windows of its cone re-propagated, and the
/// must-solve set is the delta's seeds with their coupling neighbours.
DirtyInputs preparePatch(const parser::SpefFile& spef,
                         const DesignNoiseOptions& opt,
                         const DesignDelta& delta, AnalysisSnapshot& snapshot,
                         IncrementalStats& st) {
    DesignIndex& index = *snapshot.index;
    index.setTimingWindows(opt.propagate ? opt.windows : nullptr);
    // The index, the windows and the slots are refreshed in place from
    // here on: until this call's run completes cleanly the snapshot is no
    // splice input (an exception below leaves it invalid).
    snapshot.valid = false;
    st.reportsCopied += ownReports(snapshot);

    // ---- seeds: what the delta touched directly -------------------------
    // Window sources are the nets whose window inputs changed: the pins of
    // a re-bound instance (its output net's driver cell) and the nets whose
    // explicit window was added, removed, or changed.
    const bool useWindows = opt.propagate && opt.windows != nullptr;
    const NetTaskGraph* tg = useWindows ? &index.taskGraph() : nullptr;
    std::vector<int> windowSources;
    const auto addWindowSource = [&](const std::string& net) {
        if (tg == nullptr) return;
        const auto it = tg->idOf.find(net);
        if (it != tg->idOf.end()) windowSources.push_back(it->second);
    };
    std::unordered_set<std::string> seeds(delta.nets.begin(),
                                          delta.nets.end());
    for (const std::string& instName : delta.instances) {
        // A rebound instance changes its output net's driver model and its
        // input nets' receiver — every net on its pins re-solves.
        const Instance* inst = index.instanceNamed(instName);
        if (inst == nullptr) continue;
        for (const auto& [pin, net] : inst->pinToNet) {
            seeds.insert(net);
            addWindowSource(net);
        }
    }
    // Re-read the changed SPEF sections in place; owners whose summed
    // coupling moved are value-changed seeds too (their victims re-rank).
    for (const std::string& net : index.patchParasitics(spef, delta.nets)) {
        seeds.insert(net);
    }
    // Windows never read parasitics (stage delays use the canonical
    // propagation load), so only the forward cone of the window sources can
    // move: re-propagate it into the retained windows and seed every net
    // whose window moved — its own sensitivity interval changed, and so did
    // the aggressor window its coupled victims see.
    DirtyInputs dirty;
    if (useWindows) {
        if (diffExplicitWindows(snapshot.explicitWindows, *opt.windows,
                                addWindowSource)) {
            snapshot.explicitWindows = *opt.windows;
        }
        std::vector<int> moved;
        st.windowNetsRepropagated =
            propagateWindowCone(index, opt.cache, opt.windows, windowSources,
                                snapshot.netWindows, &moved);
        for (const int id : moved) {
            seeds.insert(tg->nets[static_cast<std::size_t>(id)]);
        }
    }
    dirty.mustSolve = expandDirtyCone(index, seeds, &st.coupledNeighbors);
    st.seedNets = seeds.size();
    // Every net whose victim status can change is must-solve: a patched
    // coupling owner, a re-read section, a pin net of a rebound instance.
    // refreshVictims re-ranks each of them, and reselects the whole list
    // when one gains or loses victim status.
    dirty.unrecordedSlots = refreshVictims(snapshot, index, spef,
                                           opt.maxAggressors, dirty.mustSolve,
                                           false);
    return dirty;
}

/// The one run path behind every entry point. A full analysis
/// (`delta == nullptr`) and an update whose snapshot cannot splice — no
/// prior run, a different Design object, changed options, or a
/// connectivity change — rebuild; an update on a reusable snapshot
/// patches. Both then run the same solve on the slots of `snapshot` (a
/// throwaway one when null), which stays splice input only after a clean
/// completion.
AnalysisOutcome runAnalysis(const Design& design, const parser::SpefFile& spef,
                            const DesignNoiseOptions& opt,
                            const DesignDelta* delta,
                            AnalysisSnapshot* snapshot, IncrementalStats& st) {
    st = IncrementalStats{};
    // Delta validity (SNA-L501/L502) gates the run before the snapshot is
    // touched: a typo'd delta marks nothing dirty and would otherwise
    // silently splice stale results for the net the user meant.
    lint::LintReport deltaLint;
    if (delta != nullptr && opt.lint != lint::Mode::off) {
        deltaLint = lint::lintDelta(design, spef, *delta);
        runLintGate(deltaLint, opt, nullptr);
    }
    const bool reusable =
        delta != nullptr && !delta->connectivityChanged &&
        snapshot != nullptr && snapshot->valid && snapshot->index != nullptr &&
        snapshot->design == &design &&
        snapshot->instanceCount == design.instances().size() &&
        snapshot->fingerprint == fingerprintOf(opt) &&
        snapshot->index->sectionsFollow(spef, delta->nets);

    AnalysisSnapshot scratch;
    AnalysisSnapshot& state = snapshot != nullptr ? *snapshot : scratch;
    DesignNoiseOptions runOpt = opt;
    runOpt.snapshot = nullptr;
    charlib::CharCache runCache;
    if (runOpt.cache == nullptr) runOpt.cache = &runCache;
    const DirtyInputs dirty =
        reusable ? preparePatch(spef, runOpt, *delta, state, st)
                 : prepareRebuild(design, spef, runOpt, state,
                                  snapshot != nullptr, deltaLint, st);
    AnalysisOutcome outcome =
        SolveRun(design, spef, runOpt, state, snapshot != nullptr)
            .run(dirty, st);
    state.valid = snapshot != nullptr && outcome.clean();
    if (opt.lint != lint::Mode::off && opt.lintOut != nullptr) {
        appendResilienceLint(*opt.lintOut, outcome);
    }
    return outcome;
}

}  // namespace

AnalysisOutcome analyzeDesignOutcome(const Design& design,
                                     const parser::SpefFile& spef,
                                     const DesignNoiseOptions& opt) {
    IncrementalStats stats;
    return runAnalysis(design, spef, opt, nullptr, opt.snapshot, stats);
}

std::vector<NetNoiseReport> analyzeDesign(const Design& design,
                                          const parser::SpefFile& spef,
                                          const DesignNoiseOptions& opt) {
    return reportsOrThrow(analyzeDesignOutcome(design, spef, opt));
}

AnalysisOutcome analyzeDesignIncrementalOutcome(
    const Design& design, const parser::SpefFile& spef,
    const DesignDelta& delta, AnalysisSnapshot& snapshot,
    const DesignNoiseOptions& opt, IncrementalStats* statsOut) {
    IncrementalStats stats;
    return runAnalysis(design, spef, opt, &delta, &snapshot,
                       statsOut != nullptr ? *statsOut : stats);
}

std::vector<NetNoiseReport> analyzeDesignIncremental(
    const Design& design, const parser::SpefFile& spef,
    const DesignDelta& delta, AnalysisSnapshot& snapshot,
    const DesignNoiseOptions& opt, IncrementalStats* statsOut) {
    IncrementalStats stats;
    IncrementalStats& st = statsOut != nullptr ? *statsOut : stats;
    std::vector<NetNoiseReport> reports = reportsOrThrow(
        runAnalysis(design, spef, opt, &delta, &snapshot, st));
    // The snapshot keeps the list, so the vector is a copy of it.
    st.reportsCopied += reports.size();
    return reports;
}

}  // namespace sna::core
