#include "core/sna.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
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

namespace {

/// Records one cluster run's output glitch in the net's surviving front.
void recordRun(SurvivingSet* out, const ClusterReport& run) {
    if (out == nullptr) return;
    SurvivingGlitch sg;
    sg.height = std::abs(run.worst.metrics.peak);
    sg.width = run.worst.metrics.width;
    mergeSurviving(*out, sg);
}

/// Bit-for-bit equality of two surviving fronts, element by element.
bool sameBits(const SurvivingSet& a, const SurvivingSet& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i].height, &b[i].height, sizeof(double)) != 0 ||
            std::memcmp(&a[i].width, &b[i].width, sizeof(double)) != 0) {
            return false;
        }
    }
    return true;
}

/// Worst-of-both-holding-levels cluster run for one victim net, with an
/// optional propagated glitch injected at the driver input. Both levels'
/// output glitches join `outSurviving` — the non-governing level can leave
/// the wider (incomparable) glitch on the net.
///
/// `aggWindows` / `glitchWindow`, when given, apply the timing-window
/// constraints: an aggressor with an empty window is held quiet (switch
/// time +inf — it still loads the victim but never switches), the
/// alignment search only probes inside the feasible intervals, and in
/// fixed-alignment mode (searchAlignment == false) the glitch onset is
/// clamped into its feasible interval.
///
/// `unconstrained`, when given, also receives the worst-of-both-levels
/// report of the same runs without any window (windows mode's comparison
/// verdict). Each level builds one macromodel for both verdicts (the build
/// reads neither switch times nor the glitch time). With the search on, the
/// two searches share its probe memo: the window-constrained search then
/// simulates only the probes the unconstrained one has not. With the search
/// off, the windows can only quiet an aggressor or clamp the glitch onset;
/// when they do neither, the windowed report is a copy of the unconstrained
/// one, and otherwise one more transient runs at the constrained times.
ClusterReport runClusterBothLevels(
    const cell::CellLibrary& lib, const Instance& driver,
    const Instance& firstLoad,
    const std::vector<std::pair<std::string, std::string>>& rankedAggressors,
    const ic::RcNetwork& rc, double tstop, const ReportOptions& ropt,
    const IncomingGlitch* incoming, SurvivingSet* outSurviving,
    const std::vector<TimingWindow>* aggWindows = nullptr,
    const TimingWindow* glitchWindow = nullptr,
    ClusterReport* unconstrained = nullptr) {
    ClusterReport worst;
    bool first = true;
    for (const bool level : {false, true}) {
        ClusterSpec spec;
        spec.technology = &lib.technology();
        spec.customNet = &rc;
        spec.tstop = tstop;
        spec.victim.driverCell = driver.cellName;
        spec.victim.outputLevel = level;
        spec.victim.glitchInput =
            lib.cell(driver.cellName).inputNames().front();
        spec.victim.receiverCell = firstLoad.cellName;
        if (incoming != nullptr) {
            spec.victim.glitchInput = incoming->inputPin;
            spec.victim.glitchHeight = incoming->height;
            // Stored as 50% width; the triangle injection takes the base.
            spec.victim.glitchWidth = 2.0 * incoming->width;
            // A broad, near-DC glitch can outlast the simulation window:
            // the alignment search probes onsets up to 0.8 * tstop, so the
            // triangle only fits for any probe when tstop >= 5x its base.
            // Extend the window rather than clamp the glitch (clamping
            // would analyze a narrower, weaker glitch — optimistic).
            spec.tstop = std::max(spec.tstop, 6.0 * spec.victim.glitchWidth);
        }
        for (const auto& [drvCell, agg] : rankedAggressors) {
            AggressorSpec as;
            as.driverCell = drvCell;
            // The damaging direction: aggressors switch away from the
            // victim's held level.
            as.outputRising = !level;
            spec.aggressors.push_back(as);
        }
        ClusterReport cluster;
        std::optional<ClusterReport> unc;
        // The build reads neither switch times nor the glitch time, so one
        // model serves both verdicts.
        const ClusterMacromodel model(spec, ropt.macromodel);
        if (ropt.searchAlignment) {
            // The spec's times only seed the search's free candidate, which
            // the search itself clamps into the windows (and holds quiet
            // where a window is empty), so the unconstrained spec serves
            // both searches and one memo serves the pair.
            const ReportOptions* use = &ropt;
            ReportOptions constrained;
            if (aggWindows != nullptr || glitchWindow != nullptr) {
                constrained = ropt;
                if (aggWindows != nullptr) {
                    constrained.alignment.aggressorWindows = *aggWindows;
                }
                if (incoming != nullptr && glitchWindow != nullptr) {
                    constrained.alignment.glitchWindow = *glitchWindow;
                }
                use = &constrained;
            }
            ProbeMemo memo(model);
            if (unconstrained != nullptr) {
                unc = analyzeCluster(model, ropt, &memo);
            }
            cluster = analyzeCluster(model, *use, &memo);
        } else {
            // The fixed alignment honours the windows by moving the spec's
            // times: an empty-window aggressor is held quiet and the glitch
            // onset is clamped into its feasible interval.
            std::vector<double> times;
            bool moved = false;
            for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
                times.push_back(spec.aggressors[a].switchTime);
                if (aggWindows != nullptr && (*aggWindows)[a].empty()) {
                    times.back() = std::numeric_limits<double>::infinity();
                    moved = true;
                }
            }
            double glitchTime = spec.victim.glitchTime;
            if (incoming != nullptr && glitchWindow != nullptr &&
                glitchWindow->bounded()) {
                const double lo = std::max(
                    0.0, glitchWindow->earliest - spec.victim.glitchWidth);
                const double hi =
                    std::min(0.8 * spec.tstop, glitchWindow->latest);
                if (lo <= hi) {
                    glitchTime = std::min(std::max(glitchTime, lo), hi);
                    moved = moved ||
                            std::memcmp(&glitchTime, &spec.victim.glitchTime,
                                        sizeof(double)) != 0;
                }
            }
            // Where the windows moved nothing, the windowed transient would
            // repeat the unconstrained one bit for bit: one run serves both.
            if (moved) {
                if (unconstrained != nullptr) unc = analyzeCluster(model, ropt);
                cluster = analyzeClusterAt(model, ropt, times, glitchTime);
            } else {
                cluster = analyzeCluster(model, ropt);
                if (unconstrained != nullptr) unc = cluster;
            }
        }
        recordRun(outSurviving, cluster);
        if (unc && (first || unc->margin < unconstrained->margin)) {
            *unconstrained = std::move(*unc);
        }
        if (first || cluster.margin < worst.margin) {
            worst = std::move(cluster);
        }
        first = false;
    }
    return worst;
}

/// Windows mode's inputs to analyzeVictim, and its second verdict.
struct VictimWindows {
    const std::vector<TimingWindow>* aggWindows = nullptr;  ///< per ranked
    const std::vector<TimingWindow>* incomingWindows = nullptr;  ///< per in
    /// Per incoming candidate: its carrier's window misses this net, so it
    /// only enters the unconstrained verdict.
    const std::vector<char>* dropped = nullptr;
    /// Out: the worst margin over the same runs without any window.
    double unconstrainedMargin = 0.0;
};

/// Full per-net analysis: the local-only verdict (exactly what the flat
/// propagate=false sweep computes), plus — when upstream glitches reach the
/// driver — one combined run per incoming candidate (the Pareto front is
/// incomparable until solved); the worst margin governs the report.
/// `outSurviving`, when set, collects every run's output glitch: a
/// non-governing candidate can still leave the wider (or taller) glitch on
/// the net, and downstream stages must see it.
///
/// With `windows` the report is the window-constrained one (dropped
/// candidates excluded), and the unconstrained margin over every candidate
/// comes from the same runs (see runClusterBothLevels).
NetNoiseReport analyzeVictim(
    const cell::CellLibrary& lib, const std::string& netName,
    const Instance& driver, const Instance& firstLoad,
    const std::vector<std::pair<std::string, std::string>>& rankedAggressors,
    const ic::RcNetwork& rc, double tstop, const ReportOptions& ropt,
    const std::vector<IncomingGlitch>& incoming = {},
    SurvivingSet* outSurviving = nullptr,
    VictimWindows* windows = nullptr) {
    NetNoiseReport report;
    report.net = netName;
    for (const auto& [drvCell, agg] : rankedAggressors) {
        report.aggressorNets.push_back(agg);
    }

    const std::vector<TimingWindow>* aggWindows =
        windows != nullptr ? windows->aggWindows : nullptr;
    ClusterReport unc;
    report.cluster = runClusterBothLevels(
        lib, driver, firstLoad, rankedAggressors, rc, tstop, ropt, nullptr,
        outSurviving, aggWindows, nullptr,
        windows != nullptr ? &unc : nullptr);
    report.propagated.localPeak = std::abs(report.cluster.worst.metrics.peak);
    report.propagated.localNrcLimit = report.cluster.nrcLimit;
    report.propagated.localMargin = report.cluster.margin;
    report.propagated.localFails = report.cluster.fails;
    if (windows != nullptr) windows->unconstrainedMargin = unc.margin;
    // The unconstrained verdict: the worst margin over every run.
    const auto mergeUnc = [&](const ClusterReport& run) {
        if (run.margin < windows->unconstrainedMargin) {
            windows->unconstrainedMargin = run.margin;
        }
    };

    for (std::size_t i = 0; i < incoming.size(); ++i) {
        const IncomingGlitch& in = incoming[i];
        if (windows != nullptr && (*windows->dropped)[i] != 0) {
            mergeUnc(runClusterBothLevels(lib, driver, firstLoad,
                                           rankedAggressors, rc, tstop, ropt,
                                           &in, nullptr));
            continue;
        }
        if (!report.propagated.present) {
            // Record the primary (tallest) injected candidate even when the
            // local-only run ends up governing: `present` reports that an
            // upstream glitch reached this driver, not which run won.
            report.propagated.present = true;
            report.propagated.fromNet = in.fromNet;
            report.propagated.inputPin = in.inputPin;
            report.propagated.height = in.height;
            report.propagated.width = in.width;
        }
        auto combined = runClusterBothLevels(
            lib, driver, firstLoad, rankedAggressors, rc, tstop, ropt, &in,
            outSurviving, aggWindows,
            windows != nullptr ? &(*windows->incomingWindows)[i] : nullptr,
            windows != nullptr ? &unc : nullptr);
        if (windows != nullptr) mergeUnc(unc);
        // The worst margin over {local, each combined candidate} governs: a
        // destructively-aligned injection must not mask a local failure.
        if (combined.margin < report.cluster.margin) {
            report.cluster = std::move(combined);
            report.propagated.fromNet = in.fromNet;
            report.propagated.inputPin = in.inputPin;
            report.propagated.height = in.height;
            report.propagated.width = in.width;
        }
    }
    return report;
}

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

/// The design flow derives every cluster's alignment windows from
/// DesignNoiseOptions::windows. Per-cluster windows left in the report
/// options would constrain the unconstrained verdict too, and the snapshot
/// fingerprint does not carry them, so a design run refuses them.
void requireNoClusterWindows(const DesignNoiseOptions& opt) {
    SNA_REQUIRE(opt.report.alignment.aggressorWindows.empty() &&
                    opt.report.alignment.glitchWindow.sameBits(
                        TimingWindow::unbounded()),
                "design runs take their windows from "
                "DesignNoiseOptions::windows, not report.alignment");
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

/// Splice inputs for one incremental run (analyzeWithIndex `inc` param):
/// the nets whose own inputs changed (seeds and their coupling neighbors —
/// the run adds their downstream closure itself), the task ids whose window
/// moved, the counters to fill, and whether the retained victim list is
/// known stale (a retained victim left the SPEF). Borrowed, never null.
struct IncrementalContext {
    const std::unordered_set<std::string>* mustSolve = nullptr;
    const std::vector<int>* movedWindows = nullptr;
    IncrementalStats* stats = nullptr;
    bool reselect = false;
};

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

/// Phase 1 over the whole SPEF: select every victim, in SPEF order.
void selectVictims(AnalysisSnapshot& state, const DesignIndex& index,
                   const parser::SpefFile& spef, std::size_t maxAggressors) {
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
}

/// Phase 1 of an incremental run: re-rank the must-solve victims in place
/// (any other victim's coupling, aggressor drivers and SPEF membership are
/// all unchanged, so its retained selection is current). When a must-solve
/// net gains or loses victim status — or `reselect` — the whole list is
/// selected again and every retained report follows its net to the new
/// slot. Returns the victim slots left without a retained report.
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
    const std::unordered_map<std::string, int> oldSlot =
        std::move(state.slotOf);
    std::vector<NetNoiseReport> oldReports = std::move(state.victimReports);
    selectVictims(state, index, spef, maxAggressors);
    state.victimReports.assign(state.victims.size(), NetNoiseReport{});
    std::vector<int> unrecorded;
    for (std::size_t i = 0; i < state.victims.size(); ++i) {
        const auto it = oldSlot.find(state.victims[i].net);
        if (it == oldSlot.end()) {
            unrecorded.push_back(static_cast<int>(i));
            continue;
        }
        state.victimReports[i] =
            std::move(oldReports[static_cast<std::size_t>(it->second)]);
    }
    return unrecorded;
}

/// The returned report list: every finished victim slot in SPEF order,
/// then the finished quiet nets' propagated-only reports in task-id order.
/// Copied when `state` is a retained snapshot, moved out of a throwaway one.
std::vector<NetNoiseReport> collectReports(AnalysisSnapshot& state,
                                           const std::vector<char>& victimDone,
                                           const std::vector<char>& taskDone,
                                           bool retain) {
    std::vector<NetNoiseReport> out;
    out.reserve(state.victimReports.size());
    const auto take = [&out, retain](NetNoiseReport& r) {
        if (retain) {
            out.push_back(r);
        } else {
            out.push_back(std::move(r));
        }
    };
    for (std::size_t i = 0; i < state.victimReports.size(); ++i) {
        if (victimDone[i]) take(state.victimReports[i]);
    }
    for (std::size_t id = 0; id < state.quietReports.size(); ++id) {
        auto& quiet = state.quietReports[id];
        if (quiet.has_value() && taskDone[id]) take(*quiet);
    }
    return out;
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

/// The engine shared by analyzeDesign (inc == nullptr: every net solves)
/// and analyzeDesignIncremental (inc != nullptr: only the dirty tasks are
/// scheduled). Every per-net value lives in `state`'s slots and the run
/// writes its dirty slots in place: a full run selects the victims and
/// resets every slot, an incremental run reads its clean slots as the
/// prior run left them (and its windows as the caller re-propagated them).
/// `retain` says whether `state` outlives the call (a snapshot) — then the
/// returned reports are copies — or is a throwaway the reports move out of.
/// The caller owns the snapshot's identity fields, index, and validity.
AnalysisOutcome analyzeWithIndex(const Design& design,
                                 const parser::SpefFile& spef,
                                 const DesignNoiseOptions& opt,
                                 const DesignIndex& index,
                                 AnalysisSnapshot& state, bool retain,
                                 const IncrementalContext* inc) {
    const cell::CellLibrary& lib = design.library();
    charlib::CharCache runCache;
    charlib::CharCache* cache = opt.cache ? opt.cache : &runCache;

    // ---- phase 1 (serial, index lookups only): select victims and rank
    // their aggressors by summed coupling cap.
    std::vector<int> unrecordedSlots;
    if (inc == nullptr) {
        selectVictims(state, index, spef, opt.maxAggressors);
        state.victimReports.assign(state.victims.size(), NetNoiseReport{});
    } else {
        unrecordedSlots =
            refreshVictims(state, index, spef, opt.maxAggressors,
                           *inc->mustSolve, inc->reselect);
    }
    const std::vector<VictimSelection>& work = state.victims;
    std::vector<NetNoiseReport>& reports = state.victimReports;

    ReportOptions ropt = opt.report;
    if (ropt.macromodel.cache == nullptr) ropt.macromodel.cache = cache;

    const auto solveVictim =
        [&](const VictimSelection& w,
            const std::vector<IncomingGlitch>& incoming,
            SurvivingSet* outSurviving, VictimWindows* windows) {
            std::vector<std::string> clusterNets{w.net};
            for (const auto& [drvCell, agg] : w.ranked) {
                clusterNets.push_back(agg);
            }
            const ic::RcNetwork rc = ic::rcFromSpef(spef, clusterNets);
            NetNoiseReport r = analyzeVictim(
                lib, w.net, *w.driver, *w.firstLoad, w.ranked, rc,
                opt.tstop, ropt, incoming, outSurviving, windows);
            r.otherDrivers = index.extraDriversOf(w.net);
            return r;
        };

    /// Victim slot i holds a final value (solved, stubbed, or retained).
    /// Only consulted on a cancelled run, where unfinished slots must be
    /// dropped rather than returned stale or default-constructed.
    std::vector<char> victimDone(work.size(), inc != nullptr ? 1 : 0);

    // Run-local cancellation: the caller's token (if any) chains under a
    // token that also carries the run's deadline, so both compose. With
    // neither set `cancel` stays null and every solve path is exactly the
    // historical zero-overhead one.
    util::CancelToken runToken(opt.cancel);
    const util::CancelToken* cancel = nullptr;
    if (opt.cancel != nullptr || opt.deadline > 0.0) {
        runToken.setDeadlineAfter(opt.deadline);
        cancel = &runToken;
    }
    const NetFailurePolicy policy = opt.onNetFailure;

    // threads == 0 means "use the machine" (hardware_concurrency).
    const int threads = util::resolveThreadCount(opt.threads);
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1) {
        pool = std::make_unique<util::ThreadPool>(threads);
    }

    // ---- phase 2: one task per net, run by the dependency-counted
    // scheduler. The propagated wavefront's tasks are the nets of the
    // design graph, and a net solves the moment its scheduled fanins
    // finish; the flat sweep is the same graph with no edges and one task
    // per victim. Every per-net output is slot-addressed — reports by
    // victim slot, surviving fronts and quiet reports by task id — and a
    // task reads nothing but its scheduled fanins' slots, so completion
    // order cannot change a single bit. Victim clusters write their report
    // slot (SPEF order is preserved because the slots were allocated in
    // phase 1); quiet pass-through nets carry noise forward through the
    // cached propagation tables.
    NetTaskGraph flat;
    if (!opt.propagate) flat = flatTaskGraph(state);
    const NetTaskGraph& tg = opt.propagate ? index.taskGraph() : flat;
    const int numNets = static_cast<int>(tg.nets.size());
    const std::unordered_map<std::string, int>& slotOf = state.slotOf;
    // Slot-addressed per-net outputs: task id -> the net's surviving front /
    // its propagated-only report. Written only by the net's own task, read
    // only by tasks downstream of it, so no completion order can race.
    std::vector<SurvivingSet>& surviving = state.surviving;
    std::vector<std::optional<NetNoiseReport>>& quietReports =
        state.quietReports;

    // ---- switching windows (FRAME-style temporal correlation) -----------
    // Propagated over the whole level graph before any cluster solves: a
    // victim's aggressors can live on ANY level, so their windows must be
    // known up front, not wavefront-ordered. An incremental caller has
    // already re-propagated the cone of its ECO into the retained slots.
    // Without windows (and in the flat sweep, which ignores them) this
    // block is free and the run is bit-identical to the windows-less one.
    const bool useWindows = opt.propagate && opt.windows != nullptr;
    if (inc == nullptr || !opt.propagate) {
        // Nothing reads the flat sweep's fronts (no task has a fanin) and
        // it has no quiet nets, so its slots are simply reset — also on an
        // incremental run, whose reselected victim list may change the
        // task count.
        surviving.assign(static_cast<std::size_t>(numNets), SurvivingSet{});
        quietReports.assign(static_cast<std::size_t>(numNets), std::nullopt);
    }
    if (inc == nullptr) {
        state.netWindows.clear();
        if (useWindows) state.netWindows = propagateWindowsById(index, cache);
    }
    const std::vector<TimingWindow>& netWindows = state.netWindows;
    const auto windowAt = [&](const std::string& net) {
        const auto it = tg.idOf.find(net);
        return it != tg.idOf.end()
                   ? netWindows[static_cast<std::size_t>(it->second)]
                   : TimingWindow::unbounded();
    };

    // Per-task resilience state, slot-addressed like every other per-net
    // output: written only by the net's own task, read only by tasks
    // downstream over scheduled fanin edges (after their dependency count
    // reached zero), so the quarantine propagation is race-free.
    enum class TaskState : char { ok, failed, quarantined, degraded };
    std::vector<TaskState> taskState(static_cast<std::size_t>(numNets),
                                     TaskState::ok);
    // Task ran to a decision (solved, stubbed, quarantined, or retained).
    // A zero after the run means cancellation skipped it.
    std::vector<char> taskDone(static_cast<std::size_t>(numNets),
                               inc != nullptr ? 1 : 0);

    // Incremental: every clean net's slots — surviving front, quiet report,
    // victim report — still hold the prior run's values, so a dirty task
    // reads its clean fanins' slots exactly as a full run would after
    // solving them. Only the dirty tasks are scheduled. A must-solve task's
    // own inputs changed (a seed, a coupling neighbor, a victim without a
    // retained report); the rest of the dirty cone is their downstream
    // closure, and a closure task re-solves only when what one of its dirty
    // fanins publishes moved (early cutoff) — otherwise it keeps its
    // retained slots, exactly like a clean task. A full run marks every task
    // must-solve.
    enum : char { kClean, kMustSolve, kClosure, kCutoff };
    std::vector<char> dirtyMask(static_cast<std::size_t>(numNets),
                                inc != nullptr ? kClean : kMustSolve);
    // Incremental: per task, 1 when what its fanouts read of it — surviving
    // front, window, failure state — may differ from the retained run.
    // Moved windows are known before the run; a re-solved task sets the
    // rest itself when it finishes, before any fanout reads it.
    std::vector<char> changed;
    if (inc != nullptr) {
        std::vector<int> stack;
        const auto markDirty = [&](int id, char role) {
            dirtyMask[static_cast<std::size_t>(id)] = role;
            taskDone[static_cast<std::size_t>(id)] = 0;
            const std::string& net = tg.nets[static_cast<std::size_t>(id)];
            if (const auto sit = slotOf.find(net); sit != slotOf.end()) {
                victimDone[static_cast<std::size_t>(sit->second)] = 0;
            }
            stack.push_back(id);
        };
        const auto markMustSolve = [&](const std::string& net) {
            const auto it = tg.idOf.find(net);
            if (it == tg.idOf.end()) return;
            if (dirtyMask[static_cast<std::size_t>(it->second)] != kClean) {
                return;
            }
            markDirty(it->second, kMustSolve);
        };
        for (const std::string& net : *inc->mustSolve) markMustSolve(net);
        // The caller's cone marking re-solves any victim the snapshot never
        // recorded; this loop is a no-op, but a wrong mask must degrade to
        // extra work, never to an empty report slot.
        for (const int i : unrecordedSlots) {
            markMustSolve(work[static_cast<std::size_t>(i)].net);
        }
        // The downstream closure, over the scheduled fanout edges (the flat
        // sweep has none) — exactly the edges over which a solve can
        // observe an upstream front.
        while (!stack.empty()) {
            const int t = stack.back();
            stack.pop_back();
            for (const int d : tg.graph.fanout[static_cast<std::size_t>(t)]) {
                if (dirtyMask[static_cast<std::size_t>(d)] == kClean) {
                    markDirty(d, kClosure);
                }
            }
        }
        changed.assign(static_cast<std::size_t>(numNets), 0);
        for (const int id : *inc->movedWindows) {
            changed[static_cast<std::size_t>(id)] = 1;
        }
    }

    // The glitches reaching task `id`'s driver. Surviving fronts are
    // visible over scheduled fanin edges only: a cycle-broken fanin sits at
    // the same or a later level and may still be in flight, so its slot is
    // never read. The flat sweep injects nothing.
    const auto incomingOf = [&](int id) -> std::vector<IncomingGlitch> {
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
                surviving[static_cast<std::size_t>(it->second)];
            return s.empty() ? nullptr : &s;
        };
        return selectIncoming(index, tg.nets[static_cast<std::size_t>(id)],
                              survivingOf);
    };

    const auto solveNet = [&](int id) {
        const std::string& net = tg.nets[id];
        const std::vector<IncomingGlitch> incoming = incomingOf(id);
        int slot = -1;  ///< work index, or -1 for a pass-through net
        if (const auto sit = slotOf.find(net); sit != slotOf.end()) {
            slot = sit->second;
        } else if (incoming.empty() || (index.fanoutOf(net).empty() &&
                                        index.loadsOf(net).empty())) {
            // Quiet non-victim net, or a leaf with neither downstream
            // nets nor a receiver to check: nothing to do. (A loaded
            // net with no fanout still needs the NRC check below.)
            return;
        }

        // Windows mode only:
        TimingWindow sens;  ///< the net's own (sensitivity) window
        std::vector<char> dropped;  ///< per incoming: window-dropped
        std::vector<TimingWindow> incomingWindows;  ///< per incoming
        std::vector<TimingWindow> aggWindows;  ///< per ranked aggressor
        std::vector<std::string> excludedAggressors;
        /// False when every window involved is unbounded and nothing was
        /// dropped: the constrained run would equal the unconstrained one,
        /// so a single solve serves both margins.
        bool constraining = false;
        if (useWindows) {
            sens = windowAt(net);
            for (const IncomingGlitch& in : incoming) {
                // The incoming glitch can only collide with this net
                // where its carrier's window overlaps the victim's
                // sensitivity interval — and, for victim clusters, only
                // if that overlap leaves a feasible onset inside the
                // simulation horizon (mirrors runClusterBothLevels).
                const TimingWindow ov =
                    windowAt(in.fromNet).intersect(sens);
                bool drop = ov.empty();
                if (!drop && slot >= 0 && ov.bounded()) {
                    const double base = 2.0 * in.width;
                    const double tstopRun =
                        std::max(opt.tstop, 6.0 * base);
                    const double lo = std::max(0.0, ov.earliest - base);
                    const double hi =
                        std::min(0.8 * tstopRun, ov.latest);
                    drop = lo > hi;
                }
                dropped.push_back(drop ? 1 : 0);
                incomingWindows.push_back(ov);
                if (drop || ov.bounded()) constraining = true;
            }
            if (slot >= 0) {
                for (const auto& [drvCell, agg] : work[slot].ranked) {
                    const TimingWindow ov = windowAt(agg).intersect(sens);
                    aggWindows.push_back(ov);
                    if (ov.bounded() || ov.empty()) {
                        constraining = true;
                    }
                    if (ov.empty()) {
                        excludedAggressors.push_back(agg);
                    }
                }
            }
        }

        SurvivingSet produced;
        // The solve proper, wrapped so its early returns still fall
        // through to the publish step below (a pass-through net can feed
        // its front downstream even when it has no receiver to report on).
        const auto solveBody = [&] {
                if (slot >= 0) {
                    // Every run's output (local and per-candidate combined)
                    // joins the net's surviving front: a non-governing
                    // candidate can still leave the wider glitch. With a
                    // constraining window the runs are window-constrained
                    // (they govern the verdict and feed the front), and
                    // the same runs yield the unconstrained margin; without
                    // one the constrained run would be the unconstrained
                    // run, so one solve reports the margin as both.
                    VictimWindows vw;
                    vw.aggWindows = &aggWindows;
                    vw.incomingWindows = &incomingWindows;
                    vw.dropped = &dropped;
                    NetNoiseReport r =
                        solveVictim(work[slot], incoming, &produced,
                                    constraining ? &vw : nullptr);
                    if (useWindows) {
                        r.windows.constrained = true;
                        r.windows.window = sens;
                        r.windows.unconstrainedMargin =
                            constraining ? vw.unconstrainedMargin
                                         : r.cluster.margin;
                        r.windows.windowedMargin = r.cluster.margin;
                    }
                    if (constraining) {
                        // Exclusions are recorded from two places: empty
                        // window overlaps (decided above), and aggressors
                        // the governing run's search had to hold quiet
                        // because the overlap left no feasible INPUT
                        // switch time once mapped through that run's
                        // delay/slew (+inf times).
                        const auto& times = r.cluster.aggressorSwitchTimes;
                        const auto& ranked = work[slot].ranked;
                        for (std::size_t a = 0;
                             a < times.size() && a < ranked.size(); ++a) {
                            if (std::isinf(times[a])) {
                                excludedAggressors.push_back(ranked[a].second);
                            }
                        }
                        sortUnique(excludedAggressors);
                        r.windows.excludedAggressors =
                            std::move(excludedAggressors);
                        std::vector<std::string> droppedFrom;
                        for (std::size_t i = 0; i < incoming.size(); ++i) {
                            if (dropped[i] != 0) {
                                droppedFrom.push_back(incoming[i].fromNet);
                            }
                        }
                        sortUnique(droppedFrom);
                        r.windows.droppedIncoming = std::move(droppedFrom);
                    }
                    reports[slot] = std::move(r);
                    return;
                }
                const Instance* drv = index.driverOf(net);
                // Pass-through items always have fanin edges, and fanin
                // edges are only built through a net's driver.
                SNA_REQUIRE(drv != nullptr,
                            "pass-through net without a driver");
                // Every candidate's transfer survives unless dominated:
                // incomparable outputs stay side by side in the front.
                // Window-dropped candidates (their carrier's window misses
                // this net's sensitivity interval) neither survive nor
                // reach the receiver; they are kept aside only for the
                // unconstrained comparison margin.
                struct Transfer {
                    SurvivingGlitch sg;
                    const IncomingGlitch* from = nullptr;
                };
                std::vector<Transfer> transfers;
                std::vector<Transfer> allTransfers;  // windows mode only
                std::vector<std::string> droppedFrom;
                for (std::size_t i = 0; i < incoming.size(); ++i) {
                    const IncomingGlitch& in = incoming[i];
                    const bool drop = useWindows && dropped[i] != 0;
                    // Every window-dropped candidate is recorded, whether
                    // or not its transfer would have cleared the height
                    // filter — same accounting as the victim branch.
                    if (drop) droppedFrom.push_back(in.fromNet);
                    Transfer t;
                    t.sg = propagateThroughDriver(lib.cell(drv->cellName),
                                                  in.inputPin, in, cache);
                    t.from = &in;
                    if (t.sg.height < opt.propagateMinHeight ||
                        t.sg.width <= 0.0) {
                        continue;
                    }
                    if (useWindows) allTransfers.push_back(t);
                    if (drop) continue;
                    transfers.push_back(t);
                    mergeSurviving(produced, t.sg);
                }
                // A quiet pass-through net has no cluster, but its receiver
                // still sees the propagated glitch: check it against the
                // NRC and report, so a propagated-only failure on an
                // uncoupled net is not silently missed. The worst (minimum)
                // margin over a transfer set, both holding levels each:
                const auto& loads = index.loadsOf(net);
                struct Scan {
                    ClusterReport cluster;
                    const IncomingGlitch* governing = nullptr;
                };
                const auto nrcScan = [&](const std::vector<Transfer>& ts) {
                    Scan s;
                    bool first = true;
                    for (const Transfer& t : ts) {
                        for (const bool level : {false, true}) {
                            ClusterSpec spec;
                            spec.technology = &lib.technology();
                            spec.victim.receiverCell =
                                loads.front().first->cellName;
                            spec.victim.outputLevel = level;
                            wave::GlitchMetrics m;
                            m.peak = t.sg.height;
                            m.width = t.sg.width;
                            const double limit =
                                nrcLimitFor(spec, m, cache, ropt.nrc);
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
                };
                if (loads.empty()) return;
                if (transfers.empty() &&
                    (!useWindows || allTransfers.empty())) {
                    return;
                }
                NetNoiseReport pr;
                pr.net = net;
                if (!transfers.empty()) {
                    Scan s = nrcScan(transfers);
                    pr.cluster = std::move(s.cluster);
                    pr.propagated.present = true;
                    pr.propagated.fromNet = s.governing->fromNet;
                    pr.propagated.inputPin = s.governing->inputPin;
                    pr.propagated.height = s.governing->height;
                    pr.propagated.width = s.governing->width;
                }
                if (useWindows) {
                    // The unconstrained view over every transfer, dropped
                    // or not — what the windows-less wavefront would have
                    // checked here. With nothing dropped it is the scan
                    // already done.
                    Scan unc;
                    if (droppedFrom.empty()) {
                        unc.cluster = pr.cluster;
                    } else {
                        unc = nrcScan(allTransfers);
                    }
                    pr.windows.constrained = true;
                    pr.windows.window = sens;
                    pr.windows.unconstrainedMargin = unc.cluster.margin;
                    if (transfers.empty()) {
                        // Every candidate was window-dropped: no noise
                        // reaches the receiver in-window, so the governing
                        // margin is the full NRC budget of the glitch the
                        // unconstrained view would have seen.
                        pr.cluster.nrcLimit = unc.cluster.nrcLimit;
                        pr.cluster.margin = unc.cluster.nrcLimit;
                        pr.cluster.fails = false;
                    }
                    pr.windows.windowedMargin = pr.cluster.margin;
                    sortUnique(droppedFrom);
                    pr.windows.droppedIncoming = std::move(droppedFrom);
                }
                // No local (coupled) noise on a quiet net: the local-only
                // margin is the receiver's full NRC budget.
                pr.propagated.localPeak = 0.0;
                pr.propagated.localNrcLimit = pr.cluster.nrcLimit;
                pr.propagated.localMargin = pr.cluster.nrcLimit;
                pr.propagated.localFails = false;
                quietReports[static_cast<std::size_t>(id)] = std::move(pr);
        };
        solveBody();

        // Publish this net's surviving front into its slot: the height
        // filter runs here so downstream tasks only ever see the final
        // value, after their dependency count reaches zero.
        SurvivingSet kept;
        for (const SurvivingGlitch& sg : produced) {
            if (sg.height >= opt.propagateMinHeight && sg.width > 0.0) {
                kept.push_back(sg);
            }
        }
        surviving[static_cast<std::size_t>(id)] = std::move(kept);
    };

    // One solve under the failure-quarantine policy. Under failFast the
    // wrapper adds nothing but the injection site — exceptions propagate
    // through the scheduler untouched. A flat task has no fanins, so
    // quarantineCone and degradeToPassthrough both reduce to "capture the
    // failure and go on".
    const auto solveTask = [&](int id, int slot) {
        const std::string& net = tg.nets[static_cast<std::size_t>(id)];
        if (policy == NetFailurePolicy::failFast) {
            SNA_FAULT_POINT("core.solve_net", net);
            solveNet(id);
            return;
        }
        // Cone state over the scheduled fanin edges. Each fanin's state was
        // committed before this task's dependency count reached zero.
        bool upstreamFault = false;
        bool upstreamDegraded = false;
        for (const int f : tg.faninIds[static_cast<std::size_t>(id)]) {
            const TaskState s = taskState[static_cast<std::size_t>(f)];
            if (s == TaskState::failed || s == TaskState::quarantined) {
                upstreamFault = true;
            } else if (s == TaskState::degraded) {
                upstreamDegraded = true;
            }
        }
        if (policy == NetFailurePolicy::quarantineCone && upstreamFault) {
            // Suppressed, not solved: empty surviving front (nothing
            // propagates out of the cone), stub report for victims.
            taskState[static_cast<std::size_t>(id)] = TaskState::quarantined;
            if (slot >= 0) {
                reports[static_cast<std::size_t>(slot)] = failureStub(
                    net, NetNoiseReport::Status::quarantined);
            }
            return;
        }
        try {
            SNA_FAULT_POINT("core.solve_net", net);
            solveNet(id);
            if (upstreamFault || upstreamDegraded) {
                // degradeToPassthrough: solved across a bridged failure —
                // margins are real numbers but built on approximate inputs.
                taskState[static_cast<std::size_t>(id)] = TaskState::degraded;
                if (slot >= 0) {
                    reports[static_cast<std::size_t>(slot)].status =
                        NetNoiseReport::Status::degraded;
                }
                auto& quiet = quietReports[static_cast<std::size_t>(id)];
                if (quiet.has_value()) {
                    quiet->status = NetNoiseReport::Status::degraded;
                }
            }
        } catch (const util::CancelledError&) {
            throw;  // cancellation is never a per-net failure
        } catch (const std::exception& e) {
            taskState[static_cast<std::size_t>(id)] = TaskState::failed;
            if (slot >= 0) {
                reports[static_cast<std::size_t>(slot)] = failureStub(
                    net, NetNoiseReport::Status::failed, e.what());
            }
            quietReports[static_cast<std::size_t>(id)].reset();
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
            surviving[static_cast<std::size_t>(id)] = std::move(pass);
        }
    };

    // The task the scheduler actually runs. A closure task none of whose
    // dirty fanins changed what it publishes is cut off: its inputs are bit
    // for bit the retained run's, so its retained slots are its answer. Any
    // other task starts from empty slots, as in a full run, and the
    // retained front it replaces tells whether its fanouts see a change.
    const auto runTask = [&](int id) {
        const auto uid = static_cast<std::size_t>(id);
        int slot = -1;
        if (const auto sit = slotOf.find(tg.nets[uid]); sit != slotOf.end()) {
            slot = sit->second;
        }
        if (dirtyMask[uid] == kClosure) {
            bool upstreamChanged = false;
            for (const int f : tg.faninIds[uid]) {
                upstreamChanged = upstreamChanged ||
                                  changed[static_cast<std::size_t>(f)] != 0;
            }
            if (!upstreamChanged) dirtyMask[uid] = kCutoff;
        }
        if (dirtyMask[uid] != kCutoff) {
            SurvivingSet retained = std::move(surviving[uid]);
            surviving[uid].clear();
            quietReports[uid].reset();
            solveTask(id, slot);
            if (inc != nullptr && (taskState[uid] != TaskState::ok ||
                                   !sameBits(surviving[uid], retained))) {
                changed[uid] = 1;
            }
        }
        if (slot >= 0) victimDone[static_cast<std::size_t>(slot)] = 1;
        taskDone[uid] = 1;
    };

    // A full run schedules every task: the whole ready frontier runs at
    // once and a net unlocks its fanouts the moment it publishes. An
    // incremental run schedules only the dirty tasks: edges from a clean
    // fanin vanish (its slot is already filled); edges among dirty tasks
    // keep their dependency order, so a dirty net still solves after every
    // dirty upstream net.
    util::RestrictedTaskGraph sub;
    if (inc != nullptr) sub = util::restrictTaskGraph(tg.graph, dirtyMask);
    util::SchedulerStats sched = util::runTaskGraph(
        inc != nullptr ? sub.graph : tg.graph,
        [&](int t) {
            runTask(inc != nullptr ? sub.fullId[static_cast<std::size_t>(t)]
                                   : t);
        },
        pool.get(), cancel);

    // ---- resilience accounting and partial-result assembly ---------------
    AnalysisOutcome outcome;
    bool runCancelled = false;
    for (int id = 0; id < numNets; ++id) {
        const std::string& net = tg.nets[static_cast<std::size_t>(id)];
        if (!taskDone[static_cast<std::size_t>(id)]) {
            runCancelled = true;
            // Only victim clusters are reported as unsolved: the invariant
            // callers rely on is reports + unsolvedNets == the victim set,
            // and pass-through propagation tasks never produce a report in
            // the first place.
            if (slotOf.count(net) != 0) outcome.unsolvedNets.push_back(net);
            continue;
        }
        switch (taskState[static_cast<std::size_t>(id)]) {
            case TaskState::failed: outcome.failedNets.push_back(net); break;
            case TaskState::quarantined:
                outcome.quarantinedNets.push_back(net);
                break;
            case TaskState::degraded:
                outcome.degradedNets.push_back(net);
                break;
            case TaskState::ok: break;
        }
    }
    if (runCancelled) {
        outcome.reason =
            cancel != nullptr &&
                    cancel->reason() == util::CancelToken::Reason::deadline
                ? TerminationReason::deadlineExpired
                : TerminationReason::cancelled;
    }
    sched.failedTasks = outcome.failedNets.size();
    sched.quarantinedTasks = outcome.quarantinedNets.size();
    sched.degradedTasks = outcome.degradedNets.size();
    sortUnique(outcome.failedNets);
    sortUnique(outcome.quarantinedNets);
    sortUnique(outcome.degradedNets);
    if (inc != nullptr) {
        IncrementalStats& st = *inc->stats;
        st.totalTasks = static_cast<std::size_t>(numNets);
        st.dirtyTasks = sub.fullId.size();
        for (const int id : sub.fullId) {
            if (dirtyMask[static_cast<std::size_t>(id)] == kCutoff) {
                ++st.cutoffTasks;
            } else if (slotOf.count(tg.nets[static_cast<std::size_t>(id)])) {
                ++st.solvedVictimReports;
            }
        }
        st.reusedVictimReports = work.size() - st.solvedVictimReports;
        st.scheduler = sched;
    }
    if (opt.schedulerStats != nullptr) *opt.schedulerStats = std::move(sched);
    // Propagated-only entries for quiet nets follow the SPEF-ordered victim
    // reports, in level-then-name (== task id) order (deterministic). On a
    // cancelled run the unfinished victim slots are dropped — every report
    // returned is complete and bitwise-identical to the same net's report
    // in an uncancelled run.
    outcome.reports = collectReports(state, victimDone, taskDone, retain);
    return outcome;
}

/// The shared lint gate: run the checker, apply waivers, publish the report
/// through `opt.lintOut` (and `snapshotLint` when given), and throw
/// lint::LintError in strict mode on surviving errors. The checker only
/// reads the index (and characterizes window-hull Thevenins through the
/// shared cache — values the analysis would compute identically anyway), so
/// warn mode cannot perturb a single analysis bit.
void runLintGate(lint::LintReport& report, const DesignNoiseOptions& opt,
                 std::vector<lint::Diagnostic>* snapshotLint) {
    if (opt.lintWaivers != nullptr) {
        lint::applyWaivers(report, *opt.lintWaivers);
    }
    if (snapshotLint != nullptr) *snapshotLint = report.diagnostics;
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
    return std::move(outcome.reports);
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

}  // namespace

AnalysisOutcome analyzeDesignOutcome(const Design& design,
                                     const parser::SpefFile& spef,
                                     const DesignNoiseOptions& opt) {
    requireNoClusterWindows(opt);
    auto index = std::make_unique<DesignIndex>(
        design, spef, opt.propagate ? opt.windows : nullptr);
    if (opt.lint != lint::Mode::off) {
        lint::LintOptions lo;
        lo.nrc = opt.report.nrc;
        lo.cache = opt.cache;
        lo.loadCurveGrid = opt.report.macromodel.loadCurveGrid;
        lint::LintReport lr = lint::lintDesign(*index, spef, lo);
        runLintGate(lr, opt,
                    opt.snapshot != nullptr ? &opt.snapshot->lint : nullptr);
    }
    // The run writes its slots into the snapshot in place (a throwaway one
    // without capture), so the snapshot stops being splice input until the
    // run has completed cleanly.
    AnalysisSnapshot scratch;
    AnalysisSnapshot& state = opt.snapshot != nullptr ? *opt.snapshot : scratch;
    state.valid = false;
    AnalysisOutcome outcome = analyzeWithIndex(
        design, spef, opt, *index, state, opt.snapshot != nullptr, nullptr);
    if (opt.snapshot != nullptr && outcome.clean()) {
        opt.snapshot->design = &design;
        opt.snapshot->instanceCount = design.instances().size();
        opt.snapshot->fingerprint = fingerprintOf(opt);
        opt.snapshot->index = std::move(index);
        opt.snapshot->explicitWindows = opt.propagate && opt.windows != nullptr
                                            ? *opt.windows
                                            : TimingWindows{};
        opt.snapshot->valid = true;
    }
    if (opt.lint != lint::Mode::off && opt.lintOut != nullptr) {
        appendResilienceLint(*opt.lintOut, outcome);
    }
    return outcome;
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
    requireNoClusterWindows(opt);
    IncrementalStats localStats;
    IncrementalStats& st = statsOut != nullptr ? *statsOut : localStats;
    st = IncrementalStats{};

    // Delta validity (SNA-L501/L502) gates the run before the snapshot is
    // touched: a typo'd delta marks nothing dirty and would otherwise
    // silently splice stale results for the net the user meant.
    lint::LintReport deltaReport;
    if (opt.lint != lint::Mode::off) {
        deltaReport = lint::lintDelta(design, spef, delta);
        runLintGate(deltaReport, opt, nullptr);
    }

    const std::string fp = fingerprintOf(opt);
    const bool reusable =
        snapshot.valid && snapshot.index != nullptr &&
        snapshot.design == &design && snapshot.fingerprint == fp &&
        snapshot.instanceCount == design.instances().size() &&
        !delta.connectivityChanged;
    if (!reusable) {
        // No splice possible — first run, different design/options, or a
        // connectivity change (which may have reallocated the instance
        // storage the retained index points into). Run the full pipeline
        // and capture a fresh snapshot so the NEXT iteration can go
        // incremental.
        st.indexRebuilt = true;
        DesignNoiseOptions full = opt;
        full.snapshot = &snapshot;
        AnalysisOutcome outcome = analyzeDesignOutcome(design, spef, full);
        if (opt.lint != lint::Mode::off && opt.lintOut != nullptr) {
            // The full re-lint overwrote lintOut; the delta findings (all
            // waived here, or strict would have thrown above) still belong
            // in front of it.
            opt.lintOut->diagnostics.insert(opt.lintOut->diagnostics.begin(),
                                            deltaReport.diagnostics.begin(),
                                            deltaReport.diagnostics.end());
        }
        // A partial or faulted full run captured no snapshot
        // (snapshot.index may even be null); the task counters then only
        // know what was actually produced.
        if (snapshot.valid && snapshot.index != nullptr) {
            st.totalTasks = opt.propagate
                                ? snapshot.index->taskGraph().nets.size()
                                : snapshot.victims.size();
            st.solvedVictimReports = snapshot.victims.size();
            st.windowNetsRepropagated = snapshot.netWindows.size();
        } else {
            st.totalTasks = outcome.reports.size() + outcome.unsolvedNets.size();
            st.solvedVictimReports = outcome.reports.size();
        }
        st.dirtyTasks = st.totalTasks;
        return outcome;
    }

    DesignIndex& index = *snapshot.index;
    index.setTimingWindows(opt.propagate ? opt.windows : nullptr);
    // The index, the windows and the slots are refreshed in place from
    // here on: until this call's run completes cleanly the snapshot is no
    // splice input (an exception below leaves it invalid).
    snapshot.valid = false;

    DesignNoiseOptions run = opt;
    run.snapshot = nullptr;  // the run refreshes `snapshot` explicitly
    charlib::CharCache iterationCache;
    if (run.cache == nullptr) run.cache = &iterationCache;

    // ---- seeds: what the delta touched directly -------------------------
    // Window sources are the nets whose window inputs changed: the pins of
    // a re-bound instance (its output net's driver cell) and the nets whose
    // explicit window was added, removed, or changed.
    const bool useWindows = run.propagate && run.windows != nullptr;
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
    std::vector<int> moved;
    if (useWindows) {
        if (diffExplicitWindows(snapshot.explicitWindows, *run.windows,
                                addWindowSource)) {
            snapshot.explicitWindows = *run.windows;
        }
        st.windowNetsRepropagated =
            propagateWindowCone(index, run.cache, run.windows, windowSources,
                                snapshot.netWindows, &moved);
        for (const int id : moved) {
            seeds.insert(tg->nets[static_cast<std::size_t>(id)]);
        }
    }

    // The must-solve set; the run adds its downstream closure.
    std::unordered_set<std::string> mustSolve =
        expandDirtyCone(index, seeds, &st.coupledNeighbors);

    // Safety net: a victim the snapshot never recorded must be solved
    // (with its cone), not spliced-as-absent. Unreachable without a
    // connectivity change, but a wrong must-solve set must degrade to extra
    // work, never to a missing report. "Victim" is phase 1's own predicate:
    // a net coupled only to undriven nets heads no cluster, and must not be
    // seeded on every call. The same scan notices a retained victim whose
    // SPEF section is gone: the victim list is then reselected.
    std::unordered_set<std::string> unrecorded;
    std::size_t retainedVictims = 0;
    for (const auto& [netName, spefNet] : spef.nets()) {
        if (snapshot.slotOf.count(netName) != 0) {
            ++retainedVictims;
            continue;
        }
        if (mustSolve.count(netName) == 0 &&
            selectVictim(index, spef, netName, run.maxAggressors)) {
            unrecorded.insert(netName);
        }
    }
    if (!unrecorded.empty()) {
        seeds.insert(unrecorded.begin(), unrecorded.end());
        mustSolve = expandDirtyCone(index, seeds, &st.coupledNeighbors);
    }
    st.seedNets = seeds.size();

    IncrementalContext ctx;
    ctx.mustSolve = &mustSolve;
    ctx.movedWindows = &moved;
    ctx.stats = &st;
    ctx.reselect = retainedVictims != snapshot.victims.size();
    AnalysisOutcome outcome =
        analyzeWithIndex(design, spef, run, index, snapshot, true, &ctx);
    // The index was patched and the slots rewritten in place; an
    // incomplete or faulted run therefore poisons the snapshot — its
    // retained reports no longer match the index state, so the next
    // iteration must fall back to a full run.
    snapshot.valid = outcome.clean();
    if (opt.lint != lint::Mode::off && opt.lintOut != nullptr) {
        appendResilienceLint(*opt.lintOut, outcome);
    }
    return outcome;
}

std::vector<NetNoiseReport> analyzeDesignIncremental(
    const Design& design, const parser::SpefFile& spef,
    const DesignDelta& delta, AnalysisSnapshot& snapshot,
    const DesignNoiseOptions& opt, IncrementalStats* statsOut) {
    return reportsOrThrow(analyzeDesignIncrementalOutcome(
        design, spef, delta, snapshot, opt, statsOut));
}

std::vector<NetNoiseReport> analyzeDesignReference(
    const Design& design, const parser::SpefFile& spef,
    const DesignNoiseOptions& opt) {
    requireNoClusterWindows(opt);
    std::vector<NetNoiseReport> reports;
    const cell::CellLibrary& lib = design.library();

    for (const auto& [netName, spefNet] : spef.nets()) {
        auto aggressors = spef.aggressorsOf(netName);
        if (aggressors.empty()) continue;
        const Instance* driver = design.driverOf(netName);
        if (driver == nullptr) {
            log::warn() << "SPEF net '" << netName
                        << "' has coupling but no driver in the design";
            continue;
        }
        const auto loads = design.loadsOf(netName);
        if (loads.empty()) continue;

        // The pre-index cost model: coupling caps may be listed under either
        // net's section, so every (victim, aggressor) pair rescans all nets.
        auto ownerOf = [](const std::string& node) {
            return node.substr(0, node.find(':'));
        };
        std::vector<std::pair<double, std::string>> ranked;
        for (const auto& agg : aggressors) {
            if (spef.nets().find(agg) == spef.nets().end()) continue;
            if (design.driverOf(agg) == nullptr) continue;
            double cc = 0.0;
            for (const auto& [otherName, otherNet] : spef.nets()) {
                for (const auto& cap : otherNet.caps) {
                    if (cap.node2.empty()) continue;
                    const std::string o1 = ownerOf(cap.node1);
                    const std::string o2 = ownerOf(cap.node2);
                    if ((o1 == netName && o2 == agg) ||
                        (o2 == netName && o1 == agg)) {
                        cc += cap.farads;
                    }
                }
            }
            ranked.push_back({cc, agg});
        }
        std::sort(ranked.begin(), ranked.end(), [](const auto& a,
                                                   const auto& b) {
            return a.first != b.first ? a.first > b.first
                                      : a.second < b.second;
        });
        if (ranked.size() > opt.maxAggressors) {
            ranked.resize(opt.maxAggressors);
        }
        if (ranked.empty()) continue;

        std::vector<std::string> clusterNets{netName};
        for (const auto& [cc, agg] : ranked) clusterNets.push_back(agg);
        const ic::RcNetwork rc = ic::rcFromSpef(spef, clusterNets);

        std::vector<std::pair<std::string, std::string>> rankedAggressors;
        for (const auto& [cc, agg] : ranked) {
            rankedAggressors.push_back({design.driverOf(agg)->cellName, agg});
        }
        // Uncached, serial cluster analysis: every cluster re-characterizes.
        ReportOptions ropt = opt.report;
        ropt.macromodel.cache = nullptr;
        reports.push_back(analyzeVictim(lib, netName, *driver,
                                        *loads.front().first,
                                        rankedAggressors, rc, opt.tstop,
                                        ropt));
        // Surface the non-winning drivers of a multiply-driven net, same
        // as the indexed path.
        for (const auto& inst : design.instances()) {
            const cell::Cell& c = lib.cell(inst.cellName);
            const auto out = inst.pinToNet.find(c.outputName());
            if (out != inst.pinToNet.end() && out->second == netName &&
                &inst != driver) {
                reports.back().otherDrivers.push_back(inst.name);
            }
        }
        std::sort(reports.back().otherDrivers.begin(),
                  reports.back().otherDrivers.end());
    }
    return reports;
}

}  // namespace sna::core
