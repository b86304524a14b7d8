#include "core/alignment.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/error.hpp"
#include "util/log.hpp"

namespace sna::core {

namespace {

constexpr double kQuiet = std::numeric_limits<double>::infinity();

/// Feasible interval of one search variable; `active == false` means the
/// variable is window-excluded and fixed (quiet aggressor).
struct Axis {
    double lo = 0.0;
    double hi = 0.0;
    bool active = true;
};

double clampTo(double t, const Axis& ax) {
    return std::min(std::max(t, ax.lo), ax.hi);
}

// Initial guess: align every contributor's estimated peak time at a common
// instant T (far enough from t=0 for settling).
struct InitialTimes {
    std::vector<double> agg;
    double glitch;
};

InitialTimes peakAlignedInit(const ClusterMacromodel& model) {
    const ClusterSpec& spec = model.spec();
    const double tCenter = 0.35 * spec.tstop;
    InitialTimes init;
    for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
        const auto& m = model.aggressorModels()[a];
        // Injected noise peaks roughly when the aggressor ramp ends.
        init.agg.push_back(tCenter - m.delay - m.slew);
    }
    // Propagated glitch peaks about half a width after its onset.
    init.glitch = tCenter - 0.5 * spec.victim.glitchWidth;
    return init;
}

std::vector<std::uint64_t> probeKey(const std::vector<double>& aggTimes,
                                    double glitchTime) {
    std::vector<std::uint64_t> key;
    key.reserve(aggTimes.size() + 1);
    const auto put = [&key](double t) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &t, sizeof bits);
        key.push_back(bits);
    };
    for (const double t : aggTimes) put(t);
    put(glitchTime);
    return key;
}

/// The per-aggressor windows of `windows`, or null when it leaves every
/// aggressor free.
const std::vector<TimingWindow>* aggressorWindows(
    const ClusterSpec& spec, const AlignmentWindows* windows) {
    if (windows == nullptr || windows->aggressors.empty()) return nullptr;
    SNA_REQUIRE(windows->aggressors.size() == spec.aggressors.size(),
                "need one aggressor window per aggressor (or none)");
    return &windows->aggressors;
}

/// When an offered probe replaces the incumbent.
enum class Adopt {
    always,     ///< the first probe of a search
    ifNotWorse, ///< the spec's own alignment: wins ties
    ifBetter,   ///< every other probe
};

/// A search's incumbent, fed one probe at a time through the memo.
struct Incumbent {
    const ClusterMacromodel& model;
    ProbeMemo& memo;
    AlignmentResult best;
    double bestVal = 0.0;

    bool wins(double val, Adopt rule) const {
        return rule == Adopt::always ||
               (rule == Adopt::ifNotWorse ? val >= bestVal : val > bestVal);
    }

    /// A memoized probe costs no transient unless it wins: a search's own
    /// repeats never do (bestVal is the maximum of the values it has seen;
    /// a tie under ifNotWorse can only re-adopt the incumbent itself), but a
    /// probe first simulated by another search on the model can, and is
    /// then re-run for its waveform.
    void offer(const std::vector<double>& aggTimes, double glitchTime,
               Adopt rule) {
        if (rule != Adopt::always) {
            if (const auto known = memo.find(aggTimes, glitchTime)) {
                if (!wins(*known, rule) ||
                    probeKey(aggTimes, glitchTime) ==
                        probeKey(best.aggressorSwitchTimes,
                                 best.glitchTime)) {
                    return;
                }
            }
        }
        NoiseResult r = model.analyzeAt(aggTimes, glitchTime);
        const double val = std::abs(r.metrics.peak);
        ++best.evaluations;
        memo.record(aggTimes, glitchTime, val);
        if (wins(val, rule)) {
            bestVal = val;
            best.aggressorSwitchTimes = aggTimes;
            best.glitchTime = glitchTime;
            best.worst = std::move(r);
        }
    }
};

}  // namespace

std::optional<double> ProbeMemo::find(const std::vector<double>& aggTimes,
                                      double glitchTime) const {
    const auto it = values_.find(probeKey(aggTimes, glitchTime));
    if (it == values_.end()) return std::nullopt;
    return it->second;
}

void ProbeMemo::record(const std::vector<double>& aggTimes, double glitchTime,
                       double value) {
    values_.emplace(probeKey(aggTimes, glitchTime), value);
}

double glitchHorizon(double tstop, double glitchBase) {
    return std::max(tstop, 6.0 * glitchBase);
}

TimingWindow glitchOnsetInterval(const TimingWindow& w, double glitchBase,
                                 double tstop) {
    return {std::max(0.0, w.earliest - glitchBase),
            std::min(0.8 * tstop, w.latest)};
}

AlignmentTimes fixedAlignment(const ClusterSpec& spec,
                              const AlignmentWindows* windows) {
    const std::vector<TimingWindow>* aggWindows =
        aggressorWindows(spec, windows);
    AlignmentTimes at;
    at.aggressorSwitchTimes.reserve(spec.aggressors.size());
    for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
        at.aggressorSwitchTimes.push_back(
            aggWindows != nullptr && (*aggWindows)[a].empty()
                ? kQuiet
                : spec.aggressors[a].switchTime);
    }
    at.glitchTime = spec.victim.glitchTime;
    if (windows != nullptr && windows->glitch.bounded()) {
        const TimingWindow onsets = glitchOnsetInterval(
            windows->glitch, spec.victim.glitchWidth, spec.tstop);
        if (!onsets.empty()) {
            at.glitchTime =
                clampTo(at.glitchTime, {onsets.earliest, onsets.latest});
        }
    }
    return at;
}

AlignmentResult findWorstAlignment(const ClusterMacromodel& model,
                                   const AlignmentOptions& opt,
                                   ProbeMemo* memo,
                                   const AlignmentWindows* windows) {
    ProbeMemo own(model);
    if (memo == nullptr) memo = &own;
    SNA_REQUIRE(&memo->model() == &model,
                "a probe memo is only valid on the model it was filled on");
    const ClusterSpec& spec = model.spec();
    const bool hasGlitch = spec.victim.glitchHeight > 0.0;
    const double tMax = 0.8 * spec.tstop;

    // ---- feasible interval per search variable ---------------------------
    // Aggressor windows constrain the OUTPUT transition [t + delay,
    // t + delay + slew]; it overlaps window w iff the INPUT switch time t
    // lies in [w.earliest - delay - slew, w.latest - delay]. The glitch
    // window constrains the triangle occupancy [g, g + glitchWidth], so the
    // onset interval is [w.earliest - glitchWidth, w.latest]. Everything is
    // additionally clamped to [0, 0.8 tstop]: before t = 0 the stimulus is
    // truncated and the objective misleading.
    const std::vector<TimingWindow>* aggWindows =
        aggressorWindows(spec, windows);
    std::vector<Axis> aggAxis(spec.aggressors.size());
    for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
        Axis ax{0.0, tMax, true};
        if (aggWindows != nullptr) {
            const TimingWindow& w = (*aggWindows)[a];
            const auto& m = model.aggressorModels()[a];
            if (w.empty()) {
                ax.active = false;
            } else {
                ax.lo = std::max(0.0, w.earliest - m.delay - m.slew);
                ax.hi = std::min(tMax, w.latest - m.delay);
                ax.active = ax.lo <= ax.hi;
            }
        }
        aggAxis[a] = ax;
    }
    Axis glitchAxis{0.0, tMax, hasGlitch};
    if (hasGlitch && windows != nullptr && windows->glitch.bounded()) {
        const TimingWindow onsets = glitchOnsetInterval(
            windows->glitch, spec.victim.glitchWidth, spec.tstop);
        SNA_REQUIRE(!onsets.empty(),
                    "glitch window leaves no feasible onset; drop the "
                    "glitch candidate instead");
        glitchAxis.lo = onsets.earliest;
        glitchAxis.hi = onsets.latest;
    }

    InitialTimes times = peakAlignedInit(model);
    for (std::size_t a = 0; a < times.agg.size(); ++a) {
        times.agg[a] =
            aggAxis[a].active ? clampTo(times.agg[a], aggAxis[a]) : kQuiet;
    }
    if (hasGlitch) times.glitch = clampTo(times.glitch, glitchAxis);

    Incumbent search{model, *memo, {}, 0.0};
    search.offer(times.agg, times.glitch, Adopt::always);

    // The spec's own alignment is a free candidate — never return worse
    // than what the caller would get without the search. Clamped into the
    // feasible intervals, and preferred on ties so a flat landscape keeps
    // the caller's alignment.
    {
        std::vector<double> specTimes;
        for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
            specTimes.push_back(aggAxis[a].active
                                    ? clampTo(spec.aggressors[a].switchTime,
                                              aggAxis[a])
                                    : kQuiet);
        }
        const double specGlitch =
            hasGlitch ? clampTo(spec.victim.glitchTime, glitchAxis)
                      : times.glitch;
        search.offer(specTimes, specGlitch, Adopt::ifNotWorse);
    }

    // Coordinate refinement over the ACTIVE axes only: window-excluded
    // aggressors stay quiet, and with glitchHeight == 0 there is no glitch
    // axis to probe at all (the dead axis is skipped, not searched).
    const std::size_t vars = times.agg.size() + (hasGlitch ? 1 : 0);
    double window = opt.window;
    for (int round = 0; round < opt.rounds; ++round) {
        for (std::size_t v = 0; v < vars; ++v) {
            const bool isGlitch = hasGlitch && v == times.agg.size();
            const Axis& ax = isGlitch ? glitchAxis : aggAxis[v];
            if (!ax.active) continue;
            const AlignmentResult& best = search.best;
            const double center = isGlitch
                                      ? best.glitchTime
                                      : best.aggressorSwitchTimes[v];
            // Points the clamp collapses onto a bound, and the centre
            // point when it reproduces the incumbent, are memo hits.
            for (int k = 0; k < opt.coarsePoints; ++k) {
                const double t = clampTo(
                    center - 0.5 * window +
                        window * k / std::max(1, opt.coarsePoints - 1),
                    ax);
                auto aggTimes = best.aggressorSwitchTimes;
                double glitchTime = best.glitchTime;
                if (isGlitch) {
                    glitchTime = t;
                } else {
                    aggTimes[v] = t;
                }
                search.offer(aggTimes, glitchTime, Adopt::ifBetter);
            }
        }
        window /= 3.0;
    }
    log::debug() << "alignment search: " << search.best.evaluations
                 << " evaluations, worst peak "
                 << search.best.worst.metrics.peak;
    return std::move(search.best);
}

AlignmentResult bruteForceWorstAlignment(const ClusterMacromodel& model,
                                         double window, int pointsPerAxis) {
    SNA_REQUIRE(pointsPerAxis >= 2, "grid needs >= 2 points per axis");
    const ClusterSpec& spec = model.spec();
    const bool hasGlitch = spec.victim.glitchHeight > 0.0;
    const InitialTimes init = peakAlignedInit(model);
    const std::size_t vars = init.agg.size() + (hasGlitch ? 1 : 0);
    SNA_REQUIRE(vars >= 1, "nothing to align");

    // Same bounds as the search: before t = 0 the stimulus is truncated,
    // and past 0.8 tstop a ramp or glitch no longer fits the simulation.
    const Axis bounds{0.0, 0.8 * spec.tstop, true};
    std::vector<int> idx(vars, 0);
    ProbeMemo memo(model);
    Incumbent search{model, memo, {}, -1.0};
    bool done = false;
    while (!done) {
        std::vector<double> aggTimes = init.agg;
        double glitchTime = init.glitch;
        for (std::size_t v = 0; v < vars; ++v) {
            const double center =
                (hasGlitch && v == init.agg.size()) ? init.glitch
                                                    : init.agg[v];
            const double t = clampTo(center - 0.5 * window +
                                         window * idx[v] / (pointsPerAxis - 1),
                                     bounds);
            if (hasGlitch && v == init.agg.size()) {
                glitchTime = t;
            } else {
                aggTimes[v] = t;
            }
        }
        search.offer(aggTimes, glitchTime, Adopt::ifBetter);
        // Advance the multi-index.
        done = true;
        for (std::size_t v = 0; v < vars; ++v) {
            if (++idx[v] < pointsPerAxis) {
                done = false;
                break;
            }
            idx[v] = 0;
        }
    }
    return std::move(search.best);
}

}  // namespace sna::core
