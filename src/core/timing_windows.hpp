// Switching (arrival) windows for FRAME-style temporal correlation.
//
// The PR 2 wavefront injects every aggressor transition and every surviving
// glitch at its worst possible alignment — sound but pessimistic. A timing
// window [earliest, latest] per net bounds when that net can actually
// switch within the analysis cycle; the wavefront propagates windows along
// the levelized design graph (shifted by the stage's characterized delay,
// widened by its output slew) and the worst-alignment search then only
// probes alignments where an aggressor's (or incoming glitch's) window
// overlaps the victim's sensitivity interval. Disjoint windows drop the
// contributor from the worst-case combination entirely — the recovered
// pessimism the report surfaces as unconstrained-vs-windowed margins.
//
// Header-only on purpose: the text loader lives in parser/ (which must not
// link against core), so the shared type carries no out-of-line code.
#pragma once

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>

namespace sna::core {

/// A per-net switching window: the net can transition (and its noise can
/// occupy the wire) only inside [earliest, latest], absolute seconds on the
/// analysis time axis. The default is unbounded — no temporal information,
/// which reproduces the PR 2 worst-alignment behavior exactly.
struct TimingWindow {
    double earliest = -std::numeric_limits<double>::infinity();
    double latest = std::numeric_limits<double>::infinity();

    static TimingWindow unbounded() { return {}; }

    /// True when the window contains no instant at all.
    bool empty() const { return !(earliest <= latest); }

    /// True when at least one bound carries real information.
    bool bounded() const {
        return std::isfinite(earliest) || std::isfinite(latest);
    }

    TimingWindow intersect(const TimingWindow& o) const {
        return {earliest > o.earliest ? earliest : o.earliest,
                latest < o.latest ? latest : o.latest};
    }

    /// Union hull (windows are intervals; the wavefront keeps one interval
    /// per net, so the union of fanin windows is their hull).
    TimingWindow unite(const TimingWindow& o) const {
        return {earliest < o.earliest ? earliest : o.earliest,
                latest > o.latest ? latest : o.latest};
    }

    /// The window seen after a stage with insertion delay in [dMin, dMax]
    /// (dMax includes the output slew: the transition can still be moving
    /// that late). Infinite bounds stay infinite.
    TimingWindow shifted(double dMin, double dMax) const {
        return {std::isfinite(earliest) ? earliest + dMin : earliest,
                std::isfinite(latest) ? latest + dMax : latest};
    }

    bool operator==(const TimingWindow& o) const {
        return earliest == o.earliest && latest == o.latest;
    }
    bool operator!=(const TimingWindow& o) const { return !(*this == o); }

    /// Bit-for-bit equality (-0.0 differs from +0.0, a NaN equals itself):
    /// identical bits propagate to identical bits downstream.
    bool sameBits(const TimingWindow& o) const {
        return std::memcmp(&earliest, &o.earliest, sizeof(double)) == 0 &&
               std::memcmp(&latest, &o.latest, sizeof(double)) == 0;
    }
};

/// The per-net window input of a design run (loaded from a windows file or
/// built programmatically). Nets without an entry default to the unbounded
/// window. Ordered by net name for deterministic iteration.
class TimingWindows {
public:
    void set(const std::string& net, TimingWindow w) {
        windows_[net] = w;
    }

    /// The explicit window of `net`, or nullptr when none was given.
    const TimingWindow* find(const std::string& net) const {
        const auto it = windows_.find(net);
        return it == windows_.end() ? nullptr : &it->second;
    }

    /// The window of `net`: explicit entry or the unbounded default.
    TimingWindow of(const std::string& net) const {
        const TimingWindow* w = find(net);
        return w != nullptr ? *w : TimingWindow::unbounded();
    }

    bool empty() const { return windows_.empty(); }
    std::size_t size() const { return windows_.size(); }
    const std::map<std::string, TimingWindow>& all() const {
        return windows_;
    }

private:
    std::map<std::string, TimingWindow> windows_;
};

}  // namespace sna::core
