#include "core/propagate.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>

namespace sna::core {

namespace {

/// A dominates B when it is at least as tall AND at least as wide (the NRC
/// is non-increasing in width, so A is at least as damaging everywhere).
/// Works on any type exposing .height/.width.
template <typename A, typename B>
bool dominates(const A& a, const B& b) {
    return a.height >= b.height && a.width >= b.width;
}

/// Cap an already-sorted front at kMaxSurviving, keeping the extremes
/// (first and last entries) and an even spread between.
template <typename T>
void capFront(std::vector<T>& front) {
    if (front.size() <= kMaxSurviving) return;
    std::vector<T> kept;
    const std::size_t n = front.size();
    for (std::size_t k = 0; k < kMaxSurviving; ++k) {
        kept.push_back(front[k * (n - 1) / (kMaxSurviving - 1)]);
    }
    front = std::move(kept);
}

}  // namespace

void mergeSurviving(SurvivingSet& set, const SurvivingGlitch& g) {
    for (const auto& s : set) {
        if (dominates(s, g)) return;
    }
    set.erase(std::remove_if(set.begin(), set.end(),
                             [&g](const SurvivingGlitch& s) {
                                 return dominates(g, s);
                             }),
              set.end());
    set.push_back(g);
    // Height descending; on a Pareto front this makes width ascending.
    std::sort(set.begin(), set.end(),
              [](const SurvivingGlitch& a, const SurvivingGlitch& b) {
                  if (a.height != b.height) return a.height > b.height;
                  return a.width > b.width;
              });
    capFront(set);
}

std::vector<IncomingGlitch> selectIncoming(
    const DesignIndex& index, const std::string& net,
    const std::function<const SurvivingSet*(const std::string&)>&
        survivingOf) {
    // Gather every (edge, glitch) candidate, then keep the Pareto front.
    std::vector<IncomingGlitch> cands;
    for (const auto& edge : index.faninOf(net)) {
        const SurvivingSet* set = survivingOf(edge.fromNet);
        if (set == nullptr) continue;
        for (const auto& sg : *set) {
            IncomingGlitch in;
            in.height = sg.height;
            in.width = sg.width;
            in.fromNet = edge.fromNet;
            in.inputPin = edge.pin;
            cands.push_back(std::move(in));
        }
    }
    std::vector<IncomingGlitch> front;
    for (const auto& c : cands) {
        const bool dominated = std::any_of(
            cands.begin(), cands.end(), [&c](const IncomingGlitch& o) {
                // Strict domination, so equal glitches keep exactly the
                // first edge in fanin order (see the duplicate filter).
                return dominates(o, c) &&
                       (o.height > c.height || o.width > c.width);
            });
        if (dominated) continue;
        const bool duplicate = std::any_of(
            front.begin(), front.end(), [&c](const IncomingGlitch& o) {
                return o.height == c.height && o.width == c.width;
            });
        if (!duplicate) front.push_back(c);
    }
    // mergeSurviving's ordering plus edge-label tie-breaks for determinism.
    std::sort(front.begin(), front.end(),
              [](const IncomingGlitch& a, const IncomingGlitch& b) {
                  if (a.height != b.height) return a.height > b.height;
                  if (a.width != b.width) return a.width > b.width;
                  if (a.fromNet != b.fromNet) return a.fromNet < b.fromNet;
                  return a.inputPin < b.inputPin;
              });
    capFront(front);
    return front;
}

TimingWindow propagateWindowThroughDriver(const cell::Cell& cell,
                                          const std::string& pin,
                                          const TimingWindow& fanin,
                                          charlib::CharCache* cache) {
    if (!fanin.bounded() || fanin.empty()) return fanin;
    // Stage delay bounds from the driver's Thevenin equivalents: the output
    // can start moving as early as the smaller insertion delay and can
    // still be moving as late as the larger delay plus that direction's
    // output slew ("widened by slew").
    double dMin = std::numeric_limits<double>::infinity();
    double dMax = -std::numeric_limits<double>::infinity();
    for (const bool rising : {false, true}) {
        charlib::TheveninSpec ts;
        ts.cell = &cell;
        ts.input = pin;
        ts.outputRising = rising;
        ts.loadCap = kPropagationLoadCap;
        const charlib::TheveninModel m =
            cache ? *cache->thevenin(ts) : charlib::characterizeThevenin(ts);
        dMin = std::min(dMin, m.delay);
        dMax = std::max(dMax, m.delay + m.slew);
    }
    return fanin.shifted(dMin, dMax);
}

std::size_t propagateWindowCone(const DesignIndex& index,
                                charlib::CharCache* cache,
                                const TimingWindows* windows,
                                const std::vector<int>& sources,
                                std::vector<TimingWindow>& byId,
                                std::vector<int>* moved) {
    const TimingWindows* explicitWindows =
        windows != nullptr ? windows : index.timingWindows();
    const NetTaskGraph& tg = index.taskGraph();
    const std::size_t n = tg.nets.size();
    byId.resize(n);
    std::vector<char> queued(n, 0);
    std::priority_queue<int, std::vector<int>, std::greater<int>> pending;
    const auto enqueue = [&](int id) {
        if (queued[static_cast<std::size_t>(id)]) return;
        queued[static_cast<std::size_t>(id)] = 1;
        pending.push(id);
    };
    for (const int id : sources) enqueue(id);

    std::size_t recomputed = 0;
    while (!pending.empty()) {
        const int id = pending.top();
        pending.pop();
        ++recomputed;
        const std::string& net = tg.nets[static_cast<std::size_t>(id)];
        TimingWindow window = TimingWindow::unbounded();
        const TimingWindow* given =
            explicitWindows != nullptr ? explicitWindows->find(net) : nullptr;
        if (given != nullptr) {
            window = *given;
        } else {
            bool any = false;
            for (const FaninEdge& edge : index.faninOf(net)) {
                const auto it = tg.idOf.find(edge.fromNet);
                const TimingWindow fanin =
                    it != tg.idOf.end() && it->second < id
                        ? byId[static_cast<std::size_t>(it->second)]
                        : TimingWindow::unbounded();
                const TimingWindow shifted = propagateWindowThroughDriver(
                    index.design().library().cell(edge.inst->cellName),
                    edge.pin, fanin, cache);
                window = any ? window.unite(shifted) : shifted;
                any = true;
            }
        }
        TimingWindow& slot = byId[static_cast<std::size_t>(id)];
        if (moved != nullptr && window != slot) moved->push_back(id);
        if (window.sameBits(slot)) continue;  // readers see the same bits
        slot = window;
        // Only later ids read this window (an earlier reader sits across a
        // cycle-broken edge and reads it as unbounded).
        for (const std::string& to : index.fanoutOf(net)) {
            const auto it = tg.idOf.find(to);
            if (it != tg.idOf.end() && it->second > id) enqueue(it->second);
        }
    }
    return recomputed;
}

std::unordered_map<std::string, TimingWindow> propagateWindows(
    const DesignIndex& index, charlib::CharCache* cache,
    const TimingWindows* windows) {
    const NetTaskGraph& tg = index.taskGraph();
    std::vector<int> every(tg.nets.size());
    std::iota(every.begin(), every.end(), 0);
    std::vector<TimingWindow> byId;
    propagateWindowCone(index, cache, windows, every, byId);
    std::unordered_map<std::string, TimingWindow> out;
    for (std::size_t id = 0; id < byId.size(); ++id) {
        out.emplace(tg.nets[id], byId[id]);
    }
    return out;
}

SurvivingGlitch propagateThroughDriver(const cell::Cell& cell,
                                       const std::string& pin,
                                       const IncomingGlitch& incoming,
                                       charlib::CharCache* cache) {
    const double vdd = cell.technology().vdd;
    const double base = 2.0 * incoming.width;  // triangle base of the glitch
    // Below the table's smallest characterized height or width, Grid2d::eval
    // would clamp UP to the border and hand a 1 mV (or 10 ps) glitch the
    // transfer of a 0.1*vdd (or 60 ps) one — a phantom that would never
    // decay along a quiet chain. Evaluate the border and scale linearly
    // instead: near the holding point a restoring CMOS stage is
    // small-signal linear in height, and a sub-grid-width pulse is in the
    // energy-limited regime where the output peak tracks the input area
    // (hence ~linearly, width at fixed height).
    const double hMin = charlib::canonicalPropagationHeights(vdd).front();
    const double wMin = charlib::canonicalPropagationWidths().front();
    const double evalHeight = std::max(incoming.height, hMin);
    const double evalBase = std::max(base, wMin);
    double scale = 1.0;
    if (incoming.height < hMin) scale *= incoming.height / hMin;
    if (base < wMin) scale *= base / wMin;

    SurvivingGlitch worst;
    // The quiet output level of a pass-through net is state-dependent;
    // evaluate both holding levels and keep the worse transfer (larger
    // area, taller on ties); the caller's Pareto merge keeps incomparable
    // outputs from other candidates alongside.
    for (const bool level : {false, true}) {
        charlib::PropagationSpec ps;
        ps.cell = &cell;
        ps.input = pin;
        ps.outputLevel = level;
        ps.loadCap = kPropagationLoadCap;
        ps.heights = charlib::canonicalPropagationHeights(vdd);
        ps.widths = charlib::canonicalPropagationWidths();
        std::shared_ptr<const charlib::PropagationTable> table;
        if (evalBase > ps.widths.back()) {
            // Wider than the canonical grid: clamping would read the
            // transfer of a narrower glitch, which is optimistic (wide
            // glitches are closer to DC and propagate more strongly).
            // Characterize the actual width instead, on just the two
            // heights bracketing the evaluation point (4 transients, not
            // the full grid) — uncached, since keys would embed the bitwise
            // width (same policy as the NRC's wide-glitch fallback).
            std::size_t i = 0;
            while (i + 2 < ps.heights.size() &&
                   ps.heights[i + 1] <= evalHeight) {
                ++i;
            }
            const double h0 = ps.heights[i];
            const double h1 = ps.heights[i + 1];
            ps.heights = {h0, h1};
            ps.widths = {0.5 * evalBase, evalBase};
            table = std::make_shared<const charlib::PropagationTable>(
                charlib::characterizePropagation(ps));
        } else {
            table = cache
                        ? cache->propagation(ps)
                        : std::make_shared<const charlib::PropagationTable>(
                              charlib::characterizePropagation(ps));
        }
        const double peak = scale * table->peak(evalHeight, evalBase);
        const double area = scale * table->area(evalHeight, evalBase);
        if (std::abs(peak) <= 1e-9) continue;
        SurvivingGlitch sg;
        sg.height = std::abs(peak);
        // A triangle of peak p and area A has 50% width A / p; fall back to
        // the incoming width when the area is degenerate.
        sg.width = std::abs(area) > 0.0 ? std::abs(area / peak)
                                        : incoming.width;
        const double sgArea = sg.height * sg.width;
        const double worstArea = worst.height * worst.width;
        if (sgArea > worstArea ||
            (sgArea == worstArea && sg.height > worst.height)) {
            worst = sg;
        }
    }
    return worst;
}

}  // namespace sna::core
