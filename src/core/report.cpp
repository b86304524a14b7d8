#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/error.hpp"

namespace sna::core {

std::vector<double> NrcOptions::grid() const {
    SNA_REQUIRE(widthMin > 0.0 && widthLimit > widthMin,
                "NRC width grid needs 0 < widthMin < widthLimit");
    SNA_REQUIRE(growth > 1.0, "NRC width grid growth must be > 1");
    std::vector<double> grid;
    for (double p = widthMin; p < widthLimit; p *= growth) {
        grid.push_back(p);
    }
    return grid;
}

namespace {

/// The NRC check and the glitch bookkeeping every report ends with, once
/// its worst alignment is known.
ClusterReport finishReport(const ClusterSpec& spec, const ReportOptions& opt,
                           ClusterReport report) {
    report.nrcLimit = nrcLimitFor(spec, report.worst.metrics,
                                  opt.macromodel.cache, opt.nrc);
    const double height = std::abs(report.worst.metrics.peak);
    report.fails = height >= report.nrcLimit;
    report.margin = report.nrcLimit - height;
    report.glitchInHeight = spec.victim.glitchHeight;
    report.glitchInWidth = spec.victim.glitchHeight > 0.0
                               ? spec.victim.glitchWidth
                               : 0.0;
    return report;
}

/// Whether `at` is the spec's own alignment, bit for bit.
bool isSpecAlignment(const AlignmentTimes& at, const ClusterSpec& spec) {
    const auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
        if (!same(at.aggressorSwitchTimes[a], spec.aggressors[a].switchTime)) {
            return false;
        }
    }
    return same(at.glitchTime, spec.victim.glitchTime);
}

}  // namespace

double nrcLimitFor(const ClusterSpec& spec, const wave::GlitchMetrics& m,
                   charlib::CharCache* cache, const NrcOptions& nrcOpt) {
    const cell::CellLibrary& lib = cell::sharedLibrary(*spec.technology);
    charlib::NrcSpec nrc;
    nrc.cell = &lib.cell(spec.victim.receiverCell);
    nrc.input = receiverPin(*nrc.cell);
    // Quiet receiver input level = the victim's held level.
    nrc.quietLevel = spec.victim.outputLevel;
    // Probing the exact width is uncached by design: keys would embed the
    // bitwise width, so a shared cache would accumulate one near-unhittable
    // entry per glitch.
    if (nrcOpt.interp == NrcOptions::Interp::kExact) {
        // Validation reference: probe the exact measured width.
        return charlib::nrcFailHeight(nrc, std::max(m.width, nrcOpt.widthMin));
    }
    // Default: read the curve on the canonical width grid, which is what
    // makes it cacheable across every cluster of a run, and evaluate the
    // measured width by interpolation. Half-octave spacing with log-width
    // interpolation keeps the deviation from an exact-width probe within
    // ~0.15% — the bisection's own resolution.
    const std::vector<double> grid = nrcOpt.grid();
    SNA_REQUIRE(grid.size() >= 2, "NRC width grid needs >= 2 points");
    const double w = std::max(m.width, grid.front());
    if (w > grid.back()) {
        // Wider than the canonical grid (only reachable when tstop is raised
        // above its default): clamping would read the limit of a narrower
        // glitch, which is optimistic. Probe the actual width instead.
        return charlib::nrcFailHeight(nrc, w);
    }
    // Each width bisects independently, so the two grid points bracketing w
    // are all the curve this lookup reads; a width on a node reads that
    // node alone.
    std::size_t i = 0;
    while (i + 2 < grid.size() && grid[i + 1] <= w) ++i;
    std::vector<double> widths = {grid[i]};
    if (w != grid[i]) widths.push_back(grid[i + 1]);
    std::vector<double> h;
    if (cache != nullptr) {
        h = cache->nrcHeights(nrc, widths);
    } else {
        for (const double x : widths) {
            h.push_back(charlib::nrcFailHeight(nrc, x));
        }
    }
    if (h.size() == 1) return h[0];
    const double t = (std::log(w) - std::log(grid[i])) /
                     (std::log(grid[i + 1]) - std::log(grid[i]));
    return h[0] + t * (h[1] - h[0]);
}

ClusterReport analyzeCluster(const ClusterSpec& spec,
                             const ReportOptions& opt) {
    const ClusterMacromodel model(spec, opt.macromodel);
    return analyzeCluster(model, opt);
}

ClusterReport analyzeCluster(const ClusterMacromodel& model,
                             const ReportOptions& opt,
                             const AlignmentWindows* windows,
                             ClusterReport* unconstrained) {
    const ClusterSpec& spec = model.spec();
    ProbeMemo memo(model);
    // The verdict under `w`: the worst alignment the search finds inside
    // the windows, or the fixed alignment they leave.
    const auto verdict = [&](const AlignmentWindows* w) {
        ClusterReport report;
        if (opt.searchAlignment) {
            AlignmentResult align =
                findWorstAlignment(model, opt.alignment, &memo, w);
            report.worst = std::move(align.worst);
            report.aggressorSwitchTimes =
                std::move(align.aggressorSwitchTimes);
            report.glitchTime = align.glitchTime;
        } else {
            AlignmentTimes at = fixedAlignment(spec, w);
            report.worst =
                model.analyzeAt(at.aggressorSwitchTimes, at.glitchTime);
            report.aggressorSwitchTimes = std::move(at.aggressorSwitchTimes);
            report.glitchTime = at.glitchTime;
        }
        return finishReport(spec, opt, std::move(report));
    };
    // Where the windows constrain nothing, or move no bit of the fixed
    // alignment, the windowed run would repeat the unconstrained one bit
    // for bit: one run serves both.
    if (windows == nullptr ||
        (!opt.searchAlignment &&
         isSpecAlignment(fixedAlignment(spec, windows), spec))) {
        ClusterReport report = verdict(windows);
        if (unconstrained != nullptr) *unconstrained = report;
        return report;
    }
    if (unconstrained != nullptr) *unconstrained = verdict(nullptr);
    return verdict(windows);
}

}  // namespace sna::core
