#include "charlib/characterize.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "waveform/metrics.hpp"
#include "waveform/sources.hpp"

namespace sna::charlib {

std::vector<double> canonicalPropagationHeights(double vdd) {
    return {0.1 * vdd, 0.25 * vdd, 0.4 * vdd, 0.55 * vdd,
            0.7 * vdd, 0.85 * vdd, 1.0 * vdd};
}

std::vector<double> canonicalPropagationWidths() {
    return {60e-12, 120e-12, 240e-12, 480e-12, 960e-12};
}

PropagationTable characterizePropagation(const PropagationSpec& spec) {
    SNA_REQUIRE(spec.cell != nullptr, "propagation spec needs a cell");
    SNA_REQUIRE(spec.heights.size() >= 2 && spec.widths.size() >= 2,
                "propagation table needs >= 2x2 grid");
    const cell::Cell& cellRef = *spec.cell;
    const double vdd = cellRef.technology().vdd;
    const auto holding = cellRef.holdingVector(spec.outputLevel, spec.input);
    const double inBaseline = holding.at(spec.input) ? vdd : 0.0;
    const double outBaseline = spec.outputLevel ? vdd : 0.0;
    // Glitch direction: toward the opposite input rail.
    const double dir = (inBaseline < 0.5 * vdd) ? +1.0 : -1.0;

    std::vector<double> zPeak, zArea;
    zPeak.reserve(spec.heights.size() * spec.widths.size());
    zArea.reserve(zPeak.capacity());
    for (const double h : spec.heights) {
        for (const double w : spec.widths) {
            const double t0 = 50e-12;
            const double tStop = t0 + w + std::max(2e-9, 6 * w);
            spice::Circuit ckt;
            detail::buildCellBench(
                ckt, cellRef, holding, detail::BenchOutput::Load,
                spec.loadCap, spec.input,
                wave::triangleGlitch(inBaseline, dir * h, t0, w, tStop));

            spice::TranOptions opt;
            opt.tstop = tStop;
            const auto res = spice::simulateTransient(ckt, opt);
            const auto m =
                wave::measureGlitch(res.waveform("out"), outBaseline);
            zPeak.push_back(m.peak);
            zArea.push_back(m.area);
        }
    }
    PropagationTable table;
    table.peak = la::Grid2d(spec.heights, spec.widths, std::move(zPeak));
    table.area = la::Grid2d(spec.heights, spec.widths, std::move(zArea));
    table.outputBaseline = outBaseline;
    return table;
}

}  // namespace sna::charlib
