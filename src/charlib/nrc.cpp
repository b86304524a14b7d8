#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "charlib/characterize.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "waveform/sources.hpp"

namespace sna::charlib {

namespace {

// Quiet input vector: sensitized on `input` with that pin at quietLevel.
std::map<std::string, bool> sensitizedQuietVector(const NrcSpec& spec) {
    const cell::Cell& cellRef = *spec.cell;
    std::map<std::string, bool> quiet;
    bool found = false;
    for (const bool outLevel : {false, true}) {
        try {
            auto vec = cellRef.holdingVector(outLevel, spec.input);
            if (vec.at(spec.input) == spec.quietLevel) {
                quiet = vec;
                found = true;
                break;
            }
        } catch (const ModelError&) {
            continue;
        }
    }
    SNA_REQUIRE(found, "no sensitized quiet vector for NRC of '" +
                           cellRef.name() + "/" + spec.input + "'");
    return quiet;
}

// Does a glitch of (height, width) at the receiver input, with the other
// inputs held at `quiet`, propagate a failure (output deviation beyond
// failFraction of the swing)? The verdict is fixed by the first sample that
// deviates that far, so the transient stops there; a glitch that never does
// runs to the end.
bool glitchFails(const NrcSpec& spec, const std::map<std::string, bool>& quiet,
                 double height, double width) {
    const cell::Cell& cellRef = *spec.cell;
    const double vdd = cellRef.technology().vdd;
    const bool outLevel = cellRef.evaluate(quiet);
    const double outBaseline = outLevel ? vdd : 0.0;
    const double inBaseline = spec.quietLevel ? vdd : 0.0;
    const double dir = spec.quietLevel ? -1.0 : +1.0;
    const double t0 = 50e-12;
    const double tStop = t0 + width + std::max(1.5e-9, 5 * width);

    spice::Circuit ckt;
    const auto outNode = detail::buildCellBench(
        ckt, cellRef, quiet, detail::BenchOutput::Load, spec.loadCap,
        spec.input,
        wave::triangleGlitch(inBaseline, dir * height, t0, width, tStop));

    spice::TranOptions opt;
    opt.tstop = tStop;
    bool fails = false;
    opt.stopWhen = [&](const spice::TranSample& s) {
        fails = std::abs(s.voltage(outNode) - outBaseline) >=
                spec.failFraction * vdd;
        return fails;
    };
    spice::simulateTransient(ckt, opt);
    return fails;
}

}  // namespace

double nrcFailHeight(const NrcSpec& spec, double width) {
    SNA_REQUIRE(spec.cell != nullptr, "NRC spec needs a cell");
    const double vdd = spec.cell->technology().vdd;
    const auto quiet = sensitizedQuietVector(spec);
    // Bisect the failing height in [0, 1.4 vdd]; failure is monotone in
    // height for static CMOS receivers.
    double lo = 0.0;
    double hi = 1.4 * vdd;
    if (!glitchFails(spec, quiet, hi, width)) return hi;  // nothing fails
    for (int it = 0; it < 12; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (glitchFails(spec, quiet, mid, width)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    return 0.5 * (lo + hi);
}

la::Grid1d characterizeNrc(const NrcSpec& spec) {
    SNA_REQUIRE(spec.cell != nullptr, "NRC spec needs a cell");
    SNA_REQUIRE(spec.widths.size() >= 2, "NRC needs at least two widths");
    std::vector<double> hFail;
    hFail.reserve(spec.widths.size());
    for (const double w : spec.widths) hFail.push_back(nrcFailHeight(spec, w));
    return la::Grid1d(spec.widths, std::move(hFail));
}

}  // namespace sna::charlib
