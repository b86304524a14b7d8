// Experiment A1 — ablation of the interconnect-reduction design choice
// (DESIGN.md, key decision 4): coupled-Pi driving-point model vs PRIMA
// reduced multiport (several Krylov block counts) vs the unreduced RC,
// all under the same non-linear victim macromodel.
//
// Reports the victim driving-point error versus the full-RC reference, the
// engine sizes, and timings. The paper uses the moment-matched
// driving-point model ([8]); this bench quantifies what that buys.
#include "bench_common.hpp"

#include <chrono>

int main() {
    using namespace bench;
    auto spec = paperCluster(/*aggressors=*/2);
    spec.segments = 32;  // dense extraction so the reduction has work to do
    const std::vector<double> aggTimes{0.4e-9, 0.4e-9};
    const double glitchTime = 0.4e-9;

    const core::ClusterMacromodel pi(spec);
    // The reference: the macromodel's drivers and receiver caps around the
    // FULL RC network (reduction ablated away).
    const auto start = std::chrono::steady_clock::now();
    spice::Circuit ckt;
    const auto dp = pi.buildVictimDriver(ckt, "dp_vic", glitchTime);
    const auto drvNodes = pi.buildDrivers(ckt, dp, aggTimes);
    pi.buildReceivers(ckt, pi.interconnect().buildInto(ckt, "rc:", drvNodes));
    const auto full = core::simulateCluster(ckt, spec.tstop, "dp_vic",
                                            pi.outputHoldLevel(), start);

    util::Table t({"Interconnect model", "Engine nodes", "Run (ms)",
                   "Peak err% vs full RC", "Area err%", "Waveform rms (mV)"});
    auto addRow = [&](const std::string& name, const core::NoiseResult& r) {
        t.addRow({name, std::to_string(r.engineNodes),
                  util::Table::num(r.runtimeSec * 1e3, 3),
                  util::Table::pct(pctError(r.metrics.peak, full.metrics.peak)),
                  util::Table::pct(pctError(r.metrics.area, full.metrics.area)),
                  util::Table::num(
                      wave::rmsDifference(r.waveform, full.waveform) * 1e3,
                      2)});
    };
    addRow("full RC (reference)", full);
    addRow("coupled-Pi (paper choice)",
           pi.analyzeAt(aggTimes, glitchTime));
    for (const int blocks : {1, 2, 3, 5}) {
        core::MacromodelOptions opt;
        opt.usePrima = true;
        opt.primaBlocks = blocks;
        const core::ClusterMacromodel prima(spec, opt);
        addRow("PRIMA q=" + std::to_string(blocks) + " blocks",
               prima.analyzeAt(aggTimes, glitchTime));
    }
    std::printf("Interconnect reduction ablation (victim + 2 aggressors, "
                "32 segments/wire)\n\n%s\n", t.str().c_str());
    std::printf("expected shape: coupled-Pi within a few %% of full RC at a "
                "fraction of the nodes; PRIMA converges to full RC as "
                "blocks grow\n");
    return 0;
}
