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

#include "mor/linear_network.hpp"
#include "spice/tran.hpp"

namespace {

using namespace bench;

// Macromodel run where the interconnect is the FULL RC network (reduction
// ablated away): table-VCCS victim + Thevenin aggressors + full ladder.
core::NoiseResult runFullRc(const core::ClusterSpec& spec,
                            const core::ClusterMacromodel& model,
                            const std::vector<double>& aggTimes,
                            double glitchTime) {
    const auto start = std::chrono::steady_clock::now();
    spice::Circuit ckt;
    const auto vin = ckt.node("vin");
    const auto ids = model.interconnect().buildInto(ckt, "rc:");
    const ic::RcNetwork& net = model.interconnect();
    const auto dp = ids[net.driverNode(0)];
    if (const auto glitch = core::victimInputGlitch(
            spec, model.inputHoldLevel(), glitchTime)) {
        ckt.addVSource("v_in", vin, spice::kGround,
                       spice::SourceSpec::pwl(*glitch));
    } else {
        ckt.addVSource("v_in", vin, spice::kGround,
                       spice::SourceSpec::dc(model.inputHoldLevel()));
    }
    ckt.addTableVccs("idc_victim", dp, vin, model.sharedLoadCurve());
    ckt.addCapacitor("cdrv0", dp, spice::kGround, model.driverCaps()[0]);
    for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
        const auto& m = model.aggressorModels()[a];
        const std::string inst = "agg" + std::to_string(a);
        const auto src = ckt.node(inst + "_th");
        ckt.addVSource("v_" + inst, src, spice::kGround,
                       spice::SourceSpec::pwl(
                           m.ramp(aggTimes[a] + m.delay, spec.tstop)));
        const auto adp = ids[net.driverNode(static_cast<int>(a) + 1)];
        ckt.addResistor("r_" + inst, src, adp, m.rth);
        ckt.addCapacitor("cdrv" + std::to_string(a + 1), adp, spice::kGround,
                         model.driverCaps()[a + 1]);
    }
    for (int w = 0; w < net.wireCount(); ++w) {
        ckt.addCapacitor("crx" + std::to_string(w), ids[net.receiverNode(w)],
                         spice::kGround, model.receiverCaps()[w]);
    }
    spice::TranOptions opt;
    opt.tstop = spec.tstop;
    const auto res = spice::simulateTransient(ckt, opt);
    core::NoiseResult out;
    out.waveform = res.waveform("rc:" + net.nodeName(net.driverNode(0)));
    out.metrics = wave::measureGlitch(out.waveform, model.outputHoldLevel());
    out.engineNodes = ckt.nodeCount();
    out.runtimeSec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return out;
}

}  // namespace

int main() {
    using namespace bench;
    auto spec = paperCluster(/*aggressors=*/2);
    spec.segments = 32;  // dense extraction so the reduction has work to do
    const std::vector<double> aggTimes{0.4e-9, 0.4e-9};
    const double glitchTime = 0.4e-9;

    const core::ClusterMacromodel pi(spec);
    const auto full = runFullRc(spec, pi, aggTimes, glitchTime);

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
