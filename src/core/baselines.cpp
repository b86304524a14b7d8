#include "core/baselines.hpp"

#include <chrono>
#include <cmath>

#include "waveform/sources.hpp"

namespace sna::core {

namespace {

// Victim holding model for B1: R_hold toward the holding rail.
void addHoldingResistor(const ClusterMacromodel& model, spice::Circuit& ckt,
                        spice::NodeId dp) {
    const double rHold = model.victimHoldingResistance();
    if (model.outputHoldLevel() == 0.0) {
        ckt.addResistor("r_hold", dp, spice::kGround, rHold);
    } else {
        const auto rail = ckt.node("hold_rail");
        ckt.addVSource("v_hold", rail, spice::kGround,
                       spice::SourceSpec::dc(model.outputHoldLevel()));
        ckt.addResistor("r_hold", dp, rail, rHold);
    }
}

}  // namespace

NoiseResult analyzeLinearSuperposition(
    const ClusterMacromodel& model,
    const std::vector<double>& aggressorSwitchTimes) {
    const auto start = std::chrono::steady_clock::now();
    const ClusterSpec& spec = model.spec();

    // ---- injected component: linearized victim, switching aggressors ----
    spice::Circuit ckt;
    const auto dp = ckt.node("dp_vic");
    model.buildCluster(ckt, dp, aggressorSwitchTimes);
    addHoldingResistor(model, ckt, dp);
    NoiseResult out = simulateCluster(ckt, spec.tstop, "dp_vic",
                                      model.outputHoldLevel(), start);

    // ---- propagated component from the pre-characterized tables ----------
    if (spec.victim.glitchHeight > 0.0) {
        const auto& table = model.propagationTable();
        const double h = spec.victim.glitchHeight;
        const double w = spec.victim.glitchWidth;
        const double peak = table.peak(h, w);
        const double area = table.area(h, w);
        if (std::abs(peak) > 1e-6) {
            // Reconstruct an equivalent triangle and align its peak with
            // the injected peak (worst-case superposition).
            const double width = 2.0 * std::abs(area / peak);
            const double tPeak =
                (std::abs(out.metrics.peak) > 1e-6)
                    ? out.metrics.peakTime
                    : spec.victim.glitchTime + 0.5 * spec.victim.glitchWidth;
            const double t0 = std::max(tPeak - 0.5 * width, 0.0);
            const wave::Waveform tri = wave::triangleGlitch(
                0.0, peak, t0 + 1e-15, width, spec.tstop);
            out.waveform = out.waveform.plus(tri);
            out.metrics =
                wave::measureGlitch(out.waveform, model.outputHoldLevel());
        }
    }
    out.runtimeSec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return out;
}

NoiseResult analyzeIterativeThevenin(
    const ClusterMacromodel& model,
    const std::vector<double>& aggressorSwitchTimes, double glitchTime,
    int maxIterations) {
    const auto start = std::chrono::steady_clock::now();
    const ClusterSpec& spec = model.spec();
    const ic::RcNetwork& net = model.interconnect();
    const double vHold = model.outputHoldLevel();

    // ---- V0(t): the victim driver's own glitch response, no crosstalk ----
    wave::Waveform v0;
    {
        spice::Circuit ckt;
        const auto out = model.buildVictimDriver(ckt, "out", glitchTime);
        double load = net.totalGroundCapOf(0) + model.receiverCaps()[0];
        for (int o = 1; o < net.wireCount(); ++o) {
            load += net.couplingCapBetween(0, o);
        }
        ckt.addCapacitor("cload", out, spice::kGround, load);
        v0 = simulateCluster(ckt, spec.tstop, "out", vHold, start).waveform;
    }

    // ---- iterate the victim Thevenin resistance --------------------------
    double rv = model.victimHoldingResistance();
    NoiseResult result;
    for (int it = 0; it < maxIterations; ++it) {
        spice::Circuit ckt;
        const auto dp = ckt.node("dp_vic");
        model.buildCluster(ckt, dp, aggressorSwitchTimes);
        const auto vsrc = ckt.node("v0");
        ckt.addVSource("v_victim", vsrc, spice::kGround,
                       spice::SourceSpec::pwl(v0));
        ckt.addResistor("r_victim", vsrc, dp, rv);
        result = simulateCluster(ckt, spec.tstop, "dp_vic", vHold, start);

        // Refit: secant resistance of the load curve between the holding
        // point and the current noise peak (input at its quiet level — the
        // propagated part is carried by V0).
        const double vPeak = vHold + result.metrics.peak;
        const double iHold =
            model.loadCurve()(model.inputHoldLevel(), vHold);
        const double iPeak =
            model.loadCurve()(model.inputHoldLevel(), vPeak);
        const double dv = vPeak - vHold;
        const double di = iPeak - iHold;
        if (std::abs(dv) < 1e-6 || di <= 0.0) break;
        const double rNew = dv / di;
        const bool converged = std::abs(rNew - rv) <= 0.02 * rv;
        rv = rNew;
        if (converged) break;
    }

    result.runtimeSec = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    return result;
}

}  // namespace sna::core
