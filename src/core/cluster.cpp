#include "core/cluster.hpp"

#include <cmath>
#include <map>
#include <string>

#include "spice/tran.hpp"
#include "util/error.hpp"
#include "waveform/sources.hpp"

namespace sna::core {

ic::RcNetwork clusterNet(const ClusterSpec& spec) {
    if (spec.customNet != nullptr) {
        SNA_REQUIRE(spec.customNet->wireCount() ==
                        static_cast<int>(spec.aggressors.size()) + 1,
                    "customNet must have one wire per victim/aggressor");
        return *spec.customNet;
    }
    ic::StarClusterSpec star;
    star.layer = &spec.technology->layer(spec.layer);
    star.lengthUm = spec.lengthUm;
    star.aggressors = static_cast<int>(spec.aggressors.size());
    star.segments = spec.segments;
    for (const auto& agg : spec.aggressors) {
        star.ccScale.push_back(agg.couplingScale);
    }
    return ic::buildStarCluster(star);
}

double victimBaseline(const ClusterSpec& spec) {
    return spec.victim.outputLevel ? spec.technology->vdd : 0.0;
}

spice::SourceSpec victimInputSource(const ClusterSpec& spec,
                                    double inputHoldLevel, double glitchTime) {
    if (spec.victim.glitchHeight <= 0.0) {
        return spice::SourceSpec::dc(inputHoldLevel);
    }
    const double dir = (inputHoldLevel < 0.5 * spec.technology->vdd) ? +1.0
                                                                      : -1.0;
    return spice::SourceSpec::pwl(wave::triangleGlitch(
        inputHoldLevel, dir * spec.victim.glitchHeight, glitchTime,
        spec.victim.glitchWidth, spec.tstop));
}

spice::SourceSpec switchingSource(double switchTime, double from, double to,
                                  double slew, double tstop) {
    if (std::isinf(switchTime)) return spice::SourceSpec::dc(from);
    return spice::SourceSpec::pwl(
        wave::saturatedRamp(from, to, switchTime, slew, tstop));
}

NoiseResult simulateCluster(const spice::Circuit& ckt, double tstop,
                            const std::string& probe, double baseline,
                            std::chrono::steady_clock::time_point start) {
    spice::TranOptions opt;
    opt.tstop = tstop;
    const auto res = spice::simulateTransient(ckt, opt);
    NoiseResult out;
    out.waveform = res.waveform(probe);
    out.metrics = wave::measureGlitch(out.waveform, baseline);
    out.engineNodes = ckt.nodeCount();
    out.runtimeSec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return out;
}

NoiseResult simulateGolden(const ClusterSpec& spec) {
    const auto start = std::chrono::steady_clock::now();
    const double vdd = spec.technology->vdd;
    const cell::CellLibrary& lib = cell::sharedLibrary(*spec.technology);
    const ic::RcNetwork net = clusterNet(spec);

    spice::Circuit ckt;
    const auto vddNode = ckt.node("vdd");
    ckt.addVSource("vsupply", vddNode, spice::kGround,
                   spice::SourceSpec::dc(vdd));
    const auto ids = net.buildInto(ckt, "rc:");

    // ---- the transistor-level parts, per wire a driver then a receiver ----
    // Driver `<inst>_drv` on the wire's driving point, its output held at
    // `level` and sensitized on `input`: per input a node `<inst>_in_<pin>`
    // with a grounded source `v_<inst>_<pin>`, `drive(v0)` on `input` (v0
    // its quiet level) and the holding level on the others.
    auto addDriver = [&](int wire, const std::string& cellName,
                         const std::string& inst, bool level,
                         const std::string& input, const auto& drive) {
        const cell::Cell& drv = lib.cell(cellName);
        const auto vector = drv.holdingVector(level, input);
        std::map<std::string, spice::NodeId> pins;
        for (const auto& in : drv.inputNames()) {
            const double v0 = vector.at(in) ? vdd : 0.0;
            pins[in] = ckt.node(inst + "_in_" + in);
            ckt.addVSource("v_" + inst + "_" + in, pins[in], spice::kGround,
                           in == input ? drive(v0) : spice::SourceSpec::dc(v0));
        }
        pins[drv.outputName()] = ids[net.driverNode(wire)];
        drv.instantiate(ckt, inst + "_drv", pins, vddNode);
    };
    // Receiver: receiverPin() on the wire's far end, the other inputs tied
    // low, the output `<inst>_out` loaded by 5 fF.
    auto addReceiver = [&](int wire, const std::string& cellName,
                           const std::string& inst) {
        const cell::Cell& rx = lib.cell(cellName);
        const std::string pin = receiverPin(rx);
        std::map<std::string, spice::NodeId> pins{
            {pin, ids[net.receiverNode(wire)]}};
        for (const auto& in : rx.inputNames()) {
            if (in == pin) continue;
            pins[in] = ckt.node(inst + "_in_" + in);
            ckt.addVSource("v_" + inst + "_" + in, pins[in], spice::kGround,
                           spice::SourceSpec::dc(0.0));
        }
        const auto outNode = ckt.node(inst + "_out");
        pins[rx.outputName()] = outNode;
        ckt.addCapacitor("c_" + inst, outNode, spice::kGround, 5e-15);
        rx.instantiate(ckt, inst, pins, vddNode);
    };

    addDriver(0, spec.victim.driverCell, "vic", spec.victim.outputLevel,
              spec.victim.glitchInput, [&](double v0) {
                  return victimInputSource(spec, v0, spec.victim.glitchTime);
              });
    addReceiver(0, spec.victim.receiverCell, "vic_rx");
    for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
        const auto& agg = spec.aggressors[a];
        const std::string inst = "agg" + std::to_string(a);
        // Held before the transition, output at its pre-transition level.
        addDriver(static_cast<int>(a) + 1, agg.driverCell, inst,
                  !agg.outputRising, aggressorInput(lib.cell(agg.driverCell)),
                  [&](double v0) {
                      return switchingSource(agg.switchTime, v0, vdd - v0,
                                             agg.inputSlew, spec.tstop);
                  });
        addReceiver(static_cast<int>(a) + 1, agg.receiverCell, inst + "_rx");
    }

    return simulateCluster(ckt, spec.tstop,
                           "rc:" + net.nodeName(net.driverNode(0)),
                           victimBaseline(spec), start);
}

}  // namespace sna::core
