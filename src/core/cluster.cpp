#include "core/cluster.hpp"

#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>

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

std::optional<wave::Waveform> victimInputGlitch(const ClusterSpec& spec,
                                                double inputHoldLevel,
                                                double glitchTime) {
    if (spec.victim.glitchHeight <= 0.0) return std::nullopt;
    const double dir = (inputHoldLevel < 0.5 * spec.technology->vdd) ? +1.0
                                                                      : -1.0;
    return wave::triangleGlitch(inputHoldLevel,
                                dir * spec.victim.glitchHeight, glitchTime,
                                spec.victim.glitchWidth, spec.tstop);
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

    // ---- drivers -----------------------------------------------------------
    // Per input, the node `<inst>_in_<pin>` and a grounded source
    // `v_<inst>_<pin>` at its level in `vector` (`input` follows `drive`
    // when there is one); then the cell as `<inst>_drv` driving `out`.
    auto addDriver = [&](const cell::Cell& drv, const std::string& inst,
                         const std::map<std::string, bool>& vector,
                         const std::string& input,
                         std::optional<wave::Waveform> drive,
                         spice::NodeId out) {
        std::map<std::string, spice::NodeId> pins;
        for (const auto& in : drv.inputNames()) {
            const auto n = ckt.node(inst + "_in_" + in);
            pins[in] = n;
            ckt.addVSource("v_" + inst + "_" + in, n, spice::kGround,
                           (drive && in == input)
                               ? spice::SourceSpec::pwl(std::move(*drive))
                               : spice::SourceSpec::dc(vector.at(in) ? vdd
                                                                     : 0.0));
        }
        pins[drv.outputName()] = out;
        drv.instantiate(ckt, inst + "_drv", pins, vddNode);
    };
    const cell::Cell& vicDriver = lib.cell(spec.victim.driverCell);
    const auto vicHold = vicDriver.holdingVector(spec.victim.outputLevel,
                                                 spec.victim.glitchInput);
    addDriver(vicDriver, "vic", vicHold, spec.victim.glitchInput,
              victimInputGlitch(spec,
                                vicHold.at(spec.victim.glitchInput) ? vdd : 0.0,
                                spec.victim.glitchTime),
              ids[net.driverNode(0)]);

    // ---- victim receiver (transistor-level load at the far end) ---------
    auto addReceiver = [&](const std::string& cellName,
                           const std::string& inst, spice::NodeId inputNode) {
        const cell::Cell& rx = lib.cell(cellName);
        const std::string pinName = rx.inputNames().front();
        std::map<std::string, spice::NodeId> pins;
        for (const auto& in : rx.inputNames()) {
            if (in == pinName) {
                pins[in] = inputNode;
            } else {
                const auto n = ckt.node(inst + "_in_" + in);
                pins[in] = n;
                ckt.addVSource("v_" + inst + "_" + in, n, spice::kGround,
                               spice::SourceSpec::dc(0.0));
            }
        }
        const auto outNode = ckt.node(inst + "_out");
        pins[rx.outputName()] = outNode;
        ckt.addCapacitor("c_" + inst, outNode, spice::kGround, 5e-15);
        rx.instantiate(ckt, inst, pins, vddNode);
    };
    addReceiver(spec.victim.receiverCell, "vic_rx", ids[net.receiverNode(0)]);

    // ---- aggressors -------------------------------------------------------
    for (std::size_t a = 0; a < spec.aggressors.size(); ++a) {
        const auto& agg = spec.aggressors[a];
        const cell::Cell& drv = lib.cell(agg.driverCell);
        const std::string inPin = drv.inputNames().front();
        // Input vector before the transition: output at the pre-transition
        // level, sensitized on inPin.
        const auto hold = drv.holdingVector(!agg.outputRising, inPin);
        const double v0 = hold.at(inPin) ? vdd : 0.0;
        const std::string inst = "agg" + std::to_string(a);
        // A switch time of +inf (a window-excluded aggressor) holds the
        // input at its pre-transition level, as the macromodel does: the
        // quiet driver still loads the victim.
        std::optional<wave::Waveform> drive;
        if (!std::isinf(agg.switchTime)) {
            drive = wave::saturatedRamp(v0, vdd - v0, agg.switchTime,
                                        agg.inputSlew, spec.tstop);
        }
        addDriver(drv, inst, hold, inPin, std::move(drive),
                  ids[net.driverNode(static_cast<int>(a) + 1)]);
        addReceiver(agg.receiverCell, inst + "_rx",
                    ids[net.receiverNode(static_cast<int>(a) + 1)]);
    }

    // ---- run ---------------------------------------------------------------
    spice::TranOptions opt;
    opt.tstop = spec.tstop;
    const auto res = spice::simulateTransient(ckt, opt);
    const std::string dpName = "rc:" + net.nodeName(net.driverNode(0));

    NoiseResult out;
    out.waveform = res.waveform(dpName);
    out.metrics = wave::measureGlitch(out.waveform, victimBaseline(spec));
    out.engineNodes = ckt.nodeCount();
    out.runtimeSec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return out;
}

}  // namespace sna::core
