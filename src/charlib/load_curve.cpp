#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "charlib/characterize.hpp"
#include "spice/dc.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace sna::charlib {

spice::NodeId detail::buildCellBench(spice::Circuit& ckt,
                                     const cell::Cell& cell,
                                     const std::map<std::string, bool>& vector,
                                     BenchOutput output, double value,
                                     const std::string& input,
                                     std::optional<wave::Waveform> drive) {
    const double vdd = cell.technology().vdd;
    const auto vddNode = ckt.node("vdd");
    ckt.addVSource("vsupply", vddNode, spice::kGround,
                   spice::SourceSpec::dc(vdd));
    std::map<std::string, spice::NodeId> pins;
    for (const auto& in : cell.inputNames()) {
        const auto n = ckt.node(in);
        pins[in] = n;
        ckt.addVSource("v_" + in, n, spice::kGround,
                       (drive && in == input)
                           ? spice::SourceSpec::pwl(std::move(*drive))
                           : spice::SourceSpec::dc(vector.at(in) ? vdd : 0.0));
    }
    const auto outNode = ckt.node("out");
    pins[cell.outputName()] = outNode;
    if (output == BenchOutput::Clamp) {
        ckt.addVSource("v_out", outNode, spice::kGround,
                       spice::SourceSpec::dc(value));
    } else {
        ckt.addCapacitor("cload", outNode, spice::kGround, value);
    }
    cell.instantiate(ckt, "dut", pins, vddNode);
    return outNode;
}

la::Grid2d characterizeLoadCurve(const LoadCurveSpec& spec) {
    SNA_REQUIRE(spec.cell != nullptr, "load-curve spec needs a cell");
    SNA_REQUIRE(spec.nVin >= 2 && spec.nVout >= 2,
                "load-curve grid needs >= 2 points per axis");
    const cell::Cell& cellRef = *spec.cell;
    const double vdd = cellRef.technology().vdd;
    const double vMin =
        (spec.vMin == LoadCurveSpec::kAuto) ? -0.2 * vdd : spec.vMin;
    const double vMax =
        (spec.vMax == LoadCurveSpec::kAuto) ? 1.2 * vdd : spec.vMax;
    SNA_REQUIRE(vMax > vMin, "load-curve sweep range is empty");

    // Bench: side inputs held at the sensitized vector, swept sources on
    // the sensitive input and the output.
    spice::Circuit ckt;
    detail::buildCellBench(ckt, cellRef,
                           cellRef.holdingVector(spec.outputLevel, spec.input),
                           detail::BenchOutput::Clamp, 0.0);

    auto* vin = dynamic_cast<spice::VSource*>(
        ckt.findDevice("v_" + spec.input));
    auto* vout = dynamic_cast<spice::VSource*>(ckt.findDevice("v_out"));
    SNA_REQUIRE(vin != nullptr && vout != nullptr, "bench sources missing");

    std::vector<double> vinAxis(spec.nVin), voutAxis(spec.nVout);
    for (int i = 0; i < spec.nVin; ++i) {
        vinAxis[i] = vMin + (vMax - vMin) * i / (spec.nVin - 1);
    }
    for (int j = 0; j < spec.nVout; ++j) {
        voutAxis[j] = vMin + (vMax - vMin) * j / (spec.nVout - 1);
    }

    std::vector<double> z(static_cast<std::size_t>(spec.nVin) * spec.nVout);
    la::Vector warm;
    for (int i = 0; i < spec.nVin; ++i) {
        vin->setSpec(spice::SourceSpec::dc(vinAxis[i]));
        for (int j = 0; j < spec.nVout; ++j) {
            vout->setSpec(spice::SourceSpec::dc(voutAxis[j]));
            const auto dc =
                spice::solveDc(ckt, warm.empty() ? nullptr : &warm);
            warm = dc.raw();
            // Current the clamp must deliver INTO the output = current the
            // cell sinks there; this is the table entry I_DC(vin, vout).
            z[static_cast<std::size_t>(i) * spec.nVout + j] =
                dc.sourceCurrent("v_out");
        }
    }
    log::debug() << "load curve for " << cellRef.name() << "/" << spec.input
                 << ": " << spec.nVin << "x" << spec.nVout << " points";
    return la::Grid2d(std::move(vinAxis), std::move(voutAxis), std::move(z));
}

double holdingResistance(const la::Grid2d& loadCurve, double vinHold,
                         double voutHold) {
    const auto v = loadCurve.eval(vinHold, voutHold);
    if (v.dzdy <= 0.0) {
        throw ModelError(
            "holding resistance is not defined: dI/dVout <= 0 at the "
            "holding point (is the output really held?)");
    }
    return 1.0 / v.dzdy;
}

}  // namespace sna::charlib
