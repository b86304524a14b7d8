#include "core/macromodel.hpp"

#include <sstream>

#include "mor/linear_network.hpp"
#include "util/error.hpp"

namespace sna::core {

ClusterMacromodel::ClusterMacromodel(const ClusterSpec& spec, Options opt)
    : spec_(spec),
      opt_(opt),
      net_(clusterNet(spec)) {
    const cell::CellLibrary& lib = cell::sharedLibrary(*spec_.technology);
    const double vdd = spec_.technology->vdd;

    // --- victim driver: the load-curve table (Eq. (1)) -------------------
    const cell::Cell& vic = lib.cell(spec_.victim.driverCell);
    charlib::LoadCurveSpec lc;
    lc.cell = &vic;
    lc.input = spec_.victim.glitchInput;
    lc.outputLevel = spec_.victim.outputLevel;
    lc.nVin = opt_.loadCurveGrid;
    lc.nVout = opt_.loadCurveGrid;
    loadCurve_ = opt_.cache ? opt_.cache->loadCurve(lc)
                            : std::make_shared<const la::Grid2d>(
                                  charlib::characterizeLoadCurve(lc));
    const auto hold =
        vic.holdingVector(spec_.victim.outputLevel, spec_.victim.glitchInput);
    vinHold_ = hold.at(spec_.victim.glitchInput) ? vdd : 0.0;
    voutHold_ = victimBaseline(spec_);

    // --- receiver input caps, driver output caps, aggressor Thevenin ------
    auto rxCap = [&](const std::string& cellName) {
        const cell::Cell& rx = lib.cell(cellName);
        return rx.inputCapacitance(receiverPin(rx));
    };
    rxCaps_.push_back(rxCap(spec_.victim.receiverCell));
    drvCaps_.push_back(vic.outputCapacitance(vic.outputName()));
    for (std::size_t a = 0; a < spec_.aggressors.size(); ++a) {
        const auto& agg = spec_.aggressors[a];
        const cell::Cell& drv = lib.cell(agg.driverCell);
        rxCaps_.push_back(rxCap(agg.receiverCell));
        drvCaps_.push_back(drv.outputCapacitance(drv.outputName()));
        charlib::TheveninSpec ts;
        ts.cell = &drv;
        ts.input = aggressorInput(drv);
        ts.outputRising = agg.outputRising;
        ts.inputSlew = agg.inputSlew;
        const int wire = static_cast<int>(a) + 1;
        double coupling = 0.0;
        for (int o = 0; o < net_.wireCount(); ++o) {
            if (o != wire) coupling += net_.couplingCapBetween(wire, o);
        }
        ts.loadCap = net_.totalGroundCapOf(wire) + coupling + rxCaps_[a + 1];
        aggressors_.push_back(opt_.cache
                                  ? *opt_.cache->thevenin(ts)
                                  : charlib::characterizeThevenin(ts));
    }

    // --- interconnect reduction -------------------------------------------
    if (opt_.usePrima) {
        const int n = net_.wireCount();
        std::vector<int> ports(2 * n);
        for (int w = 0; w < n; ++w) {
            ports[w] = net_.driverNode(w);
            ports[n + w] = net_.receiverNode(w);
        }
        prima_ = mor::primaReduce(mor::LinearNetwork(net_), ports,
                                  opt_.primaBlocks);
    } else {
        pi_ = mor::reduceCluster(net_);
    }
}

double ClusterMacromodel::victimHoldingResistance() const {
    return charlib::holdingResistance(*loadCurve_, vinHold_, voutHold_);
}

const mor::CoupledPiModel& ClusterMacromodel::reducedPi() const {
    SNA_REQUIRE(pi_.has_value(),
                "macromodel was built in PRIMA mode; no coupled-Pi");
    return *pi_;
}

const charlib::PropagationTable& ClusterMacromodel::propagationTable() const {
    if (propagation_ == nullptr) {
        charlib::PropagationSpec ps;
        const cell::CellLibrary& lib = cell::sharedLibrary(*spec_.technology);
        ps.cell = &lib.cell(spec_.victim.driverCell);
        ps.input = spec_.victim.glitchInput;
        ps.outputLevel = spec_.victim.outputLevel;
        double coupling = 0.0;
        for (int o = 1; o < net_.wireCount(); ++o) {
            coupling += net_.couplingCapBetween(0, o);
        }
        ps.loadCap = net_.totalGroundCapOf(0) + coupling + rxCaps_[0];
        const double vdd = spec_.technology->vdd;
        ps.heights = charlib::canonicalPropagationHeights(vdd);
        ps.widths = charlib::canonicalPropagationWidths();
        propagation_ = opt_.cache
                           ? opt_.cache->propagation(ps)
                           : std::make_shared<const charlib::PropagationTable>(
                                 charlib::characterizePropagation(ps));
    }
    return *propagation_;
}

NoiseResult ClusterMacromodel::analyze() const {
    std::vector<double> aggTimes;
    for (const auto& agg : spec_.aggressors) {
        aggTimes.push_back(agg.switchTime);
    }
    return analyzeAt(aggTimes, spec_.victim.glitchTime);
}

spice::NodeId ClusterMacromodel::buildVictimDriver(spice::Circuit& ckt,
                                                  const std::string& out,
                                                  double glitchTime) const {
    const auto vin = ckt.node("vin");
    const auto outNode = ckt.node(out);
    ckt.addVSource("v_in", vin, spice::kGround,
                   victimInputSource(spec_, vinHold_, glitchTime));
    ckt.addTableVccs("idc_victim", outNode, vin, loadCurve_);
    return outNode;
}

std::vector<spice::NodeId> ClusterMacromodel::buildDrivers(
    spice::Circuit& ckt, spice::NodeId dp,
    const std::vector<double>& aggressorSwitchTimes) const {
    SNA_REQUIRE(aggressorSwitchTimes.size() == spec_.aggressors.size(),
                "need one switch time per aggressor");
    std::vector<spice::NodeId> drvNodes{dp};
    ckt.addCapacitor("cdrv0", dp, spice::kGround, drvCaps_[0]);
    for (std::size_t a = 0; a < aggressors_.size(); ++a) {
        const auto& model = aggressors_[a];
        const std::string inst = "agg" + std::to_string(a);
        const auto src = ckt.node(inst + "_th");
        const auto adp = ckt.node(inst + "_dp");
        ckt.addVSource("v_" + inst, src, spice::kGround,
                       switchingSource(aggressorSwitchTimes[a] + model.delay,
                                       model.vStart, model.vEnd, model.slew,
                                       spec_.tstop));
        ckt.addResistor("r_" + inst, src, adp, model.rth);
        ckt.addCapacitor("cdrv" + std::to_string(a + 1), adp, spice::kGround,
                         drvCaps_[a + 1]);
        drvNodes.push_back(adp);
    }
    return drvNodes;
}

std::vector<spice::NodeId> ClusterMacromodel::buildReducedNet(
    spice::Circuit& ckt, const std::vector<spice::NodeId>& drvNodes) const {
    if (!opt_.usePrima) return pi_->buildInto(ckt, "pi:", drvNodes);
    std::vector<spice::NodeId> ports = drvNodes;  // then the receiver nodes
    for (int w = 0; w < net_.wireCount(); ++w) {
        ports.push_back(ckt.node("rcv" + std::to_string(w)));
    }
    ckt.addDevice<mor::ReducedMultiport>("rednet", ports, *prima_);
    return {ports.begin() + net_.wireCount(), ports.end()};
}

void ClusterMacromodel::buildReceivers(
    spice::Circuit& ckt, const std::vector<spice::NodeId>& farNodes) const {
    for (std::size_t w = 0; w < rxCaps_.size(); ++w) {
        ckt.addCapacitor("crx" + std::to_string(w), farNodes[w],
                         spice::kGround, rxCaps_[w]);
    }
}

void ClusterMacromodel::buildCluster(
    spice::Circuit& ckt, spice::NodeId dp,
    const std::vector<double>& aggressorSwitchTimes) const {
    buildReceivers(
        ckt, buildReducedNet(ckt, buildDrivers(ckt, dp, aggressorSwitchTimes)));
}

NoiseResult ClusterMacromodel::analyzeAt(
    const std::vector<double>& aggressorSwitchTimes, double glitchTime) const {
    const auto start = std::chrono::steady_clock::now();
    spice::Circuit ckt;
    buildCluster(ckt, buildVictimDriver(ckt, "dp_vic", glitchTime),
                 aggressorSwitchTimes);
    return simulateCluster(ckt, spec_.tstop, "dp_vic", voutHold_, start);
}

std::string ClusterMacromodel::describe() const {
    std::ostringstream os;
    os << "Noise-cluster macromodel (Fig. 1 of the paper)\n";
    os << "  victim driver " << spec_.victim.driverCell << " -> VCCS I_DC"
       << " = f(V_in, V_out), " << loadCurve_->xs().size() << "x"
       << loadCurve_->ys().size() << " load-curve table\n";
    os << "    input hold " << vinHold_ << " V, output hold " << voutHold_
       << " V, holding resistance " << victimHoldingResistance() << " ohm\n";
    for (std::size_t a = 0; a < aggressors_.size(); ++a) {
        const auto& m = aggressors_[a];
        os << "  aggressor " << a << " driver "
           << spec_.aggressors[a].driverCell << " -> Thevenin V_TH ramp "
           << m.vStart << "->" << m.vEnd << " V, slew " << m.slew * 1e12
           << " ps, R_TH " << m.rth << " ohm, delay " << m.delay * 1e12
           << " ps\n";
    }
    if (opt_.usePrima) {
        os << "  interconnect -> PRIMA reduced multiport, order "
           << prima_->order() << ", ports " << prima_->ports() << "\n";
    } else {
        os << "  interconnect -> coupled-Pi driving-point model\n";
        for (const auto& n : pi_->nets) {
            os << "    net " << n.netName << ": C1 " << n.pi.c1 * 1e15
               << " fF, R " << n.pi.r << " ohm, C2 " << n.pi.c2 * 1e15
               << " fF\n";
        }
        for (const auto& cp : pi_->couplings) {
            os << "    coupling " << pi_->nets[cp.netA].netName << " <-> "
               << pi_->nets[cp.netB].netName << ": near "
               << cp.nearCap * 1e15 << " fF, far " << cp.farCap * 1e15
               << " fF\n";
        }
    }
    for (std::size_t w = 0; w < rxCaps_.size(); ++w) {
        os << "  receiver " << w << " -> input cap " << rxCaps_[w] * 1e15
           << " fF\n";
    }
    return os.str();
}

}  // namespace sna::core
