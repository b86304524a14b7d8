#include "celllib/cell.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace sna::cell {

Cell::Cell(std::string name, const tech::Technology& tech,
           std::vector<Pin> pins, std::vector<TransistorSpec> fets,
           LogicFn logic, std::shared_ptr<const std::string> techKey)
    : name_(std::move(name)),
      tech_(&tech),
      techKey_(std::move(techKey)),
      pins_(std::move(pins)),
      fets_(std::move(fets)),
      logic_(std::move(logic)) {
    SNA_REQUIRE(!pins_.empty() && !fets_.empty() && logic_,
                "cell '" + name_ + "' is incomplete");
    int outputs = 0;
    for (const auto& p : pins_) {
        if (p.dir == PinDir::Output) ++outputs;
    }
    SNA_REQUIRE(outputs == 1, "cell '" + name_ + "' must have one output");
}

std::string Cell::technologyKey() const {
    return techKey_ != nullptr ? *techKey_ : tech::identityKey(*tech_);
}

std::vector<std::string> Cell::inputNames() const {
    std::vector<std::string> out;
    for (const auto& p : pins_) {
        if (p.dir == PinDir::Input) out.push_back(p.name);
    }
    return out;
}

const std::string& Cell::outputName() const {
    for (const auto& p : pins_) {
        if (p.dir == PinDir::Output) return p.name;
    }
    throw ModelError("cell '" + name_ + "' has no output pin");
}

bool Cell::evaluate(const std::map<std::string, bool>& inputs) const {
    std::vector<bool> ordered;
    for (const auto& in : inputNames()) {
        const auto it = inputs.find(in);
        SNA_REQUIRE(it != inputs.end(),
                    "cell '" + name_ + "': missing input '" + in + "'");
        ordered.push_back(it->second);
    }
    return logic_(ordered);
}

std::map<std::string, bool> Cell::holdingVector(
    bool level, const std::string& sensitiveInput) const {
    const std::vector<std::string> ins = inputNames();
    const std::size_t n = ins.size();
    SNA_REQUIRE(n <= 16, "holdingVector enumeration limit");
    for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
        std::map<std::string, bool> vec;
        std::vector<bool> ordered(n);
        for (std::size_t i = 0; i < n; ++i) {
            ordered[i] = ((mask >> i) & 1u) != 0;
            vec[ins[i]] = ordered[i];
        }
        if (logic_(ordered) != level) continue;
        if (sensitiveInput.empty()) return vec;
        // Flipping the sensitive input must flip the output.
        const auto pos = std::find(ins.begin(), ins.end(), sensitiveInput);
        SNA_REQUIRE(pos != ins.end(), "cell '" + name_ + "' has no input '" +
                                          sensitiveInput + "'");
        std::vector<bool> flipped = ordered;
        const std::size_t idx = pos - ins.begin();
        flipped[idx] = !flipped[idx];
        if (logic_(flipped) == level) continue;
        return vec;
    }
    throw ModelError("cell '" + name_ + "': no holding vector for level " +
                     std::to_string(level) + " sensitized on '" +
                     sensitiveInput + "'");
}

void Cell::instantiate(spice::Circuit& c, const std::string& inst,
                       const std::map<std::string, spice::NodeId>& pinNodes,
                       spice::NodeId vdd) const {
    for (const auto& p : pins_) {
        SNA_REQUIRE(pinNodes.count(p.name) == 1,
                    "instantiate '" + inst + "': pin '" + p.name +
                        "' is not connected");
    }
    auto resolve = [&](const std::string& terminal) -> spice::NodeId {
        if (str::iequals(terminal, "vdd")) return vdd;
        if (str::iequals(terminal, "gnd") || terminal == "0") {
            return spice::kGround;
        }
        const auto it = pinNodes.find(terminal);
        if (it != pinNodes.end()) return it->second;
        return c.node(inst + "." + terminal);
    };
    for (const auto& f : fets_) {
        const spice::MosModel& model =
            (f.type == spice::MosType::Nmos) ? tech_->nmos : tech_->pmos;
        c.addMosfet(inst + "." + f.name, resolve(f.drain), resolve(f.gate),
                    resolve(f.source), resolve(f.bulk), model, f.width,
                    f.length);
    }
}

double Cell::outputCapacitance(const std::string& pin) const {
    double total = 0.0;
    bool found = false;
    for (const auto& f : fets_) {
        const spice::MosModel& model =
            (f.type == spice::MosType::Nmos) ? tech_->nmos : tech_->pmos;
        const spice::MosCaps caps = spice::instanceCaps(model, f.width,
                                                        f.length);
        if (str::iequals(f.drain, pin)) {
            total += caps.cdb + caps.cgd;
            found = true;
        }
        if (str::iequals(f.source, pin)) {
            total += caps.csb + caps.cgs;
            found = true;
        }
    }
    SNA_REQUIRE(found, "cell '" + name_ + "': no transistor terminal on '" +
                           pin + "'");
    return total;
}

double Cell::inputCapacitance(const std::string& pin) const {
    double total = 0.0;
    bool found = false;
    for (const auto& f : fets_) {
        if (!str::iequals(f.gate, pin)) continue;
        found = true;
        const spice::MosModel& model =
            (f.type == spice::MosType::Nmos) ? tech_->nmos : tech_->pmos;
        const spice::MosCaps caps = spice::instanceCaps(model, f.width,
                                                        f.length);
        total += caps.cgs + caps.cgd + caps.cgb;
    }
    SNA_REQUIRE(found, "cell '" + name_ + "': no transistor gated by '" + pin +
                           "'");
    return total;
}

}  // namespace sna::cell
