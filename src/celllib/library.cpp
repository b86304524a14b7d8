#include "celllib/library.hpp"

#include <memory>
#include <mutex>

#include "util/error.hpp"

namespace sna::cell {

namespace {

using spice::MosType;

TransistorSpec fet(const std::string& name, MosType type,
                   const std::string& d, const std::string& g,
                   const std::string& s, double w, double l) {
    TransistorSpec t;
    t.name = name;
    t.type = type;
    t.drain = d;
    t.gate = g;
    t.source = s;
    t.bulk = (type == MosType::Nmos) ? "gnd" : "vdd";
    t.width = w;
    t.length = l;
    return t;
}

}  // namespace

void CellLibrary::define(const std::string& name, std::vector<Pin> pins,
                         std::vector<TransistorSpec> fets,
                         Cell::LogicFn logic) {
    cells_.emplace(name, Cell(name, *tech_, std::move(pins), std::move(fets),
                              std::move(logic), techKey_));
}

void CellLibrary::addCell(const std::string& name, std::vector<Pin> pins,
                          std::vector<TransistorSpec> fets,
                          Cell::LogicFn logic) {
    if (has(name)) {
        throw ModelError("cell '" + name + "' is already defined");
    }
    define(name, std::move(pins), std::move(fets), std::move(logic));
}

CellLibrary::CellLibrary(const tech::Technology& tech)
    : CellLibrary(tech, nullptr) {}

CellLibrary::CellLibrary(const tech::Technology& tech,
                         std::shared_ptr<const std::string> techKey)
    : tech_(&tech), techKey_(std::move(techKey)) {
    const double l = tech.lmin;
    const double wn = tech.wnUnit;
    const double wp = tech.wpUnit;

    // ---- inverters and buffer -------------------------------------------
    for (const int k : {1, 2, 4}) {
        define("INV_X" + std::to_string(k),
               {{"a", PinDir::Input}, {"y", PinDir::Output}},
               {fet("mp", MosType::Pmos, "y", "a", "vdd", k * wp, l),
                fet("mn", MosType::Nmos, "y", "a", "gnd", k * wn, l)},
               [](const std::vector<bool>& in) { return !in[0]; });
    }
    define("BUF_X2",
           {{"a", PinDir::Input}, {"y", PinDir::Output}},
           {fet("mp1", MosType::Pmos, "mid", "a", "vdd", wp, l),
            fet("mn1", MosType::Nmos, "mid", "a", "gnd", wn, l),
            fet("mp2", MosType::Pmos, "y", "mid", "vdd", 2 * wp, l),
            fet("mn2", MosType::Nmos, "y", "mid", "gnd", 2 * wn, l)},
           [](const std::vector<bool>& in) { return in[0]; });

    // ---- NAND family: series NMOS stack (2x width), parallel PMOS --------
    for (const int k : {1, 2}) {
        define("NAND2_X" + std::to_string(k),
               {{"a", PinDir::Input},
                {"b", PinDir::Input},
                {"y", PinDir::Output}},
               {fet("mpa", MosType::Pmos, "y", "a", "vdd", k * wp, l),
                fet("mpb", MosType::Pmos, "y", "b", "vdd", k * wp, l),
                fet("mna", MosType::Nmos, "y", "a", "n1", 2 * k * wn, l),
                fet("mnb", MosType::Nmos, "n1", "b", "gnd", 2 * k * wn, l)},
               [](const std::vector<bool>& in) { return !(in[0] && in[1]); });
    }
    define("NAND3_X1",
           {{"a", PinDir::Input},
            {"b", PinDir::Input},
            {"c", PinDir::Input},
            {"y", PinDir::Output}},
           {fet("mpa", MosType::Pmos, "y", "a", "vdd", wp, l),
            fet("mpb", MosType::Pmos, "y", "b", "vdd", wp, l),
            fet("mpc", MosType::Pmos, "y", "c", "vdd", wp, l),
            fet("mna", MosType::Nmos, "y", "a", "n1", 3 * wn, l),
            fet("mnb", MosType::Nmos, "n1", "b", "n2", 3 * wn, l),
            fet("mnc", MosType::Nmos, "n2", "c", "gnd", 3 * wn, l)},
           [](const std::vector<bool>& in) {
               return !(in[0] && in[1] && in[2]);
           });

    // ---- NOR family: series PMOS stack (2x width), parallel NMOS ---------
    for (const int k : {1, 2}) {
        define("NOR2_X" + std::to_string(k),
               {{"a", PinDir::Input},
                {"b", PinDir::Input},
                {"y", PinDir::Output}},
               {fet("mpa", MosType::Pmos, "p1", "a", "vdd", 2 * k * wp, l),
                fet("mpb", MosType::Pmos, "y", "b", "p1", 2 * k * wp, l),
                fet("mna", MosType::Nmos, "y", "a", "gnd", k * wn, l),
                fet("mnb", MosType::Nmos, "y", "b", "gnd", k * wn, l)},
               [](const std::vector<bool>& in) { return !(in[0] || in[1]); });
    }
    define("NOR3_X1",
           {{"a", PinDir::Input},
            {"b", PinDir::Input},
            {"c", PinDir::Input},
            {"y", PinDir::Output}},
           {fet("mpa", MosType::Pmos, "p1", "a", "vdd", 3 * wp, l),
            fet("mpb", MosType::Pmos, "p2", "b", "p1", 3 * wp, l),
            fet("mpc", MosType::Pmos, "y", "c", "p2", 3 * wp, l),
            fet("mna", MosType::Nmos, "y", "a", "gnd", wn, l),
            fet("mnb", MosType::Nmos, "y", "b", "gnd", wn, l),
            fet("mnc", MosType::Nmos, "y", "c", "gnd", wn, l)},
           [](const std::vector<bool>& in) {
               return !(in[0] || in[1] || in[2]);
           });

    // ---- complex gates ----------------------------------------------------
    // AOI21: y = !(a*b + c)
    define("AOI21_X1",
           {{"a", PinDir::Input},
            {"b", PinDir::Input},
            {"c", PinDir::Input},
            {"y", PinDir::Output}},
           {fet("mpa", MosType::Pmos, "p1", "a", "vdd", 2 * wp, l),
            fet("mpb", MosType::Pmos, "p1", "b", "vdd", 2 * wp, l),
            fet("mpc", MosType::Pmos, "y", "c", "p1", 2 * wp, l),
            fet("mna", MosType::Nmos, "y", "a", "n1", 2 * wn, l),
            fet("mnb", MosType::Nmos, "n1", "b", "gnd", 2 * wn, l),
            fet("mnc", MosType::Nmos, "y", "c", "gnd", wn, l)},
           [](const std::vector<bool>& in) {
               return !((in[0] && in[1]) || in[2]);
           });
    // OAI21: y = !((a+b) * c)
    define("OAI21_X1",
           {{"a", PinDir::Input},
            {"b", PinDir::Input},
            {"c", PinDir::Input},
            {"y", PinDir::Output}},
           {fet("mpa", MosType::Pmos, "p1", "a", "vdd", 2 * wp, l),
            fet("mpb", MosType::Pmos, "y", "b", "p1", 2 * wp, l),
            fet("mpc", MosType::Pmos, "y", "c", "vdd", 2 * wp, l),
            fet("mna", MosType::Nmos, "y", "a", "n1", 2 * wn, l),
            fet("mnb", MosType::Nmos, "y", "b", "n1", 2 * wn, l),
            fet("mnc", MosType::Nmos, "n1", "c", "gnd", 2 * wn, l)},
           [](const std::vector<bool>& in) {
               return !((in[0] || in[1]) && in[2]);
           });
}

bool CellLibrary::has(const std::string& name) const {
    return cells_.find(name) != cells_.end();
}

const Cell& CellLibrary::cell(const std::string& name) const {
    const auto it = cells_.find(name);
    if (it == cells_.end()) {
        throw ModelError("cell library has no cell '" + name + "'");
    }
    return it->second;
}

std::vector<std::string> CellLibrary::names() const {
    std::vector<std::string> out;
    out.reserve(cells_.size());
    for (const auto& [name, c] : cells_) out.push_back(name);
    return out;
}

namespace {

// Full electrical identity, bitwise: two technologies map to the same
// shared library only when every parameter a cell or layer query could
// read is identical. Address-based keying would hand stale models to a
// corner sweep that rebuilds Technology values at a reused address.
std::string libraryKey(const tech::Technology& t) {
    std::string key = tech::identityKey(t);
    for (const auto& l : t.layers) {
        key += '/';
        key += l.name;
        tech::appendBits(key, l.rPerUm);
        tech::appendBits(key, l.cgPerUm);
        tech::appendBits(key, l.ccPerUm);
    }
    return key;
}

}  // namespace

// The registry owns a copy of the Technology so the library (and its
// technology()) stay valid even after the caller's object is destroyed.
// The copy is const, so its identity key is built once, here.
struct detail::SharedEntry {
    explicit SharedEntry(const tech::Technology& t)
        : tech(t),
          lib(tech, std::make_shared<const std::string>(
                        tech::identityKey(tech))) {}
    const tech::Technology tech;
    CellLibrary lib;
};

const CellLibrary& sharedLibrary(const tech::Technology& tech) {
    static std::mutex mu;
    static std::map<std::string, std::unique_ptr<detail::SharedEntry>> libs;
    std::string key = libraryKey(tech);
    const std::lock_guard<std::mutex> lock(mu);
    auto it = libs.find(key);
    if (it == libs.end()) {
        it = libs.emplace(std::move(key),
                          std::make_unique<detail::SharedEntry>(tech))
                 .first;
    }
    return it->second->lib;
}

}  // namespace sna::cell
