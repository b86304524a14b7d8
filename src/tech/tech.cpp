#include "tech/tech.hpp"

#include <charconv>
#include <cstdint>
#include <cstring>

#include "util/error.hpp"

namespace sna::tech {

const WireLayer& Technology::layer(const std::string& layerName) const {
    for (const auto& l : layers) {
        if (l.name == layerName) return l;
    }
    throw ModelError("technology '" + name + "' has no layer '" + layerName +
                     "'");
}

void appendBits(std::string& key, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    char buf[16];
    const auto end = std::to_chars(buf, buf + sizeof(buf), bits, 16).ptr;
    key += '/';
    key.append(buf, end);
}

namespace {

void appendMos(std::string& key, const spice::MosModel& m) {
    for (const double v : {m.vt0, m.kp, m.lambda, m.gamma, m.phi, m.cox,
                           m.cgso, m.cgdo, m.cj, m.cjsw, m.ldiff}) {
        appendBits(key, v);
    }
}

}  // namespace

std::string identityKey(const Technology& t) {
    std::string key = t.name;
    for (const double v : {t.vdd, t.lmin, t.wnUnit, t.wpUnit}) {
        appendBits(key, v);
    }
    appendMos(key, t.nmos);
    appendMos(key, t.pmos);
    return key;
}

namespace {

Technology make130() {
    Technology t;
    t.name = "cmos130";
    t.vdd = 1.2;
    t.lmin = 0.13e-6;
    t.wnUnit = 0.42e-6;
    t.wpUnit = 0.84e-6;

    spice::MosModel n;
    n.type = spice::MosType::Nmos;
    n.vt0 = 0.32;
    n.kp = 280e-6;
    n.lambda = 0.12;
    n.gamma = 0.25;
    n.phi = 0.75;
    n.cox = 9.0e-3;
    n.cgso = 2.8e-10;
    n.cgdo = 2.8e-10;
    n.cj = 1.1e-3;
    n.cjsw = 1.1e-10;
    n.ldiff = 0.34e-6;
    t.nmos = n;

    spice::MosModel p = n;
    p.type = spice::MosType::Pmos;
    p.vt0 = 0.30;
    p.kp = 115e-6;
    p.lambda = 0.14;
    p.gamma = 0.22;
    t.pmos = p;

    // Plausible per-µm parasitics at minimum width/spacing for the node.
    t.layers = {
        {"M2", 0.45, 0.045e-15, 0.085e-15},
        {"M4", 0.25, 0.060e-15, 0.110e-15},
        {"M6", 0.08, 0.075e-15, 0.095e-15},
    };
    return t;
}

Technology make90() {
    Technology t;
    t.name = "cmos090";
    t.vdd = 1.0;
    t.lmin = 0.09e-6;
    t.wnUnit = 0.30e-6;
    t.wpUnit = 0.60e-6;

    spice::MosModel n;
    n.type = spice::MosType::Nmos;
    n.vt0 = 0.28;
    n.kp = 350e-6;
    n.lambda = 0.16;
    n.gamma = 0.23;
    n.phi = 0.72;
    n.cox = 1.1e-2;
    n.cgso = 2.4e-10;
    n.cgdo = 2.4e-10;
    n.cj = 1.2e-3;
    n.cjsw = 1.2e-10;
    n.ldiff = 0.24e-6;
    t.nmos = n;

    spice::MosModel p = n;
    p.type = spice::MosType::Pmos;
    p.vt0 = 0.27;
    p.kp = 150e-6;
    p.lambda = 0.18;
    p.gamma = 0.20;
    t.pmos = p;

    t.layers = {
        {"M2", 0.80, 0.040e-15, 0.090e-15},
        {"M4", 0.42, 0.055e-15, 0.115e-15},
        {"M6", 0.15, 0.070e-15, 0.100e-15},
    };
    return t;
}

}  // namespace

const Technology& tech130() {
    static const Technology t = make130();
    return t;
}

const Technology& tech90() {
    static const Technology t = make90();
    return t;
}

std::vector<const Technology*> allTechnologies() {
    return {&tech130(), &tech90()};
}

}  // namespace sna::tech
