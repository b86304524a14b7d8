// Technology descriptions: synthetic 130 nm and 90 nm nodes.
//
// The paper evaluates on STMicroelectronics 0.13 µm and 90 nm processes,
// which are proprietary; these parameter sets are physically plausible
// stand-ins (supply, thresholds, square-law strengths, wire parasitics in
// the right ranges for those nodes). Every experiment compares models
// against golden simulation **on the same devices**, so the substitution
// preserves the paper's claims (see DESIGN.md, substitutions).
#pragma once

#include <string>
#include <vector>

#include "spice/mosfet.hpp"

namespace sna::tech {

/// Per-unit-length parasitics of a routing layer at minimum width/spacing.
struct WireLayer {
    std::string name;        ///< e.g. "M4"
    double rPerUm = 0.0;     ///< series resistance, ohm/µm
    double cgPerUm = 0.0;    ///< capacitance to ground, F/µm
    double ccPerUm = 0.0;    ///< coupling capacitance to one adjacent
                             ///< minimum-spaced neighbor, F/µm
};

struct Technology {
    std::string name;
    double vdd = 1.2;        ///< nominal supply, V
    double lmin = 0.13e-6;   ///< drawn channel length, m
    double wnUnit = 0.0;     ///< unit NMOS width (X1 inverter pulldown), m
    double wpUnit = 0.0;     ///< unit PMOS width (X1 inverter pullup), m
    spice::MosModel nmos;
    spice::MosModel pmos;
    std::vector<WireLayer> layers;

    const WireLayer& layer(const std::string& layerName) const;
};

/// Appends '/' and the bit pattern of `v` in lowercase hex: the bitwise
/// double encoding of every characterization-cache and shared-library key,
/// so two values share a key only when they are the same double.
void appendBits(std::string& key, double v);

/// The technology's electrical identity as a key, bitwise: name, vdd, lmin,
/// unit widths and every parameter of both MOS models (wire layers are not
/// part of it). Two technologies with the same key characterize identically
/// — corner sweeps perturb models while keeping the name, so the name alone
/// is not enough.
std::string identityKey(const Technology& t);

/// The 0.13 µm node of the paper's main experiment (VDD = 1.2 V).
const Technology& tech130();

/// The 90 nm node of the paper's accuracy sweep (VDD = 1.0 V).
const Technology& tech90();

/// All bundled technologies, for parameterized tests and benches.
std::vector<const Technology*> allTechnologies();

}  // namespace sna::tech
