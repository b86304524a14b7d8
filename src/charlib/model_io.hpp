// Serialization of characterization artifacts.
//
// Characterization is the expensive, amortized step of the flow (the paper
// runs it once per library); production use requires shipping the results.
// This module defines a small line-oriented text format ("snamodel v1") for
// load-curve tables, Thevenin models, propagation tables, and NRC points,
// with exact round-trip (hex-float payloads) and versioned headers.
#pragma once

#include <iosfwd>
#include <string>

#include "charlib/characterize.hpp"

namespace sna::charlib {

// ---- load curve (la::Grid2d) ----
std::string saveLoadCurve(const la::Grid2d& table,
                          const std::string& comment = "");
la::Grid2d loadLoadCurve(const std::string& text);

// ---- Thevenin model ----
std::string saveThevenin(const TheveninModel& model,
                         const std::string& comment = "");
TheveninModel loadThevenin(const std::string& text);

// ---- propagation table ----
std::string savePropagation(const PropagationTable& table,
                            const std::string& comment = "");
PropagationTable loadPropagation(const std::string& text);

// ---- NRC point (one width's failing height; its width is in the cache key)
std::string saveNrcPoint(double height, const std::string& comment = "");
double loadNrcPoint(const std::string& text);

}  // namespace sna::charlib
