// Canonical stimulus shapes used across characterization and noise analysis.
#pragma once

#include "waveform/waveform.hpp"

namespace sna::wave {

/// Saturated ramp: v0 until t0, linear to v1 over `transition`, then v1.
/// This is the aggressor Thevenin source shape (V_TH in the paper, after
/// Dartu–Pileggi).
Waveform saturatedRamp(double v0, double v1, double t0, double transition,
                       double tEnd);

/// Triangular glitch on a baseline: rises from `baseline` at t0 to
/// baseline+height at t0+width/2, back at t0+width. The standard shape for
/// noise-propagation table characterization and NRC probing.
Waveform triangleGlitch(double baseline, double height, double t0,
                        double width, double tEnd);

}  // namespace sna::wave
