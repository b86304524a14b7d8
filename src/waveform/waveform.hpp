// Piecewise-linear waveform: the common currency of the noise flow.
//
// Every engine in OpenSNA (SPICE golden, cluster macromodel, linear
// baselines) produces node voltages as Waveform objects; every metric the
// paper reports (glitch peak, area, width) is computed from them by
// waveform/metrics.hpp. Samples are (t, v) breakpoints with strictly
// increasing time; evaluation outside the span clamps to the end values,
// which matches how SPICE treats PWL sources.
#pragma once

#include <cstddef>
#include <vector>

namespace sna::wave {

struct Sample {
    double t;
    double v;
};

class Waveform {
public:
    Waveform() = default;

    /// Builds from breakpoints; requires strictly increasing times.
    explicit Waveform(std::vector<Sample> samples);

    static Waveform constant(double value, double t0, double t1);

    bool empty() const { return samples_.empty(); }
    std::size_t size() const { return samples_.size(); }
    const std::vector<Sample>& samples() const { return samples_; }

    double startTime() const;
    double endTime() const;

    /// Linear interpolation; clamps outside [startTime, endTime].
    double value(double t) const;

    /// Append a breakpoint; time must exceed the current endTime.
    void append(double t, double v);

    // ---- transformations (all return new waveforms) ----

    /// Time shift by dt (positive = later).
    Waveform shifted(double dt) const;

    /// Pointwise sum on the union of breakpoints, clamped extension.
    Waveform plus(const Waveform& other) const;

    /// Pointwise difference (this - other).
    Waveform minus(const Waveform& other) const;

private:
    std::vector<Sample> samples_;
};

}  // namespace sna::wave
