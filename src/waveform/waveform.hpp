// Piecewise-linear waveform: the common currency of the noise flow.
//
// Every engine in OpenSNA (SPICE golden, cluster macromodel, linear
// baselines) produces node voltages as Waveform objects; every metric the
// paper reports (glitch peak, area, width) is computed from them by
// waveform/metrics.hpp. Samples are (t, v) breakpoints with strictly
// increasing time; evaluation outside the span clamps to the end values,
// which matches how SPICE treats PWL sources.
//
// A Waveform is immutable once built: its samples live in one shared,
// reference-counted const buffer, so copying a waveform (a report copied
// out of a retained snapshot, a PWL source built from a glitch) copies a
// pointer, never the samples, and copies on different threads share the
// buffer safely. Transformations return new waveforms. A default-built or
// moved-from waveform is empty.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace sna::wave {

struct Sample {
    double t;
    double v;
};

class Waveform {
public:
    /// An empty waveform (no samples, no allocation).
    Waveform();

    /// Builds from breakpoints; requires strictly increasing times.
    explicit Waveform(std::vector<Sample> samples);

    Waveform(const Waveform&) = default;
    Waveform& operator=(const Waveform&) = default;
    /// A move leaves `other` empty.
    Waveform(Waveform&& other) noexcept;
    Waveform& operator=(Waveform&& other) noexcept;

    static Waveform constant(double value, double t0, double t1);

    bool empty() const { return samples_->empty(); }
    std::size_t size() const { return samples_->size(); }
    /// The shared buffer: copies of one waveform return the same vector.
    const std::vector<Sample>& samples() const { return *samples_; }

    double startTime() const;
    double endTime() const;

    /// Linear interpolation; clamps outside [startTime, endTime].
    double value(double t) const;

    // ---- transformations (all return new waveforms) ----

    /// Pointwise sum on the union of breakpoints, clamped extension.
    Waveform plus(const Waveform& other) const;

    /// Pointwise difference (this - other).
    Waveform minus(const Waveform& other) const;

private:
    /// Never null: an empty waveform points at one static empty buffer.
    std::shared_ptr<const std::vector<Sample>> samples_;
};

}  // namespace sna::wave
