#include "waveform/waveform.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace sna::wave {

namespace {

// The buffer every empty waveform points at. A static, so an empty
// waveform owns nothing: the aliasing pointer below has no control block,
// and copying it touches no reference count.
const std::vector<Sample> kNoSamples;

std::shared_ptr<const std::vector<Sample>> noSamples() {
    return {std::shared_ptr<const std::vector<Sample>>(), &kNoSamples};
}

}  // namespace

Waveform::Waveform() : samples_(noSamples()) {}

Waveform::Waveform(std::vector<Sample> samples) {
    for (std::size_t i = 1; i < samples.size(); ++i) {
        SNA_REQUIRE(samples[i].t > samples[i - 1].t,
                    "waveform times must be strictly increasing");
    }
    samples_ = samples.empty() ? noSamples()
                               : std::make_shared<const std::vector<Sample>>(
                                     std::move(samples));
}

Waveform::Waveform(Waveform&& other) noexcept
    : samples_(std::move(other.samples_)) {
    other.samples_ = noSamples();
}

Waveform& Waveform::operator=(Waveform&& other) noexcept {
    samples_ = std::move(other.samples_);
    other.samples_ = noSamples();
    return *this;
}

Waveform Waveform::constant(double value, double t0, double t1) {
    SNA_REQUIRE(t1 > t0, "constant waveform needs a positive span");
    return Waveform({{t0, value}, {t1, value}});
}

double Waveform::startTime() const {
    SNA_REQUIRE(!empty(), "empty waveform has no start time");
    return samples_->front().t;
}

double Waveform::endTime() const {
    SNA_REQUIRE(!empty(), "empty waveform has no end time");
    return samples_->back().t;
}

double Waveform::value(double t) const {
    const std::vector<Sample>& s = *samples_;
    SNA_REQUIRE(!s.empty(), "cannot evaluate an empty waveform");
    if (t <= s.front().t) return s.front().v;
    if (t >= s.back().t) return s.back().v;
    const auto it = std::lower_bound(
        s.begin(), s.end(), t,
        [](const Sample& x, double time) { return x.t < time; });
    const Sample& hi = *it;
    const Sample& lo = *(it - 1);
    const double f = (t - lo.t) / (hi.t - lo.t);
    return lo.v + f * (hi.v - lo.v);
}

namespace {
Waveform combine(const Waveform& a, const Waveform& b, double sign) {
    SNA_REQUIRE(!a.empty() && !b.empty(), "combining empty waveforms");
    std::vector<double> times;
    times.reserve(a.size() + b.size());
    for (const auto& s : a.samples()) times.push_back(s.t);
    for (const auto& s : b.samples()) times.push_back(s.t);
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    std::vector<Sample> out;
    out.reserve(times.size());
    for (double t : times) out.push_back({t, a.value(t) + sign * b.value(t)});
    return Waveform(std::move(out));
}
}  // namespace

Waveform Waveform::plus(const Waveform& other) const {
    return combine(*this, other, +1.0);
}

Waveform Waveform::minus(const Waveform& other) const {
    return combine(*this, other, -1.0);
}

}  // namespace sna::wave
