#include "waveform/waveform.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace sna::wave {

Waveform::Waveform(std::vector<Sample> samples) : samples_(std::move(samples)) {
    for (std::size_t i = 1; i < samples_.size(); ++i) {
        SNA_REQUIRE(samples_[i].t > samples_[i - 1].t,
                    "waveform times must be strictly increasing");
    }
}

Waveform Waveform::constant(double value, double t0, double t1) {
    SNA_REQUIRE(t1 > t0, "constant waveform needs a positive span");
    return Waveform({{t0, value}, {t1, value}});
}

double Waveform::startTime() const {
    SNA_REQUIRE(!samples_.empty(), "empty waveform has no start time");
    return samples_.front().t;
}

double Waveform::endTime() const {
    SNA_REQUIRE(!samples_.empty(), "empty waveform has no end time");
    return samples_.back().t;
}

double Waveform::value(double t) const {
    SNA_REQUIRE(!samples_.empty(), "cannot evaluate an empty waveform");
    if (t <= samples_.front().t) return samples_.front().v;
    if (t >= samples_.back().t) return samples_.back().v;
    const auto it = std::lower_bound(
        samples_.begin(), samples_.end(), t,
        [](const Sample& s, double time) { return s.t < time; });
    const Sample& hi = *it;
    const Sample& lo = *(it - 1);
    const double f = (t - lo.t) / (hi.t - lo.t);
    return lo.v + f * (hi.v - lo.v);
}

void Waveform::append(double t, double v) {
    SNA_REQUIRE(samples_.empty() || t > samples_.back().t,
                "appended time must advance");
    samples_.push_back({t, v});
}

Waveform Waveform::shifted(double dt) const {
    std::vector<Sample> out = samples_;
    for (auto& s : out) s.t += dt;
    return Waveform(std::move(out));
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
