#include "waveform/sources.hpp"

#include "util/error.hpp"

namespace sna::wave {

Waveform saturatedRamp(double v0, double v1, double t0, double transition,
                       double tEnd) {
    SNA_REQUIRE(transition > 0.0, "ramp transition must be positive");
    SNA_REQUIRE(tEnd > t0 + transition, "ramp must finish before tEnd");
    std::vector<Sample> s;
    if (t0 > 0.0) s.push_back({0.0, v0});
    s.push_back({t0, v0});
    s.push_back({t0 + transition, v1});
    s.push_back({tEnd, v1});
    return Waveform(std::move(s));
}

Waveform triangleGlitch(double baseline, double height, double t0,
                        double width, double tEnd) {
    SNA_REQUIRE(width > 0.0, "glitch width must be positive");
    SNA_REQUIRE(tEnd > t0 + width, "glitch must finish before tEnd");
    std::vector<Sample> s;
    if (t0 > 0.0) s.push_back({0.0, baseline});
    s.push_back({t0, baseline});
    s.push_back({t0 + 0.5 * width, baseline + height});
    s.push_back({t0 + width, baseline});
    s.push_back({tEnd, baseline});
    return Waveform(std::move(s));
}

}  // namespace sna::wave
