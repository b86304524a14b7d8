#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace signoffbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
}

int Tracer::open(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run = run_;
    s.start = now();
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void Tracer::close(int index) {
    spans_[static_cast<std::size_t>(index)].end = now();
    // Scopes close in reverse order of opening.
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.name == name) out.push_back(s.end - s.start);
    }
    return out;
}

std::string layerOf(const std::string& spanName) {
    return spanName.substr(0, spanName.find('.'));
}

std::map<std::string, double> Tracer::selfTimeByLayer(int root) const {
    // Spans are recorded in opening order, so every descendant of `root`
    // sits after it; one forward pass marks the subtree.
    std::vector<char> inTree(spans_.size(), 0);
    std::vector<double> self(spans_.size(), 0.0);
    inTree[static_cast<std::size_t>(root)] = 1;
    for (std::size_t i = static_cast<std::size_t>(root); i < spans_.size();
         ++i) {
        const Span& s = spans_[i];
        if (i != static_cast<std::size_t>(root)) {
            if (s.parent < 0 || !inTree[static_cast<std::size_t>(s.parent)]) {
                continue;
            }
            inTree[i] = 1;
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
        }
        self[i] += s.end - s.start;
    }
    std::map<std::string, double> byLayer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (inTree[i]) byLayer[layerOf(spans_[i].name)] += self[i];
    }
    return byLayer;
}

bool Tracer::writeChromeJson(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    char buf[128];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1",
                      s.start * 1e6, (s.end - s.start) * 1e6);
        os << (i == 0 ? "" : ",") << "\n{\"name\": \"" << s.name
           << "\", \"cat\": \"" << layerOf(s.name) << "\", \"ph\": \"X\", "
           << buf << ", \"args\": {\"id\": " << i << ", \"parent\": "
           << s.parent << ", \"run\": " << s.run << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

}  // namespace signoffbench
