#include "util/log.hpp"

#include <atomic>
#include <iostream>

namespace sna::log {

namespace {
std::atomic<Level> g_level{Level::Warn};

const char* tag(Level level) {
    switch (level) {
        case Level::Debug: return "debug";
        case Level::Info:  return "info ";
        case Level::Warn:  return "warn ";
        case Level::Error: return "error";
        case Level::Off:   return "off  ";
    }
    return "?";
}
}  // namespace

void setLevel(Level level) {
    g_level.store(level, std::memory_order_relaxed);
}

Level level() { return g_level.load(std::memory_order_relaxed); }

bool enabled(Level level) {
    return static_cast<int>(level) >=
           static_cast<int>(g_level.load(std::memory_order_relaxed));
}

void emit(Level level, const std::string& message) {
    if (!enabled(level)) return;
    std::cerr << "[sna:" << tag(level) << "] " << message << '\n';
}

}  // namespace sna::log
