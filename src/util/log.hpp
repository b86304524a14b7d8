// Minimal leveled logger.
//
// The library is quiet by default (Level::Warn); engines emit Info/Debug
// traces that benches and examples can enable. Logging goes to stderr so that
// bench table output on stdout stays machine-readable. The threshold is
// atomic (workers log while the main thread may change it), and a filtered
// message costs one relaxed load: its stream is never built.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace sna::log {

enum class Level { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Global threshold; messages below it are dropped.
void setLevel(Level level);
Level level();

/// Whether a message at `level` passes the current threshold.
bool enabled(Level level);

/// Emit one message at the given level (no newline needed).
void emit(Level level, const std::string& message);

namespace detail {
class LineStream {
public:
    explicit LineStream(Level level) : level_(level) {
        if (enabled(level)) os_.emplace();
    }
    LineStream(const LineStream&) = delete;
    LineStream& operator=(const LineStream&) = delete;
    ~LineStream() {
        if (os_) emit(level_, os_->str());
    }

    template <typename T>
    LineStream& operator<<(const T& value) {
        if (os_) *os_ << value;
        return *this;
    }

private:
    Level level_;
    std::optional<std::ostringstream> os_;  // empty when filtered
};
}  // namespace detail

inline detail::LineStream debug() { return detail::LineStream(Level::Debug); }
inline detail::LineStream info() { return detail::LineStream(Level::Info); }
inline detail::LineStream warn() { return detail::LineStream(Level::Warn); }
inline detail::LineStream error() { return detail::LineStream(Level::Error); }

}  // namespace sna::log
