// In-memory spans around the benchmark's calls into the library's layers.
//
// A span records a name ("<layer>.<call>"), start and end on the steady
// clock, the span that was open when it began (its parent), and the run it
// belongs to. Spans are kept in memory and written out once, at exit, as
// Chrome Trace Event JSON (chrome://tracing, Perfetto). A layer's self
// time is the time its spans cover minus the time their child spans cover.
//
// The tracer is used from the benchmark's main thread only: the traced
// replay solves its clusters serially so that spans nest on one timeline.
// Disabled, opening a span costs one branch.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace signoffbench {

struct Span {
    std::string name;
    double start = 0.0;  ///< s since the tracer was created
    double end = 0.0;
    int parent = -1;     ///< index into Tracer::spans(), -1 for a root
    int run = 0;
};

class Tracer {
public:
    explicit Tracer(bool enabled);
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool enabled() const { return enabled_; }
    /// Turn recording on or off (spans already open still close).
    void setEnabled(bool on) { enabled_ = on; }
    /// Run id stamped on spans opened from now on.
    void setRun(int run) { run_ = run; }

    /// Closes its span when destroyed.
    class Scope {
    public:
        Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        ~Scope() {
            if (tracer_ != nullptr) tracer_->close(index_);
        }
        /// Index of the span in Tracer::spans(), -1 when not recorded.
        int index() const { return index_; }

    private:
        Tracer* tracer_;
        int index_;
    };

    /// Open a span named `name`; it closes when the returned scope dies.
    Scope span(const char* name) {
        if (!enabled_) return Scope(nullptr, -1);
        return Scope(this, open(name));
    }

    const std::vector<Span>& spans() const { return spans_; }

    /// Durations (s) of every span with this name, in recording order.
    std::vector<double> durations(const std::string& name) const;

    /// Self time (s) per layer over the subtree rooted at span `root`,
    /// `root` itself included under its own layer. Layers are span-name
    /// prefixes up to the first '.'.
    std::map<std::string, double> selfTimeByLayer(int root) const;

    /// Write every span as Chrome Trace Event JSON. Returns false when the
    /// file cannot be written.
    bool writeChromeJson(const std::string& path) const;

private:
    int open(const char* name);
    void close(int index);
    double now() const;

    bool enabled_;
    int run_ = 0;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;  ///< open spans, innermost last
};

/// The layer of a span name: everything before the first '.'.
std::string layerOf(const std::string& spanName);

}  // namespace signoffbench
