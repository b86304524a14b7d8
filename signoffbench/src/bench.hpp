// Shared pieces of the signoff benchmark: the loaded workload state, the
// metric record, and the layer probes the traced run adds.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "charlib/char_cache.hpp"
#include "core/design_index.hpp"
#include "core/incremental.hpp"
#include "core/sna.hpp"
#include "gen.hpp"
#include "parser/spef_parser.hpp"
#include "trace.hpp"

namespace signoffbench {

namespace charlib = sna::charlib;
namespace core = sna::core;
namespace parser = sna::parser;

/// Worker threads of every timed analysis: one closed-loop client on a
/// 4-core machine.
constexpr int kThreads = 4;

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// One workload's parsed inputs. Held by pointer: the index, and any
/// snapshot taken later, keep the Design's address.
struct Loaded {
    parser::SpefFile spef;
    core::TimingWindows windows;
    std::unique_ptr<core::Design> design;
    std::unique_ptr<core::DesignIndex> index;
    std::size_t victims = 0;
};

/// Parse the generated text and build the index, level graph, lint report
/// and propagated windows, each inside its layer's span. `windowsCache`
/// serves the characterizations of the lint and window-propagation stages.
std::unique_ptr<Loaded> load(const DesignText& text, Tracer& tr,
                             charlib::CharCache& windowsCache);

/// A victim cluster as the design flow forms it: the net, its driver and
/// first load, and its strongest-coupled aggressors (driver cell, net).
struct VictimCluster {
    std::string net;
    const core::Instance* driver = nullptr;
    const core::Instance* load = nullptr;
    std::vector<std::pair<std::string, std::string>> ranked;
};

/// The first `limit` victim clusters in SPEF order, ranked like the design
/// flow ranks them (summed coupling cap descending, then net name).
std::vector<VictimCluster> victimClusters(const Loaded& in,
                                          std::size_t maxAggressors,
                                          std::size_t limit);

/// Bitwise view of a report list, the correctness reference of a run.
struct Reference {
    std::vector<std::string> nets;
    std::vector<std::uint64_t> marginBits;
    std::uint64_t digest = 0;  ///< FNV-1a over nets and margin bits
};
Reference referenceOf(const std::vector<core::NetNoiseReport>& reports);

/// Reports of `outcome` that fail the correctness gate: a non-ok status, a
/// non-finite margin, a report missing against `ref` or against the
/// victim count, or a margin or net differing bitwise from `ref`.
std::size_t countFailures(const core::AnalysisOutcome& outcome,
                          const Reference& ref, std::size_t victims);

/// Max |peak error| in percent of the macromodel (core::analyzeCluster)
/// against core::simulateGolden at the alignment the search found, over
/// the paper's Sec. 3 cluster set: 1-3 aggressors x glitch fractions.
double goldenPeakErrPct();

/// What the traced run knows about the workload when its probes start.
struct ProbeContext {
    const Loaded* in = nullptr;
    core::DesignNoiseOptions opt;  ///< the workload's analysis options
    charlib::CharCache* warmCache = nullptr;
    std::size_t replayLimit = 0;   ///< victims the replay solves
    double serialPassSec = 0.0;    ///< the threads = 1 reference pass
    std::uint64_t seed = 0;
    std::string scratchDir;        ///< where the cache file may be written
};

/// The per-layer probes of the traced run: a serial replay of the
/// workload's local cluster solves with a span around every layer call
/// (self time per layer, unattributed share), then unit-cost probes of
/// spice, la, report, charlib (cold characterization, cache save/load) and
/// the scheduler (empty task bodies over the workload's task graph).
std::vector<Metric> layerProbes(const ProbeContext& ctx, Tracer& tr);

}  // namespace signoffbench
