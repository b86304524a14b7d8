#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>

#include "charlib/characterize.hpp"
#include "core/alignment.hpp"
#include "core/frontend.hpp"
#include "core/macromodel.hpp"
#include "core/propagate.hpp"
#include "core/report.hpp"
#include "interconnect/parallel_bus.hpp"
#include "la/dense.hpp"
#include "lint/lint.hpp"
#include "parser/verilog_parser.hpp"
#include "parser/windows_parser.hpp"
#include "stats.hpp"
#include "util/error.hpp"
#include "util/task_scheduler.hpp"
#include "util/thread_pool.hpp"

namespace signoffbench {

using namespace sna;

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::uint64_t bitsOf(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

double medianOr0(const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
}

core::ClusterSpec specFor(const cell::CellLibrary& lib,
                          const VictimCluster& c, const ic::RcNetwork& rc,
                          bool level, double tstop) {
    // The local-only cluster of one holding level, as the design flow
    // builds it: aggressors switch away from the victim's held level.
    core::ClusterSpec spec;
    spec.technology = &lib.technology();
    spec.customNet = &rc;
    spec.tstop = tstop;
    spec.victim.driverCell = c.driver->cellName;
    spec.victim.outputLevel = level;
    spec.victim.glitchInput = lib.cell(c.driver->cellName).inputNames().front();
    spec.victim.receiverCell = c.load->cellName;
    for (const auto& [drvCell, agg] : c.ranked) {
        core::AggressorSpec as;
        as.driverCell = drvCell;
        as.outputRising = !level;
        spec.aggressors.push_back(as);
    }
    return spec;
}

/// The paper's Sec. 3 cluster: 500 um parallel M4 wires, INV_X1 aggressor
/// drivers, a NAND2_X1 victim driver holding its output low while a glitch
/// of `fraction` * vdd propagates through it.
core::ClusterSpec paperCluster(int aggressors, double fraction) {
    core::ClusterSpec spec;
    spec.victim.driverCell = "NAND2_X1";
    spec.victim.glitchInput = "a";
    spec.victim.outputLevel = false;
    spec.victim.glitchHeight = fraction * spec.technology->vdd;
    spec.victim.glitchWidth = 250e-12;
    spec.victim.receiverCell = "INV_X2";
    for (int a = 0; a < aggressors; ++a) {
        core::AggressorSpec agg;
        agg.driverCell = "INV_X1";
        spec.aggressors.push_back(agg);
    }
    spec.layer = "M4";
    spec.lengthUm = 500.0;
    spec.segments = 16;
    return spec;
}

/// Median time (us) of one DenseLu factorization plus solve of an n x n
/// diagonally dominant seeded system.
double luMicros(int n, std::uint64_t seed) {
    SplitMix rng(seed ^ static_cast<std::uint64_t>(n));
    la::DenseMatrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
    la::Vector b(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
            a(r, c) = rng.uniform(-1.0, 1.0) + (r == c ? 2.0 * n : 0.0);
        }
        b[static_cast<std::size_t>(r)] = rng.uniform(-1.0, 1.0);
    }
    const int reps = std::max(20, 40000 / (n * n));
    std::vector<double> batches;
    double sink = 0.0;
    for (int k = 0; k < 7; ++k) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < reps; ++i) {
            la::DenseLu lu(a);
            la::Vector x = b;
            lu.solveInPlace(x);
            sink += x[0];
        }
        batches.push_back(secondsSince(t0) * 1e6 / reps);
    }
    if (!std::isfinite(sink)) std::fprintf(stderr, "lu probe diverged\n");
    return median(batches);
}

}  // namespace

std::unique_ptr<Loaded> load(const DesignText& text, Tracer& tr,
                             charlib::CharCache& windowsCache) {
    const cell::CellLibrary& lib = cell::sharedLibrary(tech::tech130());
    auto in = std::make_unique<Loaded>();
    in->victims = text.victims;
    {
        auto s = tr.span("parser.spef");
        in->spef = parser::parseSpef(text.spef);
    }
    {
        auto s = tr.span("parser.windows");
        in->windows = parser::parseTimingWindows(text.windows);
    }
    {
        auto s = tr.span("parser.verilog");
        const parser::VerilogModule module = parser::parseVerilog(text.verilog);
        in->design = std::make_unique<core::Design>(core::buildDesign(module, lib));
    }
    {
        auto s = tr.span("index.build");
        in->index = std::make_unique<core::DesignIndex>(*in->design, in->spef,
                                                        &in->windows);
    }
    {
        auto s = tr.span("index.levelize");
        in->index->taskGraph();
    }
    {
        auto s = tr.span("lint.design");
        lint::LintOptions lo;
        lo.cache = &windowsCache;
        const lint::LintReport rep =
            lint::lintDesign(*in->index, in->spef, lo);
        if (rep.errors() != 0) {
            throw std::runtime_error("generated design has lint errors");
        }
    }
    {
        auto s = tr.span("windows.propagate");
        core::propagateWindows(*in->index, &windowsCache);
    }
    return in;
}

std::vector<VictimCluster> victimClusters(const Loaded& in,
                                          std::size_t maxAggressors,
                                          std::size_t limit) {
    std::vector<VictimCluster> out;
    for (const auto& [net, spefNet] : in.spef.nets()) {
        if (out.size() >= limit) break;
        const auto& coupling = in.index->couplingOf(net);
        const core::Instance* driver = in.index->driverOf(net);
        const auto& loads = in.index->loadsOf(net);
        if (coupling.empty() || driver == nullptr || loads.empty()) continue;
        std::vector<std::pair<double, std::string>> ranked;
        for (const auto& [agg, cc] : coupling) {
            if (in.spef.nets().count(agg) == 0) continue;
            if (in.index->driverOf(agg) == nullptr) continue;
            ranked.push_back({cc, agg});
        }
        std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
            return a.first != b.first ? a.first > b.first : a.second < b.second;
        });
        if (ranked.size() > maxAggressors) ranked.resize(maxAggressors);
        if (ranked.empty()) continue;
        VictimCluster c;
        c.net = net;
        c.driver = driver;
        c.load = loads.front().first;
        for (const auto& [cc, agg] : ranked) {
            c.ranked.push_back({in.index->driverOf(agg)->cellName, agg});
        }
        out.push_back(std::move(c));
    }
    return out;
}

Reference referenceOf(const std::vector<core::NetNoiseReport>& reports) {
    Reference ref;
    ref.digest = 0xcbf29ce484222325ULL;
    const auto mix = [&ref](const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            ref.digest = (ref.digest ^ b[i]) * 0x100000001b3ULL;
        }
    };
    for (const auto& r : reports) {
        const std::uint64_t bits = bitsOf(r.cluster.margin);
        ref.nets.push_back(r.net);
        ref.marginBits.push_back(bits);
        mix(r.net.data(), r.net.size());
        mix(&bits, sizeof bits);
    }
    return ref;
}

std::size_t countFailures(const core::AnalysisOutcome& outcome,
                          const Reference& ref, std::size_t victims) {
    const auto& reports = outcome.reports;
    std::size_t failed = 0;
    std::size_t victimReports = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto& r = reports[i];
        if (!r.aggressorNets.empty()) ++victimReports;
        const bool bad =
            r.status != core::NetNoiseReport::Status::ok ||
            !std::isfinite(r.cluster.margin) || i >= ref.nets.size() ||
            r.net != ref.nets[i] || bitsOf(r.cluster.margin) != ref.marginBits[i];
        if (bad) ++failed;
    }
    if (reports.size() < ref.nets.size()) {
        failed += ref.nets.size() - reports.size();
    }
    if (victimReports < victims) failed += victims - victimReports;
    if (!outcome.clean() && failed == 0) failed = 1;
    return failed;
}

double goldenPeakErrPct() {
    charlib::CharCache cache;
    core::ReportOptions ro;
    ro.macromodel.cache = &cache;
    double worst = 0.0;
    for (const int aggressors : {1, 2, 3}) {
        for (const double fraction : {0.0, 0.35, 0.7}) {
            const core::ClusterSpec spec = paperCluster(aggressors, fraction);
            const core::ClusterReport model = core::analyzeCluster(spec, ro);
            core::ClusterSpec at = spec;
            for (std::size_t a = 0; a < at.aggressors.size(); ++a) {
                at.aggressors[a].switchTime = model.aggressorSwitchTimes[a];
            }
            at.victim.glitchTime = model.glitchTime;
            const core::NoiseResult golden = core::simulateGolden(at);
            const double g = golden.metrics.peak;
            SNA_REQUIRE(std::abs(g) > 0.03, "paper cluster without noise");
            worst = std::max(
                worst, std::abs(model.worst.metrics.peak - g) / std::abs(g));
        }
    }
    return 100.0 * worst;
}

std::vector<Metric> layerProbes(const ProbeContext& ctx, Tracer& tr) {
    const cell::CellLibrary& lib = ctx.in->design->library();
    const core::DesignNoiseOptions& opt = ctx.opt;
    core::ReportOptions ropt = opt.report;
    ropt.macromodel.cache = ctx.warmCache;
    std::vector<Metric> m;
    const auto put = [&m](const char* name, double value, const char* unit) {
        m.push_back({name, value, unit});
    };
    const std::vector<VictimCluster> clusters =
        victimClusters(*ctx.in, opt.maxAggressors, ctx.replayLimit);

    // ---- replay: the workload's local cluster solves, serially, with a
    // span around every layer call. Everything between those calls (the
    // benchmark's own cluster assembly) is the root's self time: the
    // unattributed share. Run once traced and once untraced; the wall-time
    // difference is the tracing overhead.
    std::vector<double> evals;
    const auto replay = [&] {
        auto root = tr.span("bench.replay");
        for (const VictimCluster& c : clusters) {
            std::vector<std::string> nets{c.net};
            for (const auto& [cell, agg] : c.ranked) nets.push_back(agg);
            ic::RcNetwork rc;
            {
                auto s = tr.span("interconnect.rc");
                rc = ic::rcFromSpef(ctx.in->spef, nets);
            }
            for (const bool level : {false, true}) {
                const core::ClusterSpec spec =
                    specFor(lib, c, rc, level, opt.tstop);
                std::unique_ptr<core::ClusterMacromodel> model;
                {
                    auto s = tr.span("macromodel.build");
                    model = std::make_unique<core::ClusterMacromodel>(
                        spec, ropt.macromodel);
                }
                wave::GlitchMetrics metrics;
                if (ropt.searchAlignment) {
                    auto s = tr.span("alignment.search");
                    const core::AlignmentResult a =
                        core::findWorstAlignment(*model, ropt.alignment);
                    evals.push_back(a.evaluations);
                    metrics = a.worst.metrics;
                } else {
                    auto s = tr.span("spice.analyze");
                    metrics = model->analyze().metrics;
                }
                {
                    auto s = tr.span("report.nrc");
                    core::nrcLimitFor(spec, metrics, ctx.warmCache, ropt.nrc);
                }
            }
        }
        return root.index();
    };
    const int replayRoot = replay();
    tr.setEnabled(false);
    const auto u0 = std::chrono::steady_clock::now();
    replay();
    const double untracedWall = secondsSince(u0);
    tr.setEnabled(true);
    const Span& rootSpan = tr.spans()[static_cast<std::size_t>(replayRoot)];
    const double replayWall = rootSpan.end - rootSpan.start;
    const std::map<std::string, double> self = tr.selfTimeByLayer(replayRoot);
    const auto share = [&](const char* layer) {
        const auto it = self.find(layer);
        return it == self.end() || replayWall <= 0.0 ? 0.0
                                                     : it->second / replayWall;
    };
    std::fprintf(stderr,
                 "replay: %zu victims, %.3f s (%.1f%% of the serial pass); "
                 "self time per layer:\n",
                 clusters.size(), replayWall,
                 100.0 * replayWall / ctx.serialPassSec);
    for (const auto& [layer, sec] : self) {
        std::fprintf(stderr, "  %-13s %8.4f s  %5.1f%%%s\n", layer.c_str(), sec,
                     100.0 * sec / replayWall,
                     layer == "bench" ? "  (unattributed)" : "");
    }

    // ---- unit-cost probes on the first few victims (outside the replay).
    std::vector<double> transientMs, engineNodes;
    {
        auto root = tr.span("bench.probes");
        const std::size_t n = std::min<std::size_t>(clusters.size(), 8);
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<std::string> nets{clusters[i].net};
            for (const auto& [cell, agg] : clusters[i].ranked) nets.push_back(agg);
            const ic::RcNetwork rc = ic::rcFromSpef(ctx.in->spef, nets);
            const core::ClusterSpec spec =
                specFor(lib, clusters[i], rc, false, opt.tstop);
            const core::ClusterMacromodel model(spec, ropt.macromodel);
            std::vector<double> times;
            for (const auto& agg : spec.aggressors) times.push_back(agg.switchTime);
            for (int k = 0; k < 3; ++k) {
                auto s = tr.span("spice.transient");
                const core::NoiseResult r =
                    model.analyzeAt(times, spec.victim.glitchTime);
                transientMs.push_back(r.runtimeSec * 1e3);
                engineNodes.push_back(static_cast<double>(r.engineNodes));
            }
            if (!ropt.searchAlignment) {
                auto s = tr.span("alignment.search");
                evals.push_back(
                    core::findWorstAlignment(model, ropt.alignment).evaluations);
            }
        }
    }
    put("spice.transient_ms", medianOr0(transientMs), "ms");
    put("spice.engine_nodes", medianOr0(engineNodes), "count");
    put("alignment.search_s", medianOr0(tr.durations("alignment.search")), "s");
    double evalSum = 0.0;
    for (const double e : evals) evalSum += e;
    put("alignment.evals_per_search",
        evals.empty() ? 0.0 : evalSum / static_cast<double>(evals.size()),
        "count");
    put("macromodel.build_s", medianOr0(tr.durations("macromodel.build")), "s");
    put("la.lu_n8_us", luMicros(8, ctx.seed), "us");
    put("la.lu_n64_us", luMicros(64, ctx.seed), "us");
    put("report.nrc_lookup_us",
        medianOr0(tr.durations("report.nrc")) * 1e6, "us");

    // ---- cold characterization, one direct call per table kind, on the
    // cells the workload's clusters use.
    {
        const cell::Cell& drv = lib.cell(clusters.front().driver->cellName);
        const cell::Cell& rcv = lib.cell(clusters.front().load->cellName);
        const std::string pin = drv.inputNames().front();
        {
            auto s = tr.span("charlib.load_curve");
            charlib::LoadCurveSpec spec;
            spec.cell = &drv;
            spec.input = pin;
            spec.nVin = spec.nVout = ropt.macromodel.loadCurveGrid;
            charlib::characterizeLoadCurve(spec);
        }
        {
            auto s = tr.span("charlib.thevenin");
            charlib::TheveninSpec spec;
            spec.cell = &drv;
            spec.input = pin;
            spec.loadCap =
                ctx.in->spef.net(clusters.front().net).totalCap;
            charlib::characterizeThevenin(spec);
        }
        {
            auto s = tr.span("charlib.nrc");
            charlib::NrcSpec spec;
            spec.cell = &rcv;
            spec.input = rcv.inputNames().front();
            spec.widths = ropt.nrc.grid();
            charlib::characterizeNrc(spec);
        }
        {
            auto s = tr.span("charlib.propagation");
            charlib::PropagationSpec spec;
            spec.cell = &drv;
            spec.input = pin;
            spec.heights =
                charlib::canonicalPropagationHeights(lib.technology().vdd);
            spec.widths = charlib::canonicalPropagationWidths();
            charlib::characterizePropagation(spec);
        }
    }
    put("charlib.load_curve_s", medianOr0(tr.durations("charlib.load_curve")), "s");
    put("charlib.thevenin_s", medianOr0(tr.durations("charlib.thevenin")), "s");
    put("charlib.nrc_s", medianOr0(tr.durations("charlib.nrc")), "s");
    put("charlib.propagation_s", medianOr0(tr.durations("charlib.propagation")), "s");

    // ---- persistence of the warm cache.
    {
        const std::string path = ctx.scratchDir + "/probe.snacache";
        charlib::CharCache::PersistResult saved, loaded;
        {
            auto s = tr.span("charlib.cache_save");
            saved = ctx.warmCache->save(path);
        }
        charlib::CharCache fresh;
        {
            auto s = tr.span("charlib.cache_load");
            loaded = fresh.load(path);
        }
        std::remove(path.c_str());
        std::remove((path + ".lock").c_str());
        if (!saved.ok || !loaded.ok || loaded.entries != saved.entries) {
            throw std::runtime_error("cache save/load round trip failed");
        }
    }
    put("charlib.cache_save_s", medianOr0(tr.durations("charlib.cache_save")), "s");
    put("charlib.cache_load_s", medianOr0(tr.durations("charlib.cache_load")), "s");

    // ---- scheduler fixed cost: empty bodies over the workload's graph.
    {
        const util::TaskGraph& graph = ctx.in->index->taskGraph().graph;
        util::ThreadPool pool(kThreads);
        std::vector<double> perTask;
        for (int k = 0; k < 15; ++k) {
            auto s = tr.span("scheduler.empty_graph");
            const auto t0 = std::chrono::steady_clock::now();
            util::runTaskGraph(graph, [](int) {}, &pool);
            perTask.push_back(secondsSince(t0) * 1e6 /
                              std::max(1, graph.size()));
        }
        put("scheduler.empty_task_us", median(perTask), "us");
    }

    put("trace.unattributed_share", share("bench"), "ratio");
    put("trace.overhead_share", replayWall / untracedWall - 1.0, "ratio");
    put("trace.replay_pass_share", replayWall / ctx.serialPassSec, "ratio");
    put("self.interconnect_share", share("interconnect"), "ratio");
    put("self.macromodel_share", share("macromodel"), "ratio");
    put("self.alignment_share", share("alignment"), "ratio");
    put("self.spice_share", share("spice"), "ratio");
    put("self.report_share", share("report"), "ratio");
    return m;
}

}  // namespace signoffbench
