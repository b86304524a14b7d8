// The signoff benchmark: three seeded workloads through OpenSNA's public
// API, one closed-loop client with 4 analysis worker threads.
//
//   wavefront_aligned  the production signoff pass: propagated wavefront,
//                      alignment search on, seeded switching windows, warm
//                      characterization cache; many shallow chains.
//   flat_cold          the first run without a cache file: the flat sweep
//                      (no propagation, no alignment search) on a ring whose
//                      coupling caps all differ, a fresh cache every pass.
//   eco_stream         ECOs against a retained snapshot of an 800-net
//                      windowed wavefront (alignment search off): seeded
//                      single-driver resizes and occasional coupling-cap
//                      re-extractions, each timed from the DesignDelta
//                      handed to analyzeDesignIncrementalOutcome until its
//                      outcome returns.
//
// A request is one full pass on the first two workloads and one ECO on the
// third. Requests and set-up are timed in CPU time of the whole process
// (every thread, user + system), not in wall time: on a host whose cores
// are shared with other guests, wall time also counts the time the host
// gave to them (steal), which moves a run by tens of percent, while CPU
// time stays within a few. Wall times go to stderr.
//
// Every pass is checked against a serial (threads = 1) reference computed
// in set-up: clean outcome, one report per victim, finite margins, margins
// bitwise equal. Every kEcoCheckEvery-th ECO is compared bitwise against a
// full re-run, outside the timed region.
//
// Usage: signoff_bench --workload NAME --seed N --seconds S --trace 0|1
//                      [--scratch DIR] [--smoke]
// The last line of stdout is one JSON object: correct, attempted, failed,
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// With --trace 1 the spans are also written to DIR/trace-NAME-N.json as
// Chrome Trace Event JSON. --smoke shrinks every design to seconds-scale.
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"

namespace {

using namespace sna;
using namespace signoffbench;
using Clock = std::chrono::steady_clock;

// Set-up repeats at least kSetupReps times and until it has taken
// kSetupMinSec, so a set-up of a few milliseconds still gets a steady
// median.
constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 25;
constexpr double kSetupMinSec = 1.0;
constexpr int kMinEcos = 100;       // p90 needs 10 samples beyond it
constexpr int kMinPasses = 3;       // a median that one stall cannot move
constexpr int kEcoCheckEvery = 50;  // ECOs between full re-run checks
constexpr int kReextractEvery = 10;
constexpr double kHardStopSec = 100.0;  // stays well inside 180 s

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string scratch = ".";
};

struct Sizes {
    ChainShape aligned{5, 8};
    int ringNets = 240;
    ChainShape eco{100, 8};
};

Sizes sizesFor(bool smoke) {
    Sizes s;
    if (smoke) {
        s.aligned = {3, 8};
        s.ringNets = 24;
        s.eco = {16, 8};
    }
    return s;
}

double secondsSince(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time (s) of the whole process: every thread, joined ones included.
double cpuSeconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double sum(const std::vector<double>& v) {
    double total = 0.0;
    for (const double x : v) total += x;
    return total;
}

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// What every workload hands back to main.
struct Run {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<double> setupSec;       ///< wall, one per set-up
    std::vector<double> setupCpuSec;    ///< CPU, one per set-up
    std::vector<double> requestSec;     ///< wall, one per pass or ECO
    std::vector<double> requestCpuSec;  ///< CPU, one per pass or ECO
    std::size_t victimsPerRequest = 0;  ///< victim reports per request
    std::vector<Metric> layer;          ///< per-layer metrics (traced run)
};

core::DesignNoiseOptions optionsFor(const std::string& workload,
                                    const Loaded& in) {
    core::DesignNoiseOptions opt;
    opt.threads = kThreads;
    if (workload == "flat_cold") {
        opt.report.searchAlignment = false;
        return opt;
    }
    opt.propagate = true;
    opt.windows = &in.windows;
    opt.report.searchAlignment = workload == "wavefront_aligned";
    return opt;
}

/// Victim reports in a report list (propagated-only entries have none).
std::size_t victimCount(const std::vector<core::NetNoiseReport>& reports) {
    std::size_t n = 0;
    for (const auto& r : reports) n += r.aggressorNets.empty() ? 0 : 1;
    return n;
}

/// Scheduler and cache counters of the timed requests, for the traced run.
struct Counters {
    util::SchedulerStats sched;
    std::size_t charRuns = 0;
    std::size_t charHits = 0;
    double t1Sec = 0.0;  ///< the serial reference pass
    double t4Sec = 0.0;  ///< a pass at kThreads, same state
};

std::size_t hitsOf(const charlib::CharCache::Stats& s) {
    return s.loadCurveHits + s.theveninHits + s.nrcHits + s.propagationHits +
           s.totalDiskHits();
}

/// Per-layer metrics every workload reports from its own state.
void commonLayerMetrics(Run& run, const Tracer& tr, const Counters& c,
                        double noopMs, double dirtyTasks, double reuseRatio) {
    const auto med = [&tr](const char* name) {
        const auto d = tr.durations(name);
        return d.empty() ? 0.0 : median(d);
    };
    double busy = 0.0;
    for (const double b : c.sched.busyFraction) busy += b;
    if (!c.sched.busyFraction.empty()) {
        busy /= static_cast<double>(c.sched.busyFraction.size());
    }
    const double lookups = static_cast<double>(c.charRuns + c.charHits);
    std::vector<Metric>& m = run.layer;
    m.push_back({"charlib.runs", static_cast<double>(c.charRuns), "count"});
    m.push_back({"charlib.hit_ratio",
                 lookups > 0 ? static_cast<double>(c.charHits) / lookups : 0.0,
                 "ratio"});
    m.push_back({"scheduler.busy_fraction", busy, "ratio"});
    m.push_back({"scheduler.steals", static_cast<double>(c.sched.steals), "count"});
    m.push_back({"scheduler.max_ready_depth",
                 static_cast<double>(c.sched.maxReadyDepth), "count"});
    m.push_back({"scheduler.speedup_vs_t1",
                 c.t4Sec > 0 ? c.t1Sec / c.t4Sec : 0.0, "ratio"});
    m.push_back({"incremental.noop_ms", noopMs, "ms"});
    m.push_back({"incremental.dirty_tasks", dirtyTasks, "count"});
    m.push_back({"incremental.reuse_ratio", reuseRatio, "ratio"});
    m.push_back({"parser.spef_s", med("parser.spef"), "s"});
    m.push_back({"parser.windows_s", med("parser.windows"), "s"});
    m.push_back({"index.build_s", med("index.build"), "s"});
    m.push_back({"index.levelize_s", med("index.levelize"), "s"});
    m.push_back({"windows.propagate_s", med("windows.propagate"), "s"});
    m.push_back({"lint.design_s", med("lint.design"), "s"});
}

/// Median empty-delta incremental call (ms) against `snap`.
double noopMillis(const Loaded& in, const core::DesignNoiseOptions& opt,
                  core::AnalysisSnapshot& snap, Tracer& tr,
                  core::IncrementalStats& st) {
    std::vector<double> ms;
    for (int k = 0; k < 5; ++k) {
        auto s = tr.span("incremental.noop");
        const auto t0 = Clock::now();
        core::analyzeDesignIncrementalOutcome(*in.design, in.spef, {}, snap,
                                              opt, &st);
        ms.push_back(secondsSince(t0) * 1e3);
    }
    return median(ms);
}

/// The two pass workloads: set up, take the serial reference, then time
/// passes at kThreads until `seconds` have gone by.
Run runPasses(const Args& a, Tracer& tr) {
    const Sizes sizes = sizesFor(a.smoke);
    const bool flat = a.workload == "flat_cold";
    Run run;
    std::unique_ptr<Loaded> in;
    std::unique_ptr<charlib::CharCache> cache;
    for (int rep = 0; rep < kSetupReps || (rep < kSetupMaxReps &&
                                           sum(run.setupSec) < kSetupMinSec);
         ++rep) {
        tr.setRun(rep);
        const auto t0 = Clock::now();
        const double c0 = cpuSeconds();
        auto s = tr.span("bench.setup");
        DesignText text;
        {
            auto g = tr.span("bench.generate");
            text = flat ? generateRing(a.seed, sizes.ringNets)
                        : generateChains(a.seed, sizes.aligned);
        }
        cache = std::make_unique<charlib::CharCache>();
        charlib::CharCache windowsCache;
        in = load(text, tr, flat ? windowsCache : *cache);
        if (!flat) {
            // Warm every characterization the timed passes need. The keys do
            // not depend on the alignment, so a pass without the search
            // fills them at a fraction of a searched pass's cost.
            auto w = tr.span("charlib.warm");
            core::DesignNoiseOptions warm = optionsFor(a.workload, *in);
            warm.report.searchAlignment = false;
            warm.cache = cache.get();
            core::analyzeDesignOutcome(*in->design, in->spef, warm);
        }
        run.setupCpuSec.push_back(cpuSeconds() - c0);
        run.setupSec.push_back(secondsSince(t0));
    }
    tr.setRun(static_cast<int>(run.setupSec.size()));

    core::DesignNoiseOptions opt = optionsFor(a.workload, *in);
    Counters counters;
    Reference ref;
    {
        auto s = tr.span("bench.reference");
        charlib::CharCache fresh;
        core::DesignNoiseOptions serial = opt;
        serial.threads = 1;
        serial.cache = flat ? &fresh : cache.get();
        const auto t0 = Clock::now();
        const core::AnalysisOutcome out =
            core::analyzeDesignOutcome(*in->design, in->spef, serial);
        counters.t1Sec = secondsSince(t0);
        ref = referenceOf(out.reports);
        if (victimCount(out.reports) != in->victims || !out.clean()) {
            std::fprintf(stderr, "serial reference: %zu of %zu victims\n",
                         victimCount(out.reports), in->victims);
            run.failed += 1;
            run.attempted += 1;
        }
    }
    std::fprintf(stderr,
                 "%s: %zu victims, %zu reports, digest %016llx; set-up %.3f s, "
                 "serial reference %.3f s\n",
                 a.workload.c_str(), in->victims, ref.nets.size(),
                 static_cast<unsigned long long>(ref.digest),
                 median(run.setupSec), counters.t1Sec);

    const auto before = cache->stats();
    std::unique_ptr<charlib::CharCache> passCache;
    const auto start = Clock::now();
    double measured = 0.0;
    for (int pass = 0; measured < a.seconds || pass < kMinPasses; ++pass) {
        if (secondsSince(start) > kHardStopSec) break;
        if (flat) passCache = std::make_unique<charlib::CharCache>();
        opt.cache = flat ? passCache.get() : cache.get();
        opt.schedulerStats = &counters.sched;
        const auto t0 = Clock::now();
        const double c0 = cpuSeconds();
        core::AnalysisOutcome out;
        {
            auto s = tr.span("core.pass");
            out = core::analyzeDesignOutcome(*in->design, in->spef, opt);
        }
        run.requestCpuSec.push_back(cpuSeconds() - c0);
        const double sec = secondsSince(t0);
        measured += sec;
        run.requestSec.push_back(sec);
        run.attempted += ref.nets.size();
        run.failed += countFailures(out, ref, in->victims);
        run.victimsPerRequest = in->victims;
        if (flat) {
            const auto st = passCache->stats();
            counters.charRuns += st.totalRuns();
            counters.charHits += hitsOf(st);
        }
    }
    opt.schedulerStats = nullptr;
    if (!flat) {
        const auto after = cache->stats();
        counters.charRuns = after.totalRuns() - before.totalRuns();
        counters.charHits = hitsOf(after) - hitsOf(before);
    }
    if (!a.trace) return run;

    counters.t4Sec = median(run.requestSec);
    charlib::CharCache* warm = flat ? passCache.get() : cache.get();
    opt.cache = warm;
    core::AnalysisSnapshot snap;
    {
        auto s = tr.span("core.snapshot");
        core::DesignNoiseOptions capture = opt;
        capture.snapshot = &snap;
        core::analyzeDesignOutcome(*in->design, in->spef, capture);
    }
    core::IncrementalStats st;
    const double noop = noopMillis(*in, opt, snap, tr, st);
    const double reuse =
        static_cast<double>(st.reusedVictimReports) /
        std::max<std::size_t>(1, st.reusedVictimReports + st.solvedVictimReports);
    commonLayerMetrics(run, tr, counters, noop,
                       static_cast<double>(st.dirtyTasks), reuse);

    ProbeContext ctx;
    ctx.in = in.get();
    ctx.opt = opt;
    ctx.warmCache = warm;
    ctx.replayLimit = in->victims;
    ctx.serialPassSec = counters.t1Sec;
    ctx.seed = a.seed;
    ctx.scratchDir = a.scratch;
    for (Metric& m : layerProbes(ctx, tr)) run.layer.push_back(std::move(m));
    return run;
}

/// Apply one ECO to the design state and describe it as a delta. A
/// re-extraction regenerates and re-parses the SPEF with one net's
/// coupling factor changed (outside the timed region).
core::DesignDelta applyEco(const EcoOp& op, const Args& a,
                           const ChainShape& shape, Loaded& in,
                           std::vector<double>& scales) {
    core::DesignDelta delta;
    if (op.kind == EcoOp::Kind::resize) {
        const std::string inst = "g" + std::to_string(op.index);
        in.design->replaceCell(inst, op.cell);
        delta.instances.push_back(inst);
    } else {
        scales[static_cast<std::size_t>(op.index)] = op.scale;
        in.spef = parser::parseSpef(generateChains(a.seed, shape, scales).spef);
        delta.nets.push_back("n" + std::to_string(op.index));
    }
    return delta;
}

/// Toggle every pool target into its ECO state and back: after this the
/// cache holds every characterization the stream can ask for.
void warmEcoPools(const EcoStream& stream, const Args& a,
                  const ChainShape& shape, Loaded& in,
                  std::vector<double>& scales,
                  const core::DesignNoiseOptions& opt,
                  core::AnalysisSnapshot& snap) {
    for (const bool toggled : {true, false}) {
        core::DesignDelta resize;
        for (const int g : stream.resizePool) {
            EcoOp op;
            op.index = g;
            op.cell = toggled ? "INV_X2" : "INV_X1";
            const core::DesignDelta d = applyEco(op, a, shape, in, scales);
            resize.instances.push_back(d.instances.front());
        }
        core::analyzeDesignIncrementalOutcome(*in.design, in.spef, resize,
                                              snap, opt);
        core::DesignDelta reextract;
        for (const int n : stream.reextractPool) {
            scales[static_cast<std::size_t>(n)] = toggled ? kEcoScale : 1.0;
            reextract.nets.push_back("n" + std::to_string(n));
        }
        in.spef = parser::parseSpef(generateChains(a.seed, shape, scales).spef);
        core::analyzeDesignIncrementalOutcome(*in.design, in.spef, reextract,
                                              snap, opt);
    }
}

Run runEcoStream(const Args& a, Tracer& tr) {
    const ChainShape shape = sizesFor(a.smoke).eco;
    Run run;
    std::unique_ptr<Loaded> in;
    std::unique_ptr<charlib::CharCache> cache;
    std::unique_ptr<core::AnalysisSnapshot> snap;
    std::vector<double> scales;
    EcoStream stream;
    Counters counters;
    for (int rep = 0; rep < kSetupReps || (rep < kSetupMaxReps &&
                                           sum(run.setupSec) < kSetupMinSec);
         ++rep) {
        tr.setRun(rep);
        const auto t0 = Clock::now();
        const double c0 = cpuSeconds();
        auto s = tr.span("bench.setup");
        DesignText text;
        {
            auto g = tr.span("bench.generate");
            text = generateChains(a.seed, shape);
            stream = generateEcoStream(a.seed, shape, 20000, kReextractEvery);
        }
        // The snapshot points at the design: drop it before its design.
        snap.reset();
        cache = std::make_unique<charlib::CharCache>();
        in = load(text, tr, *cache);
        scales.assign(static_cast<std::size_t>(shape.nets()), 1.0);
        core::DesignNoiseOptions opt = optionsFor(a.workload, *in);
        opt.cache = cache.get();
        snap = std::make_unique<core::AnalysisSnapshot>();
        {
            auto c = tr.span("core.snapshot");
            core::DesignNoiseOptions capture = opt;
            capture.snapshot = snap.get();
            capture.schedulerStats = &counters.sched;
            const auto p0 = Clock::now();
            core::analyzeDesignOutcome(*in->design, in->spef, capture);
            counters.t4Sec = secondsSince(p0);
        }
        {
            auto w = tr.span("charlib.warm");
            warmEcoPools(stream, a, shape, *in, scales, opt, *snap);
        }
        run.setupCpuSec.push_back(cpuSeconds() - c0);
        run.setupSec.push_back(secondsSince(t0));
    }
    tr.setRun(static_cast<int>(run.setupSec.size()));

    core::DesignNoiseOptions opt = optionsFor(a.workload, *in);
    opt.cache = cache.get();
    // The serial reference: the retained snapshot must hold exactly what a
    // threads = 1 pass over the same (generated) design reports.
    {
        auto s = tr.span("bench.reference");
        core::DesignNoiseOptions serial = opt;
        serial.threads = 1;
        const auto t0 = Clock::now();
        const core::AnalysisOutcome out =
            core::analyzeDesignOutcome(*in->design, in->spef, serial);
        counters.t1Sec = secondsSince(t0);
        const Reference ref = referenceOf(out.reports);
        core::IncrementalStats st;
        const core::AnalysisOutcome spliced = core::analyzeDesignIncrementalOutcome(
            *in->design, in->spef, {}, *snap, opt, &st);
        const std::size_t bad = countFailures(spliced, ref, in->victims);
        std::fprintf(stderr,
                     "eco_stream: %zu victims, digest %016llx, %zu reports "
                     "off the serial reference; set-up %.3f s, snapshot "
                     "pass %.3f s, serial reference %.3f s\n",
                     in->victims, static_cast<unsigned long long>(ref.digest),
                     bad, median(run.setupSec), counters.t4Sec,
                     counters.t1Sec);
        if (bad != 0 || victimCount(out.reports) != in->victims) {
            run.failed += 1;
            run.attempted += 1;
        }
    }

    const auto before = cache->stats();
    std::vector<double> dirty, reuse;
    const auto start = Clock::now();
    double measured = 0.0;
    std::size_t k = 0;
    // Whole periods of the stream only: every run then times the same mix
    // of ECOs, and the percentiles do not depend on where it stopped.
    const std::size_t period = static_cast<std::size_t>(stream.period);
    for (; k < stream.ops.size() &&
           (measured < a.seconds || k < static_cast<std::size_t>(kMinEcos) ||
            k % period != 0);
         ++k) {
        if (secondsSince(start) > kHardStopSec) break;
        const auto p0 = Clock::now();
        const core::DesignDelta delta =
            applyEco(stream.ops[k], a, shape, *in, scales);
        const double prep = secondsSince(p0);
        core::IncrementalStats st;
        const auto t0 = Clock::now();
        const double c0 = cpuSeconds();
        core::AnalysisOutcome out;
        {
            auto s = tr.span("core.eco");
            out = core::analyzeDesignIncrementalOutcome(*in->design, in->spef,
                                                        delta, *snap, opt, &st);
        }
        run.requestCpuSec.push_back(cpuSeconds() - c0);
        const double sec = secondsSince(t0);
        measured += prep + sec;
        run.requestSec.push_back(sec);
        run.victimsPerRequest = in->victims;
        dirty.push_back(static_cast<double>(st.dirtyTasks));
        reuse.push_back(static_cast<double>(st.reusedVictimReports) /
                        std::max<std::size_t>(1, st.reusedVictimReports +
                                                     st.solvedVictimReports));
        bool ok = out.clean() && victimCount(out.reports) == in->victims &&
                  !st.indexRebuilt;
        for (const auto& r : out.reports) {
            ok = ok && r.status == core::NetNoiseReport::Status::ok &&
                 std::isfinite(r.cluster.margin);
        }
        if ((k + 1) % kEcoCheckEvery == 0) {
            auto s = tr.span("bench.eco_check");
            const core::AnalysisOutcome full =
                core::analyzeDesignOutcome(*in->design, in->spef, opt);
            ok = ok && countFailures(out, referenceOf(full.reports),
                                     in->victims) == 0;
        }
        ++run.attempted;
        if (!ok) ++run.failed;
    }
    std::fprintf(stderr,
                 "eco_stream: %zu ECOs (periods of %zu), %zu full re-run "
                 "checks\n",
                 k, period, k / kEcoCheckEvery);
    if (!a.trace) return run;

    const auto after = cache->stats();
    counters.charRuns = after.totalRuns() - before.totalRuns();
    counters.charHits = hitsOf(after) - hitsOf(before);
    {
        // The snapshot pass ran cold; time a warm one for the speed-up.
        auto s = tr.span("core.pass");
        const auto t0 = Clock::now();
        core::analyzeDesignOutcome(*in->design, in->spef, opt);
        counters.t4Sec = secondsSince(t0);
    }
    core::IncrementalStats st;
    const double noop = noopMillis(*in, opt, *snap, tr, st);
    double dirtySum = 0.0, reuseSum = 0.0;
    for (const double d : dirty) dirtySum += d;
    for (const double r : reuse) reuseSum += r;
    const double n = static_cast<double>(std::max<std::size_t>(1, dirty.size()));
    commonLayerMetrics(run, tr, counters, noop, dirtySum / n, reuseSum / n);

    ProbeContext ctx;
    ctx.in = in.get();
    ctx.opt = opt;
    ctx.warmCache = cache.get();
    ctx.replayLimit = a.smoke ? 16 : 96;
    ctx.serialPassSec = counters.t1Sec;
    ctx.seed = a.seed;
    ctx.scratchDir = a.scratch;
    for (Metric& m : layerProbes(ctx, tr)) run.layer.push_back(std::move(m));
    return run;
}

bool parseArgs(int argc, char** argv, Args& a) {
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = value;
            } else if (flag == "--seed") {
                a.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
            } else if (flag == "--trace") {
                a.trace = std::stoi(value) != 0;
            } else if (flag == "--scratch") {
                a.scratch = value;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return a.workload == "wavefront_aligned" || a.workload == "flat_cold" ||
           a.workload == "eco_stream";
}

void printResult(bool correct, const Run& run,
                 const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", run.attempted, run.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: %s --workload wavefront_aligned|flat_cold|"
                     "eco_stream --seed N --seconds S --trace 0|1 "
                     "[--scratch DIR] [--smoke]\n",
                     argv[0]);
        return 2;
    }
    Tracer tr(a.trace);
    Run run;
    try {
        run = a.workload == "eco_stream" ? runEcoStream(a, tr) : runPasses(a, tr);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
        return 1;
    }

    std::vector<Metric> metrics;
    if (a.trace) {
        metrics = run.layer;
        const std::string path = a.scratch + "/trace-" + a.workload + "-" +
                                 std::to_string(a.seed) + ".json";
        if (!tr.writeChromeJson(path)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::fprintf(stderr, "trace: %zu spans written to %s\n",
                     tr.spans().size(), path.c_str());
    } else {
        const std::vector<double>& cpu = run.requestCpuSec;
        const double p50 = median(cpu);
        const auto [pct, tail] = highestResolvedPercentile(cpu, 90);
        if (pct != 90) {
            std::fprintf(stderr,
                         "eco_p90_cpu_ms: %zu requests leave fewer than %zu "
                         "beyond p90; reporting p%d\n",
                         cpu.size(), kMinBeyond, pct);
        }
        const auto g0 = Clock::now();
        const double goldenErr = goldenPeakErrPct();
        std::fprintf(stderr, "golden cluster set: %.3f s\n", secondsSince(g0));
        // Throughput over every timed request: the CPU time the whole mix
        // of requests took, not one request's.
        const double perCpuSec = static_cast<double>(cpu.size()) / sum(cpu);
        metrics = {
            {"setup_s", median(run.setupCpuSec), "s"},
            {"nets_per_cpu_s",
             static_cast<double>(run.victimsPerRequest) * perCpuSec, "1/s"},
            {"eco_p50_cpu_ms", p50 * 1e3, "ms"},
            {"eco_p90_cpu_ms", tail * 1e3, "ms"},
            {"ecos_per_cpu_s", perCpuSec, "1/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"golden_peak_err_pct", goldenErr, "%"},
        };
        std::fprintf(stderr,
                     "%s: %zu requests in %.3f s wall; per request wall min "
                     "%.4f, median %.4f, max %.4f s; CPU min %.4f, median "
                     "%.4f, max %.4f s; set-up median %.3f s wall, %.3f s "
                     "CPU over %zu; failed_ratio %zu/%zu\n",
                     a.workload.c_str(), run.requestSec.size(),
                     sum(run.requestSec), percentile(run.requestSec, 0),
                     median(run.requestSec), percentile(run.requestSec, 100),
                     percentile(cpu, 0), p50, percentile(cpu, 100),
                     median(run.setupSec), median(run.setupCpuSec),
                     run.setupSec.size(), run.failed, run.attempted);
    }
    bool finite = true;
    for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
    printResult(finite && run.failed == 0 && run.attempted > 0, run, metrics);
    return 0;
}
