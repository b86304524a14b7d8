// Dependency-counted task scheduler: randomized-DAG stress (every task runs
// exactly once, after all its fanins, at any thread count), thread-pool
// batching, and the design-level guarantee every run builds on it: the
// flat sweep (an edgeless graph) and the propagated and windowed wavefronts
// at threads 4 and 8 are bit-identical to the serial FIFO-Kahn run at
// threads 1.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "charlib/char_cache.hpp"
#include "core/design_index.hpp"
#include "core/sna.hpp"
#include "parser/windows_parser.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/task_scheduler.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sna;

// ----------------------------------------------------------- scheduler unit

util::TaskGraph randomDag(util::Rng& rng, int n, double edgeChance) {
    util::TaskGraph g;
    g.fanout.resize(n);
    g.faninCount.assign(n, 0);
    for (int from = 0; from < n; ++from) {
        for (int to = from + 1; to < n; ++to) {
            if (rng.chance(edgeChance)) {
                g.fanout[from].push_back(to);
                ++g.faninCount[to];
            }
        }
    }
    return g;
}

TEST(TaskScheduler, RandomDagStressRunsEachTaskOnceAfterItsFanins) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        util::Rng rng(seed);
        const int n = 120;
        const util::TaskGraph graph = randomDag(rng, n, 0.04);
        // Fanin lists for the postcondition check (the graph stores counts).
        std::vector<std::vector<int>> fanin(n);
        for (int from = 0; from < n; ++from) {
            for (const int to : graph.fanout[from]) fanin[to].push_back(from);
        }
        // Random task durations so completion order varies across workers.
        std::vector<int> napUs(n);
        for (int i = 0; i < n; ++i) napUs[i] = rng.uniformInt(0, 120);

        for (const int threads : {1, 4, 8}) {
            std::vector<std::atomic<int>> runs(n);
            std::vector<std::atomic<bool>> done(n);
            for (int i = 0; i < n; ++i) {
                runs[i].store(0);
                done[i].store(false);
            }
            std::atomic<int> faninViolations{0};
            const auto task = [&](int i) {
                for (const int f : fanin[i]) {
                    if (!done[f].load()) faninViolations.fetch_add(1);
                }
                runs[i].fetch_add(1);
                std::this_thread::sleep_for(
                    std::chrono::microseconds(napUs[i]));
                done[i].store(true);
            };
            util::SchedulerStats stats;
            if (threads <= 1) {
                stats = util::runTaskGraph(graph, task, nullptr);
                ASSERT_EQ(stats.busyFraction.size(), 1u);
            } else {
                util::ThreadPool pool(threads);
                stats = util::runTaskGraph(graph, task, &pool);
                ASSERT_EQ(stats.busyFraction.size(),
                          static_cast<std::size_t>(threads));
            }
            EXPECT_EQ(faninViolations.load(), 0)
                << "seed=" << seed << " threads=" << threads;
            for (int i = 0; i < n; ++i) {
                EXPECT_EQ(runs[i].load(), 1)
                    << "task " << i << " seed=" << seed
                    << " threads=" << threads;
            }
            EXPECT_EQ(stats.tasksExecuted, static_cast<std::size_t>(n));
            EXPECT_GE(stats.maxReadyDepth, 1u);
        }
    }
}

TEST(TaskScheduler, SerialOrderIsDeterministicKahn) {
    util::Rng rng(7);
    const util::TaskGraph graph = randomDag(rng, 60, 0.08);
    std::vector<int> order1, order2;
    util::runTaskGraph(graph, [&](int i) { order1.push_back(i); });
    util::runTaskGraph(graph, [&](int i) { order2.push_back(i); });
    EXPECT_EQ(order1, order2);
    ASSERT_EQ(order1.size(), 60u);
    // Topological: every task appears after all its fanins.
    std::vector<int> pos(60);
    for (int k = 0; k < 60; ++k) pos[order1[k]] = k;
    for (int from = 0; from < 60; ++from) {
        for (const int to : graph.fanout[from]) {
            EXPECT_LT(pos[from], pos[to]);
        }
    }
}

TEST(TaskScheduler, CycleIsRejectedUpFront) {
    util::TaskGraph graph;
    graph.fanout = {{1}, {2}, {0}};
    graph.faninCount = {1, 1, 1};
    EXPECT_THROW(util::runTaskGraph(graph, [](int) {}), LogicError);
    util::ThreadPool pool(2);
    EXPECT_THROW(util::runTaskGraph(graph, [](int) {}, &pool), LogicError);
}

TEST(TaskScheduler, FirstExceptionPropagatesAndRunDrains) {
    util::TaskGraph graph;
    const int n = 40;
    graph.fanout.resize(n);
    graph.faninCount.assign(n, 0);
    for (int i = 1; i < n; ++i) {
        graph.fanout[i - 1] = {i};  // a chain: the throw has dependents
        graph.faninCount[i] = 1;
    }
    for (const int threads : {1, 4}) {
        util::ThreadPool pool(threads);
        std::atomic<int> ran{0};
        const auto task = [&](int i) {
            if (i == 5) throw ModelError("boom");
            ran.fetch_add(1);
        };
        EXPECT_THROW(
            util::runTaskGraph(graph, task, threads > 1 ? &pool : nullptr),
            ModelError);
        // Tasks before the throw ran; tasks after it were skipped but their
        // dependency counts still drained (no hang to get here).
        EXPECT_GE(ran.load(), 5);
        // The pool survives the error and remains usable.
        util::TaskGraph edgeless;
        edgeless.fanout.resize(16);
        edgeless.faninCount.assign(16, 0);
        std::atomic<int> count{0};
        util::runTaskGraph(
            edgeless, [&](int) { count.fetch_add(1); },
            threads > 1 ? &pool : nullptr);
        EXPECT_EQ(count.load(), 16);
    }
}

// ------------------------------------------------------- thread pool reuse

TEST(ThreadPool, RunBatchExecutesEveryJob) {
    util::ThreadPool pool(4);
    std::atomic<int> count{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 100; ++i) {
        jobs.push_back([&count] { count.fetch_add(1); });
    }
    pool.runBatch(std::move(jobs));
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

// ------------------------------------------- design-level bit-identity

void addInst(core::Design& d, const std::string& name,
             const std::string& cell,
             std::map<std::string, std::string> pins) {
    core::Instance in;
    in.name = name;
    in.cellName = cell;
    in.pinToNet = std::move(pins);
    d.addInstance(std::move(in));
}

// Chained coupled design (same shape as the bench's chained variant): two
// parallel chains whose stage nets couple ring-wise, every 4th net quiet so
// the pass-through path runs too.
std::string chainedSpef(int nets) {
    const auto quiet = [](int i) { return i % 4 == 3; };
    std::ostringstream os;
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"sched\"\n";
    os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    for (int i = 0; i < nets; ++i) {
        const int j = (i + 1) % nets;
        const double cc = (8.0 + (i % 11)) * 2.2;
        const bool couple = !quiet(i) && !quiet(j);
        os << "*D_NET n" << i << " " << (6.5 + (couple ? cc : 0.0)) << "\n";
        os << "*CONN\n*I g" << i << ":y O\n*CAP\n";
        os << "1 g" << i << ":y 2.0\n2 n" << i << ":1 3.0\n";
        if (couple) {
            os << "3 n" << i << ":1 n" << j << ":1 " << cc << "\n";
        }
        os << "*RES\n1 g" << i << ":y n" << i << ":1 40\n*END\n\n";
    }
    return os.str();
}

void buildChained(core::Design& d, int nets, int chains) {
    const int depth = (nets + chains - 1) / chains;
    for (int i = 0; i < nets; ++i) {
        const std::string n = std::to_string(i);
        const int pos = i % depth;
        const std::string prev = pos == 0 ? "pi" + std::to_string(i / depth)
                                          : "n" + std::to_string(i - 1);
        addInst(d, "g" + n, "INV_X1", {{"a", prev}, {"y", "n" + n}});
        if (pos == depth - 1 || i == nets - 1) {
            addInst(d, "snk" + n, "INV_X2",
                    {{"a", "n" + n}, {"y", "po" + n}});
        }
    }
}

void expectSameReports(const std::vector<core::NetNoiseReport>& a,
                       const std::vector<core::NetNoiseReport>& b,
                       const std::string& label) {
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].net, b[i].net) << label << " i=" << i;
        EXPECT_EQ(a[i].aggressorNets, b[i].aggressorNets) << label;
        // Bit-identical, not merely close.
        EXPECT_EQ(a[i].cluster.margin, b[i].cluster.margin)
            << label << " net=" << a[i].net;
        EXPECT_EQ(a[i].cluster.nrcLimit, b[i].cluster.nrcLimit) << label;
        EXPECT_EQ(a[i].cluster.fails, b[i].cluster.fails) << label;
        EXPECT_EQ(a[i].cluster.worst.metrics.peak,
                  b[i].cluster.worst.metrics.peak)
            << label << " net=" << a[i].net;
        EXPECT_EQ(a[i].cluster.worst.metrics.width,
                  b[i].cluster.worst.metrics.width)
            << label;
        EXPECT_EQ(a[i].propagated.present, b[i].propagated.present) << label;
        EXPECT_EQ(a[i].propagated.fromNet, b[i].propagated.fromNet) << label;
        EXPECT_EQ(a[i].propagated.height, b[i].propagated.height) << label;
        EXPECT_EQ(a[i].propagated.localMargin, b[i].propagated.localMargin)
            << label;
        EXPECT_EQ(a[i].windows.constrained, b[i].windows.constrained)
            << label;
        EXPECT_EQ(a[i].windows.unconstrainedMargin,
                  b[i].windows.unconstrainedMargin)
            << label << " net=" << a[i].net;
        EXPECT_EQ(a[i].windows.windowedMargin, b[i].windows.windowedMargin)
            << label << " net=" << a[i].net;
        EXPECT_EQ(a[i].windows.excludedAggressors,
                  b[i].windows.excludedAggressors)
            << label;
        EXPECT_EQ(a[i].windows.droppedIncoming, b[i].windows.droppedIncoming)
            << label;
    }
}

TEST(WavefrontScheduling, TaskGraphBitIdenticalToSerial) {
    const cell::CellLibrary lib(tech::tech130());
    const int nets = 12;
    const auto spef = parser::parseSpef(chainedSpef(nets));
    core::Design design(lib);
    buildChained(design, nets, 2);

    // Windows: blocks of two in disjoint slots, same as the bench.
    std::ostringstream ws;
    ws << "*T_UNIT 1 PS\n";
    for (int i = 0; i < nets; ++i) {
        ws << "n" << i << ((i / 2) % 2 == 0 ? " 0 300" : " 1500 1800")
           << "\n";
    }
    const core::TimingWindows windows = parser::parseTimingWindows(ws.str());

    core::DesignNoiseOptions opt;
    opt.maxAggressors = 2;
    opt.report.searchAlignment = false;
    opt.report.macromodel.loadCurveGrid = 9;
    charlib::CharCache cache;  // shared: identical keys, results unaffected
    opt.cache = &cache;

    // Flat sweep: the edgeless graph, one task per victim, bit-identical
    // to the serial schedule at 4/8 threads and on a repeat at threads 1.
    opt.propagate = false;
    opt.threads = 1;
    const auto flat = core::analyzeDesign(design, spef, opt);
    for (const int threads : {1, 4, 8}) {
        opt.threads = threads;
        util::SchedulerStats stats;
        opt.schedulerStats = &stats;
        const std::string label = "flat t" + std::to_string(threads);
        expectSameReports(core::analyzeDesign(design, spef, opt), flat, label);
        opt.schedulerStats = nullptr;
        EXPECT_EQ(stats.tasksExecuted, flat.size()) << label;
    }

    // Propagated and windowed wavefronts: the parallel schedules at 4 and 8
    // workers == the serial FIFO-Kahn schedule at threads 1.
    opt.propagate = true;
    for (const core::TimingWindows* w :
         {static_cast<const core::TimingWindows*>(nullptr), &windows}) {
        opt.windows = w;
        const std::string variant = w == nullptr ? "prop" : "windowed";
        opt.threads = 1;
        const auto serial = core::analyzeDesign(design, spef, opt);
        for (const int threads : {4, 8}) {
            opt.threads = threads;
            util::SchedulerStats stats;
            opt.schedulerStats = &stats;
            const auto sched = core::analyzeDesign(design, spef, opt);
            opt.schedulerStats = nullptr;
            const std::string label =
                variant + " t" + std::to_string(threads);
            expectSameReports(sched, serial, label + " sched-vs-serial");
            // Every net of the level graph ran as a task.
            EXPECT_EQ(
                stats.tasksExecuted,
                core::DesignIndex(design, spef).taskGraph().nets.size())
                << label;
        }
    }
}

TEST(WavefrontScheduling, TaskGraphExposesScheduledAdjacency) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    // in -> x -> y -> z chain plus a cycle w <-> v hanging off y: the
    // broken edge must be absent from the scheduled adjacency.
    addInst(design, "g1", "INV_X1", {{"a", "in"}, {"y", "x"}});
    addInst(design, "g2", "INV_X1", {{"a", "x"}, {"y", "y"}});
    addInst(design, "g3", "INV_X1", {{"a", "y"}, {"y", "z"}});
    addInst(design, "g4", "NAND2_X1",
            {{"a", "y"}, {"b", "v"}, {"y", "w"}});
    addInst(design, "g5", "INV_X1", {{"a", "w"}, {"y", "v"}});
    const auto spef = parser::parseSpef(
        "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"adj\"\n"
        "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n");
    const core::DesignIndex index(design, spef);
    const core::NetTaskGraph& tg = index.taskGraph();
    const core::NetLevels& lv = index.levels();

    ASSERT_EQ(tg.nets.size(), lv.levelOf.size());
    ASSERT_EQ(lv.brokenEdges.size(), 1u);
    // Ids are (level, name)-ordered: strictly increasing level along ids.
    for (std::size_t id = 1; id < tg.nets.size(); ++id) {
        EXPECT_GE(lv.levelOf.at(tg.nets[id]), lv.levelOf.at(tg.nets[id - 1]));
    }
    int edges = 0;
    for (std::size_t id = 0; id < tg.nets.size(); ++id) {
        EXPECT_EQ(tg.graph.faninCount[id],
                  static_cast<int>(tg.faninIds[id].size()));
        // Scheduled fanins come from strictly lower levels.
        for (const int f : tg.faninIds[id]) {
            EXPECT_LT(lv.levelOf.at(tg.nets[f]), lv.levelOf.at(tg.nets[id]));
        }
        edges += static_cast<int>(tg.faninIds[id].size());
        // fanout/fanin agree.
        for (const int to : tg.graph.fanout[id]) {
            const auto& fi = tg.faninIds[to];
            EXPECT_TRUE(std::find(fi.begin(), fi.end(),
                                  static_cast<int>(id)) != fi.end());
        }
    }
    // The broken edge (into the cycle's smallest member) is not scheduled:
    // total scheduled edges = unique design edges minus the broken one.
    // Edges: in->x, x->y, y->z, y->w, v->w, w->v with w->v broken.
    EXPECT_EQ(edges, 5);
}

}  // namespace
