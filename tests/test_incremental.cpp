// Tests for the persistent characterization cache and the incremental
// ECO-loop fast path: snacache save/load round trip (warm start replaces
// every characterization run), version-mismatch / truncated-file /
// wrong-technology fall-through to clean recomputation, concurrent load()
// into a cache that workers are characterizing, overflow accounting under
// tiny limits, dirty-cone expansion, bit-identity of
// analyzeDesignIncremental with a cold full run at several thread counts
// for the flat, propagated, and windowed pipelines, the cutoff key and the
// previous solves an undone ECO restores, the splice fingerprint's field
// list, and the rebuild path's counters and lint order.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "charlib/char_cache.hpp"
#include "core/design_index.hpp"
#include "core/incremental.hpp"
#include "core/propagate.hpp"
#include "core/sna.hpp"
#include "lint/lint.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/task_scheduler.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sna;

void addInst(core::Design& d, const std::string& name,
             const std::string& cell,
             std::map<std::string, std::string> pins) {
    core::Instance i;
    i.name = name;
    i.cellName = cell;
    i.pinToNet = std::move(pins);
    d.addInstance(std::move(i));
}

// 4-net coupled ring: every net is a victim, two drive strengths, no
// propagation needed — the cheap fixture for the cache tests.
std::string ringSpef(int nets) {
    std::ostringstream os;
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"ring\"\n";
    os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    for (int i = 0; i < nets; ++i) {
        const int j = (i + 1) % nets;
        const double cc = 6.0 + 2.0 * i;
        os << "*D_NET n" << i << " " << (6.5 + cc) << "\n";
        os << "*CONN\n*I d" << i << ":y O\n*I r" << i << ":a I\n";
        os << "*CAP\n";
        os << "1 d" << i << ":y 2.0\n";
        os << "2 n" << i << ":1 3.0\n";
        os << "3 r" << i << ":a 1.5\n";
        os << "4 n" << i << ":1 n" << j << ":1 " << cc << "\n";
        os << "*RES\n";
        os << "1 d" << i << ":y n" << i << ":1 40\n";
        os << "2 n" << i << ":1 r" << i << ":a 40\n";
        os << "*END\n\n";
    }
    return os.str();
}

void buildRingDesign(core::Design& design, int nets) {
    for (int i = 0; i < nets; ++i) {
        const std::string n = std::to_string(i);
        addInst(design, "d" + n, (i % 2 == 0) ? "INV_X1" : "INV_X2",
                {{"a", "pi" + n}, {"y", "n" + n}});
        addInst(design, "r" + n, (i % 2 == 0) ? "INV_X2" : "INV_X1",
                {{"a", "n" + n}, {"y", "po" + n}});
    }
}

// Chain of stage nets s0..s{n-1} through INV_X1 drivers; stage i gets
// `aggsAt[i]` dedicated aggressor nets coupled at ccAt[i] fF each. Same
// fixture as test_propagate — the incremental tests mutate stage 0 and
// check the cone.
std::string chainSpef(const std::vector<int>& aggsAt,
                      const std::vector<double>& ccAt) {
    const int n = static_cast<int>(aggsAt.size());
    std::ostringstream os;
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"chain\"\n";
    os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    for (int i = 0; i < n; ++i) {
        os << "*D_NET s" << i << " " << (6.5 + aggsAt[i] * ccAt[i]) << "\n";
        os << "*CONN\n*I c" << i << ":y O\n*I c" << (i + 1) << ":a I\n";
        os << "*CAP\n1 c" << i << ":y 2.0\n2 s" << i << ":1 3.0\n";
        os << "3 c" << (i + 1) << ":a 1.5\n";
        for (int a = 0; a < aggsAt[i]; ++a) {
            os << (4 + a) << " s" << i << ":1 g" << i << "_" << a << ":1 "
               << ccAt[i] << "\n";
        }
        os << "*RES\n1 c" << i << ":y s" << i << ":1 60\n";
        os << "2 s" << i << ":1 c" << (i + 1) << ":a 60\n*END\n\n";
        for (int a = 0; a < aggsAt[i]; ++a) {
            os << "*D_NET g" << i << "_" << a << " 6.0\n";
            os << "*CONN\n*I a" << i << "_" << a << ":y O\n*I r" << i << "_"
               << a << ":a I\n";
            os << "*CAP\n1 a" << i << "_" << a << ":y 2.0\n2 g" << i << "_"
               << a << ":1 2.0\n";
            os << "*RES\n1 a" << i << "_" << a << ":y g" << i << "_" << a
               << ":1 40\n2 g" << i << "_" << a << ":1 r" << i << "_" << a
               << ":a 40\n*END\n\n";
        }
    }
    return os.str();
}

// `skip` names one instance to leave out (an undriven aggressor net).
void buildChain(core::Design& d, const std::vector<int>& aggsAt,
                const std::string& skip = "") {
    const int n = static_cast<int>(aggsAt.size());
    for (int i = 0; i < n; ++i) {
        const std::string si = "s" + std::to_string(i);
        const std::string prev = i == 0 ? "pin" : "s" + std::to_string(i - 1);
        addInst(d, "c" + std::to_string(i), "INV_X1",
                {{"a", prev}, {"y", si}});
        for (int a = 0; a < aggsAt[i]; ++a) {
            const std::string g =
                "g" + std::to_string(i) + "_" + std::to_string(a);
            const std::string drv =
                "a" + std::to_string(i) + "_" + std::to_string(a);
            if (drv == skip) continue;
            addInst(d, drv, "INV_X4", {{"a", g + "_in"}, {"y", g}});
        }
    }
    addInst(d, "c" + std::to_string(n), "INV_X2",
            {{"a", "s" + std::to_string(n - 1)}, {"y", "chain_out"}});
}

core::DesignNoiseOptions cheapOptions() {
    core::DesignNoiseOptions opt;
    opt.maxAggressors = 2;
    opt.report.searchAlignment = false;
    opt.report.macromodel.loadCurveGrid = 9;
    return opt;
}

void expectSameReports(const std::vector<core::NetNoiseReport>& a,
                       const std::vector<core::NetNoiseReport>& b,
                       const std::string& label) {
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].net, b[i].net) << label;
        EXPECT_EQ(a[i].aggressorNets, b[i].aggressorNets)
            << label << " " << a[i].net;
        // Bit-identical, not merely close.
        EXPECT_EQ(a[i].cluster.margin, b[i].cluster.margin)
            << label << " " << a[i].net;
        EXPECT_EQ(a[i].cluster.nrcLimit, b[i].cluster.nrcLimit)
            << label << " " << a[i].net;
        EXPECT_EQ(a[i].cluster.worst.metrics.peak,
                  b[i].cluster.worst.metrics.peak)
            << label << " " << a[i].net;
        EXPECT_EQ(a[i].cluster.worst.metrics.width,
                  b[i].cluster.worst.metrics.width)
            << label << " " << a[i].net;
        EXPECT_EQ(a[i].cluster.fails, b[i].cluster.fails)
            << label << " " << a[i].net;
        EXPECT_EQ(a[i].propagated.present, b[i].propagated.present)
            << label << " " << a[i].net;
        EXPECT_EQ(a[i].propagated.fromNet, b[i].propagated.fromNet)
            << label << " " << a[i].net;
        EXPECT_EQ(a[i].propagated.height, b[i].propagated.height)
            << label << " " << a[i].net;
        EXPECT_EQ(a[i].propagated.localMargin, b[i].propagated.localMargin)
            << label << " " << a[i].net;
        EXPECT_EQ(a[i].windows.constrained, b[i].windows.constrained)
            << label << " " << a[i].net;
        EXPECT_EQ(a[i].windows.windowedMargin, b[i].windows.windowedMargin)
            << label << " " << a[i].net;
        EXPECT_EQ(a[i].windows.unconstrainedMargin,
                  b[i].windows.unconstrainedMargin)
            << label << " " << a[i].net;
        EXPECT_EQ(a[i].windows.excludedAggressors,
                  b[i].windows.excludedAggressors)
            << label << " " << a[i].net;
    }
}

// The slots an incremental run retains — surviving fronts and quiet
// reports by task id — must be exactly what a fresh full run captures,
// including where early cutoff kept them from the run before.
void expectRetainedSlotsCurrent(const core::AnalysisSnapshot& kept,
                                const core::AnalysisSnapshot& fresh,
                                const std::string& label) {
    ASSERT_EQ(kept.surviving.size(), fresh.surviving.size()) << label;
    ASSERT_EQ(kept.quietEntry.size(), fresh.quietEntry.size()) << label;
    ASSERT_EQ(kept.reports->size(), fresh.reports->size()) << label;
    std::vector<core::NetNoiseReport> keptQuiet, freshQuiet;
    for (std::size_t id = 0; id < fresh.surviving.size(); ++id) {
        const auto& a = kept.surviving[id];
        const auto& b = fresh.surviving[id];
        ASSERT_EQ(a.size(), b.size()) << label << " task " << id;
        for (std::size_t g = 0; g < a.size(); ++g) {
            EXPECT_EQ(a[g].height, b[g].height) << label << " task " << id;
            EXPECT_EQ(a[g].width, b[g].width) << label << " task " << id;
        }
        const int keptEntry = kept.quietEntry[id];
        const int freshEntry = fresh.quietEntry[id];
        ASSERT_EQ(keptEntry, freshEntry) << label << " task " << id;
        if (freshEntry >= 0) {
            keptQuiet.push_back(
                (*kept.reports)[static_cast<std::size_t>(keptEntry)]);
            freshQuiet.push_back(
                (*fresh.reports)[static_cast<std::size_t>(freshEntry)]);
        }
    }
    expectSameReports(keptQuiet, freshQuiet, label + " quiet");
}

// The retained victim list against a cold run's: the same selections in
// the same slots.
void expectSameVictims(const core::AnalysisSnapshot& kept,
                       const core::AnalysisSnapshot& fresh,
                       const std::string& label) {
    ASSERT_EQ(kept.victims.size(), fresh.victims.size()) << label;
    for (std::size_t i = 0; i < fresh.victims.size(); ++i) {
        const core::VictimSelection& a = kept.victims[i];
        const core::VictimSelection& b = fresh.victims[i];
        EXPECT_EQ(a.net, b.net) << label << " slot " << i;
        EXPECT_EQ(a.driver, b.driver) << label << " " << b.net;
        EXPECT_EQ(a.firstLoad, b.firstLoad) << label << " " << b.net;
        EXPECT_EQ(a.ranked, b.ranked) << label << " " << b.net;
        EXPECT_EQ(kept.slotOf.at(b.net), static_cast<int>(i))
            << label << " " << b.net;
    }
    EXPECT_EQ(kept.slotOf.size(), fresh.slotOf.size()) << label;
}

std::string tmpPath(const std::string& name) {
    return testing::TempDir() + name;
}

// ------------------------------------------------------- cache persistence

TEST(CachePersist, SaveLoadRoundTripWarmStartReplacesAllRuns) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(4));
    core::Design design(lib);
    buildRingDesign(design, 4);
    auto opt = cheapOptions();

    charlib::CharCache cold;
    opt.cache = &cold;
    const auto reports = core::analyzeDesign(design, spef, opt);
    ASSERT_EQ(reports.size(), 4u);
    const auto coldStats = cold.stats();
    EXPECT_GT(coldStats.totalRuns(), 0u);
    EXPECT_EQ(coldStats.totalDiskHits(), 0u);

    const std::string path = tmpPath("sna_roundtrip.snacache");
    const auto saved = cold.save(path);
    ASSERT_TRUE(saved.ok) << saved.error;
    EXPECT_EQ(saved.entries, coldStats.totalRuns());
    EXPECT_EQ(saved.skipped, 0u);

    charlib::CharCache warm;
    const auto loaded = warm.load(path);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, saved.entries);

    opt.cache = &warm;
    const auto again = core::analyzeDesign(design, spef, opt);
    const auto warmStats = warm.stats();
    // Every characterization the cold run performed is served from disk.
    EXPECT_EQ(warmStats.totalRuns(), 0u);
    EXPECT_GT(warmStats.totalDiskHits(), 0u);
    expectSameReports(again, reports, "warm");
    std::remove(path.c_str());
}

TEST(CachePersist, VersionMismatchLoadsNothingAndRecomputes) {
    const std::string path = tmpPath("sna_version.snacache");
    {
        std::ofstream os(path);
        os << "snacache v9\n"
           << "entry loadcurve 4 k\nabcd\n"
           << "end 1\n";
    }
    charlib::CharCache cache;
    const auto loaded = cache.load(path);
    EXPECT_FALSE(loaded.ok);
    EXPECT_EQ(loaded.entries, 0u);
    EXPECT_FALSE(loaded.error.empty());

    // The cache is still a perfectly good empty cache.
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(4));
    core::Design design(lib);
    buildRingDesign(design, 4);
    auto opt = cheapOptions();
    opt.cache = &cache;
    const auto reports = core::analyzeDesign(design, spef, opt);
    EXPECT_GT(cache.stats().totalRuns(), 0u);
    EXPECT_EQ(cache.stats().totalDiskHits(), 0u);

    charlib::CharCache fresh;
    opt.cache = &fresh;
    expectSameReports(core::analyzeDesign(design, spef, opt), reports,
                      "after bad load");
    std::remove(path.c_str());
}

TEST(CachePersist, TruncatedFileKeepsValidPrefixAndRecomputesRest) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(4));
    core::Design design(lib);
    buildRingDesign(design, 4);
    auto opt = cheapOptions();

    charlib::CharCache cold;
    opt.cache = &cold;
    const auto reports = core::analyzeDesign(design, spef, opt);
    const std::string path = tmpPath("sna_truncated.snacache");
    ASSERT_TRUE(cold.save(path).ok);

    // Chop the file mid-way: the valid prefix must load, the tail must be
    // skipped, and the analysis must recompute the difference exactly.
    std::string full;
    {
        std::ifstream is(path);
        std::ostringstream os;
        os << is.rdbuf();
        full = os.str();
    }
    {
        std::ofstream os(path, std::ios::trunc);
        os << full.substr(0, full.size() / 2);
    }
    charlib::CharCache warm;
    const auto loaded = warm.load(path);
    EXPECT_FALSE(loaded.ok);  // no trailer: reported as incomplete
    EXPECT_LT(loaded.entries, cold.stats().totalRuns());

    opt.cache = &warm;
    const auto again = core::analyzeDesign(design, spef, opt);
    const auto warmStats = warm.stats();
    EXPECT_GT(warmStats.totalRuns(), 0u);   // the chopped tail
    EXPECT_GT(warmStats.totalDiskHits(), 0u);  // the surviving prefix
    expectSameReports(again, reports, "truncated");
    std::remove(path.c_str());
}

TEST(CachePersist, WrongTechnologyKeysNeverHit) {
    const auto spef = parser::parseSpef(ringSpef(4));
    auto opt = cheapOptions();

    const std::string path = tmpPath("sna_wrongtech.snacache");
    {
        const cell::CellLibrary lib130(tech::tech130());
        core::Design design(lib130);
        buildRingDesign(design, 4);
        charlib::CharCache cache;
        opt.cache = &cache;
        core::analyzeDesign(design, spef, opt);
        ASSERT_TRUE(cache.save(path).ok);
    }

    // A perturbed supply is a different electrical identity: every key from
    // the file misses and the run re-characterizes everything.
    tech::Technology corner = tech::tech130();
    corner.vdd = 1.08;
    const cell::CellLibrary lib(corner);
    core::Design design(lib);
    buildRingDesign(design, 4);

    charlib::CharCache warm;
    ASSERT_TRUE(warm.load(path).ok);
    opt.cache = &warm;
    core::analyzeDesign(design, spef, opt);
    const auto stats = warm.stats();
    EXPECT_EQ(stats.totalDiskHits(), 0u);
    EXPECT_GT(stats.totalRuns(), 0u);
    std::remove(path.c_str());
}

TEST(CachePersist, ConcurrentLoadIntoWarmCacheKeepsResultsIdentical) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(4));
    core::Design design(lib);
    buildRingDesign(design, 4);
    auto opt = cheapOptions();

    charlib::CharCache reference;
    opt.cache = &reference;
    const auto expected = core::analyzeDesign(design, spef, opt);
    const std::string path = tmpPath("sna_concurrent.snacache");
    ASSERT_TRUE(reference.save(path).ok);

    // load() races against four workers characterizing into the same cache;
    // present keys are skipped, so single-flight survives and the margins
    // cannot change.
    charlib::CharCache shared;
    opt.cache = &shared;
    opt.threads = 4;
    std::thread loader([&] {
        for (int i = 0; i < 5; ++i) shared.load(path);
    });
    const auto reports = core::analyzeDesign(design, spef, opt);
    loader.join();
    expectSameReports(reports, expected, "concurrent load");

    // Whatever mixture of disk and computed entries won the race, the work
    // adds up: every request was a run, a memory hit, or a disk hit.
    const auto stats = shared.stats();
    EXPECT_GT(stats.totalRuns() + stats.totalDiskHits(), 0u);
    std::remove(path.c_str());
}

TEST(CachePersist, TinyLimitsCountOverflowAndStayCorrect) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(4));
    core::Design design(lib);
    buildRingDesign(design, 4);
    auto opt = cheapOptions();

    charlib::CharCache unbounded;
    opt.cache = &unbounded;
    const auto expected = core::analyzeDesign(design, spef, opt);
    ASSERT_EQ(unbounded.stats().totalOverflow(), 0u);

    charlib::CharCache tiny;
    charlib::CharCache::Limits limits;
    limits.loadCurves = 1;
    limits.thevenins = 1;
    limits.nrcs = 1;
    limits.propagations = 1;
    tiny.setLimits(limits);
    EXPECT_EQ(tiny.limits().loadCurves, 1u);
    opt.cache = &tiny;
    const auto reports = core::analyzeDesign(design, spef, opt);
    const auto stats = tiny.stats();
    // Two drive strengths at two levels need more than one entry per table:
    // the bound forces compute-without-store, counted as overflow…
    EXPECT_GT(stats.totalOverflow(), 0u);
    // …and a bounded cache can only lose speed, never accuracy.
    expectSameReports(reports, expected, "tiny limits");

    // A save() of the bounded cache only carries what was stored.
    const std::string path = tmpPath("sna_tiny.snacache");
    const auto saved = tiny.save(path);
    ASSERT_TRUE(saved.ok) << saved.error;
    EXPECT_LE(saved.entries, 4u);
    std::remove(path.c_str());
}

// ------------------------------------------------------------- dirty cone

TEST(DirtyCone, SeedsNeighborsAndDownstreamClosure) {
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{1, 1, 0};
    const auto spef = parser::parseSpef(chainSpef(aggs, {20.0, 10.0, 0.0}));
    core::Design design(lib);
    buildChain(design, aggs);
    core::DesignIndex index(design, spef);

    // The must-solve set: the seed and the clusters that read it as an
    // aggressor, nothing downstream.
    std::size_t neighbors = 0;
    const auto cone = core::expandDirtyCone(index, {"s0"}, &neighbors);
    EXPECT_TRUE(cone.count("s0"));
    EXPECT_TRUE(cone.count("g0_0"));  // coupled neighbor
    EXPECT_FALSE(cone.count("s1"));   // downstream only
    EXPECT_FALSE(cone.count("g1_0"));
    EXPECT_EQ(neighbors, 1u);

    // A seed the index has never heard of marks nothing extra.
    const auto unknown = core::expandDirtyCone(index, {"no_such"});
    EXPECT_EQ(unknown.size(), 1u);

    // Wavefront: the run schedules everything downstream of the must-solve
    // set too — s1, s2 and chain_out — but coupling dirtiness does not
    // spread from the downstream adds (g1_0 stays clean), and nothing
    // upstream (pin) is touched.
    const auto spefEco =
        parser::parseSpef(chainSpef(aggs, {14.0, 10.0, 0.0}));
    auto opt = cheapOptions();
    opt.propagate = true;
    charlib::CharCache cache;
    opt.cache = &cache;
    core::AnalysisSnapshot snapshot;
    opt.snapshot = &snapshot;
    core::analyzeDesign(design, spef, opt);
    ASSERT_TRUE(snapshot.valid);
    opt.snapshot = nullptr;
    core::DesignDelta delta;
    delta.nets = {"s0"};
    core::IncrementalStats stats;
    const auto fast = core::analyzeDesignIncremental(design, spefEco, delta,
                                                     snapshot, opt, &stats);
    EXPECT_FALSE(stats.indexRebuilt);
    EXPECT_EQ(stats.dirtyTasks, 5u);  // s0, g0_0 + s1, s2, chain_out
    EXPECT_EQ(stats.scheduler.tasksExecuted + stats.callerTasks,
              stats.dirtyTasks);
    expectSameReports(fast, core::analyzeDesign(design, spefEco, opt),
                      "cone");
}

// ----------------------------------------------------------- replaceCell

TEST(ReplaceCell, SwapsPinCompatibleCellsAndRejectsOthers) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    addInst(design, "u1", "INV_X1", {{"a", "in"}, {"y", "out"}});
    addInst(design, "u2", "NAND2_X1",
            {{"a", "in"}, {"b", "in2"}, {"y", "out2"}});

    design.replaceCell("u1", "INV_X2");
    EXPECT_EQ(design.instances()[0].cellName, "INV_X2");
    design.replaceCell("u1", "INV_X2");  // same cell: no-op
    EXPECT_EQ(design.instances()[0].cellName, "INV_X2");

    // Different pin list — the connectivity would dangle.
    EXPECT_THROW(design.replaceCell("u1", "NAND2_X1"), ModelError);
    EXPECT_THROW(design.replaceCell("u2", "INV_X1"), ModelError);
    EXPECT_THROW(design.replaceCell("nope", "INV_X1"), ModelError);
    EXPECT_THROW(design.replaceCell("u1", "NOT_A_CELL"), ModelError);
}

// ------------------------------------------------- incremental re-analysis

// Cold-run + mutate + incremental vs cold-run-on-mutated, at several thread
// counts, for one option set. `lastStats` (optional) receives the
// incremental stats of the last thread count.
void checkIncrementalBitIdentity(const core::DesignNoiseOptions& baseOpt,
                                 bool couplingDelta,
                                 core::IncrementalStats* lastStats = nullptr) {
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{2, 1, 1, 0};
    const auto spef = parser::parseSpef(chainSpef(aggs, {30.0, 10.0, 8.0, 0.0}));
    const auto spefEco =
        parser::parseSpef(chainSpef(aggs, {18.0, 10.0, 8.0, 0.0}));
    core::IncrementalStats last;

    for (const int threads : {1, 4, 8}) {
        core::Design design(lib);
        buildChain(design, aggs);
        auto opt = baseOpt;
        opt.threads = threads;
        charlib::CharCache cache;
        opt.cache = &cache;

        core::AnalysisSnapshot snapshot;
        opt.snapshot = &snapshot;
        core::analyzeDesign(design, spef, opt);
        ASSERT_TRUE(snapshot.valid) << "threads=" << threads;
        opt.snapshot = nullptr;

        // The ECO: resize the chain-tail driver (s2's receiver and s3's
        // driver — victims s0 and s1 stay clean), and optionally
        // re-extract s0.
        design.replaceCell("c3", "INV_X2");
        core::DesignDelta delta;
        delta.instances.push_back("c3");
        const parser::SpefFile* ecoSpef = &spef;
        if (couplingDelta) {
            delta.nets.push_back("s0");
            ecoSpef = &spefEco;
        }

        core::IncrementalStats stats;
        const auto fast = core::analyzeDesignIncremental(
            design, *ecoSpef, delta, snapshot, opt, &stats);
        const auto full = core::analyzeDesign(design, *ecoSpef, opt);
        expectSameReports(fast, full,
                          "threads=" + std::to_string(threads));

        EXPECT_FALSE(stats.indexRebuilt) << "threads=" << threads;
        EXPECT_GT(stats.dirtyTasks, 0u);
        EXPECT_LT(stats.dirtyTasks, stats.totalTasks)
            << "threads=" << threads;
        if (!couplingDelta) {
            // Stage 0 is upstream of the resized driver: spliced, not
            // re-solved.
            EXPECT_GT(stats.reusedVictimReports, 0u);
        }
        last = stats;
    }
    if (lastStats != nullptr) *lastStats = last;
}

TEST(Incremental, FlatSweepBitIdenticalAcrossThreads) {
    auto opt = cheapOptions();
    opt.propagate = false;
    core::IncrementalStats stats;
    checkIncrementalBitIdentity(opt, false, &stats);
    // Flat mode has no downstream closure: the cone is the pins of the
    // replaced instance plus coupled neighbors.
    EXPECT_LE(stats.dirtyTasks, 5u);
}

TEST(Incremental, WavefrontBitIdenticalAcrossThreads) {
    auto opt = cheapOptions();
    opt.propagate = true;
    core::IncrementalStats stats;
    checkIncrementalBitIdentity(opt, false, &stats);
    EXPECT_GT(stats.scheduler.tasksExecuted, 0u);
    EXPECT_EQ(stats.scheduler.tasksExecuted + stats.callerTasks,
              stats.dirtyTasks);
}

TEST(Incremental, WavefrontWithCouplingDeltaBitIdentical) {
    auto opt = cheapOptions();
    opt.propagate = true;
    checkIncrementalBitIdentity(opt, true);
}

TEST(Incremental, WindowedWavefrontBitIdentical) {
    core::TimingWindows windows;
    windows.set("g0_0_in", {0.0, 150e-12});
    windows.set("g1_0_in", {50e-12, 400e-12});
    windows.set("pin", {0.0, 100e-12});
    auto opt = cheapOptions();
    opt.propagate = true;
    opt.windows = &windows;
    checkIncrementalBitIdentity(opt, false);
}

TEST(Incremental, ConnectivityChangeFallsBackToFullRunAndRecaptures) {
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{2, 1};
    const auto spef = parser::parseSpef(chainSpef(aggs, {30.0, 10.0}));
    core::Design design(lib);
    buildChain(design, aggs);
    auto opt = cheapOptions();
    opt.propagate = true;
    charlib::CharCache cache;
    opt.cache = &cache;

    core::AnalysisSnapshot snapshot;
    opt.snapshot = &snapshot;
    core::analyzeDesign(design, spef, opt);
    ASSERT_TRUE(snapshot.valid);
    opt.snapshot = nullptr;

    // A new receiver on s1 is a structural change: the caller flags it and
    // the engine rebuilds instead of splicing.
    addInst(design, "spy", "INV_X1", {{"a", "s1"}, {"y", "spy_out"}});
    core::DesignDelta delta;
    delta.connectivityChanged = true;
    core::IncrementalStats stats;
    const auto fast = core::analyzeDesignIncremental(design, spef, delta,
                                                     snapshot, opt, &stats);
    EXPECT_TRUE(stats.indexRebuilt);
    EXPECT_TRUE(snapshot.valid);
    const auto full = core::analyzeDesign(design, spef, opt);
    expectSameReports(fast, full, "connectivity");

    // Even without the flag, the instance-count check refuses the splice —
    // the snapshot was captured before the spy existed.
    addInst(design, "spy2", "INV_X1", {{"a", "s0"}, {"y", "spy2_out"}});
    core::IncrementalStats stats2;
    const auto fast2 = core::analyzeDesignIncremental(
        design, spef, {}, snapshot, opt, &stats2);
    EXPECT_TRUE(stats2.indexRebuilt);
    expectSameReports(fast2, core::analyzeDesign(design, spef, opt),
                      "stale count");
}

TEST(Incremental, OptionChangeInvalidatesTheSplice) {
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{1, 1};
    const auto spef = parser::parseSpef(chainSpef(aggs, {20.0, 10.0}));
    core::Design design(lib);
    buildChain(design, aggs);
    auto opt = cheapOptions();
    opt.propagate = true;

    core::AnalysisSnapshot snapshot;
    opt.snapshot = &snapshot;
    core::analyzeDesign(design, spef, opt);
    opt.snapshot = nullptr;

    // Same design, different analysis knob: clean nets would carry verdicts
    // of the old option set, so the engine must run full.
    opt.maxAggressors = 1;
    core::IncrementalStats stats;
    const auto fast = core::analyzeDesignIncremental(design, spef, {},
                                                     snapshot, opt, &stats);
    EXPECT_TRUE(stats.indexRebuilt);
    expectSameReports(fast, core::analyzeDesign(design, spef, opt),
                      "option change");

    // The refreshed snapshot carries the new fingerprint: a following
    // incremental call with the same options splices again.
    core::IncrementalStats stats2;
    design.replaceCell("c0", "INV_X2");
    core::DesignDelta delta;
    delta.instances.push_back("c0");
    core::analyzeDesignIncremental(design, spef, delta, snapshot, opt,
                                   &stats2);
    EXPECT_FALSE(stats2.indexRebuilt);
}

// A call that cannot splice runs the update with every task dirty, so its
// counters read like any other update's: every graph task is scheduled and
// executed, a quarantined run included.
TEST(Incremental, RebuildFallbackCountsLikeAnUpdate) {
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{2, 1};
    const auto spef = parser::parseSpef(chainSpef(aggs, {30.0, 10.0}));
    core::Design design(lib);
    buildChain(design, aggs);
    auto opt = cheapOptions();
    opt.propagate = true;
    charlib::CharCache cache;
    opt.cache = &cache;
    core::AnalysisSnapshot snapshot;
    opt.snapshot = &snapshot;
    core::analyzeDesign(design, spef, opt);
    ASSERT_TRUE(snapshot.valid);
    opt.snapshot = nullptr;
    const std::size_t graphTasks = snapshot.index->taskGraph().nets.size();
    ASSERT_EQ(graphTasks, 10u);
    const std::size_t victims = snapshot.victims.size();

    core::DesignDelta delta;
    delta.connectivityChanged = true;
    core::IncrementalStats stats;
    (void)core::analyzeDesignIncremental(design, spef, delta, snapshot, opt,
                                         &stats);
    EXPECT_TRUE(stats.indexRebuilt);
    EXPECT_EQ(stats.totalTasks, graphTasks);
    EXPECT_EQ(stats.dirtyTasks, graphTasks);
    // A rebuild has no retained key: every task goes through the scheduler.
    EXPECT_EQ(stats.callerTasks, 0u);
    EXPECT_EQ(stats.scheduler.tasksExecuted + stats.callerTasks,
              stats.dirtyTasks);
    EXPECT_EQ(stats.scheduler.workers, 1);
    EXPECT_EQ(stats.solvedVictimReports, victims);
    EXPECT_EQ(stats.reusedVictimReports, 0u);
    EXPECT_EQ(stats.cutoffTasks, 0u);

    struct Disarm {
        ~Disarm() { util::FaultInjector::instance().disarm(); }
    } disarm;
    util::FaultInjector::instance().arm("core.solve_net@s0");
    opt.onNetFailure = core::NetFailurePolicy::quarantineCone;
    core::IncrementalStats quarantined;
    const auto outcome = core::analyzeDesignIncrementalOutcome(
        design, spef, delta, snapshot, opt, &quarantined);
    util::FaultInjector::instance().disarm();
    EXPECT_EQ(outcome.failedNets, std::vector<std::string>{"s0"});
    EXPECT_FALSE(outcome.quarantinedNets.empty());
    EXPECT_FALSE(snapshot.valid);
    EXPECT_TRUE(quarantined.indexRebuilt);
    EXPECT_EQ(quarantined.totalTasks, graphTasks);
    EXPECT_EQ(quarantined.dirtyTasks, graphTasks);
    EXPECT_EQ(quarantined.scheduler.tasksExecuted, graphTasks);
}

// The splice fingerprint's contract: every option that can change a value
// refuses the splice, and every execution-only option still splices and
// returns the same bits. A new option belongs in one of the two tables.
TEST(Incremental, FingerprintCoversEveryValueAffectingOption) {
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{1, 1};
    const auto spef = parser::parseSpef(chainSpef(aggs, {20.0, 10.0}));
    core::Design design(lib);
    buildChain(design, aggs);
    auto base = cheapOptions();
    base.propagate = true;
    charlib::CharCache cache;
    base.cache = &cache;
    const auto reference = core::analyzeDesign(design, spef, base);

    using Flip = std::pair<const char*, void (*)(core::DesignNoiseOptions&)>;
    static const core::TimingWindows windows;
    const std::vector<Flip> valueAffecting = {
        {"tstop", [](core::DesignNoiseOptions& o) { o.tstop *= 1.5; }},
        {"maxAggressors",
         [](core::DesignNoiseOptions& o) { o.maxAggressors = 1; }},
        {"propagate", [](core::DesignNoiseOptions& o) { o.propagate = false; }},
        {"propagateMinHeight",
         [](core::DesignNoiseOptions& o) { o.propagateMinHeight *= 2.0; }},
        {"windows", [](core::DesignNoiseOptions& o) { o.windows = &windows; }},
        {"searchAlignment",
         [](core::DesignNoiseOptions& o) { o.report.searchAlignment = true; }},
        {"usePrima",
         [](core::DesignNoiseOptions& o) {
             o.report.macromodel.usePrima = true;
         }},
        {"primaBlocks",
         [](core::DesignNoiseOptions& o) {
             o.report.macromodel.primaBlocks += 1;
         }},
        {"loadCurveGrid",
         [](core::DesignNoiseOptions& o) {
             o.report.macromodel.loadCurveGrid += 2;
         }},
        {"alignment.window",
         [](core::DesignNoiseOptions& o) { o.report.alignment.window *= 2.0; }},
        {"alignment.coarsePoints",
         [](core::DesignNoiseOptions& o) {
             o.report.alignment.coarsePoints += 2;
         }},
        {"alignment.rounds",
         [](core::DesignNoiseOptions& o) { o.report.alignment.rounds += 1; }},
        {"nrc.widthMin",
         [](core::DesignNoiseOptions& o) { o.report.nrc.widthMin *= 1.5; }},
        {"nrc.widthLimit",
         [](core::DesignNoiseOptions& o) { o.report.nrc.widthLimit *= 0.9; }},
        {"nrc.growth",
         [](core::DesignNoiseOptions& o) { o.report.nrc.growth = 2.0; }},
        {"nrc.interp",
         [](core::DesignNoiseOptions& o) {
             o.report.nrc.interp = core::NrcOptions::Interp::kExact;
         }},
    };
    for (const auto& [name, flip] : valueAffecting) {
        core::AnalysisSnapshot snapshot;
        auto opt = base;
        opt.snapshot = &snapshot;
        core::analyzeDesign(design, spef, opt);
        ASSERT_TRUE(snapshot.valid) << name;
        opt.snapshot = nullptr;
        flip(opt);
        core::IncrementalStats stats;
        (void)core::analyzeDesignIncremental(design, spef, {}, snapshot, opt,
                                             &stats);
        EXPECT_TRUE(stats.indexRebuilt) << name;
    }

    core::AnalysisSnapshot snapshot;
    base.snapshot = &snapshot;
    core::analyzeDesign(design, spef, base);
    ASSERT_TRUE(snapshot.valid);
    base.snapshot = nullptr;
    static charlib::CharCache otherCache;
    static util::SchedulerStats schedulerStats;
    static const std::vector<parser::Waiver> waivers;
    static lint::LintReport lintOut;
    static const util::CancelToken cancel;
    const std::vector<Flip> executionOnly = {
        {"threads", [](core::DesignNoiseOptions& o) { o.threads = 4; }},
        {"cache", [](core::DesignNoiseOptions& o) { o.cache = &otherCache; }},
        {"schedulerStats",
         [](core::DesignNoiseOptions& o) {
             o.schedulerStats = &schedulerStats;
         }},
        {"lint",
         [](core::DesignNoiseOptions& o) { o.lint = lint::Mode::warn; }},
        {"lintWaivers",
         [](core::DesignNoiseOptions& o) { o.lintWaivers = &waivers; }},
        {"lintOut", [](core::DesignNoiseOptions& o) { o.lintOut = &lintOut; }},
        {"cancel", [](core::DesignNoiseOptions& o) { o.cancel = &cancel; }},
        {"deadline", [](core::DesignNoiseOptions& o) { o.deadline = 3600.0; }},
        {"onNetFailure",
         [](core::DesignNoiseOptions& o) {
             o.onNetFailure = core::NetFailurePolicy::quarantineCone;
         }},
    };
    // A re-extraction with unchanged values: the cone re-solves under the
    // flipped option and must land on the same bits.
    core::DesignDelta delta;
    delta.nets = {"s0"};
    for (const auto& [name, flip] : executionOnly) {
        auto opt = base;
        flip(opt);
        core::IncrementalStats stats;
        const auto fast = core::analyzeDesignIncremental(
            design, spef, delta, snapshot, opt, &stats);
        EXPECT_FALSE(stats.indexRebuilt) << name;
        EXPECT_GT(stats.dirtyTasks, 0u) << name;
        expectSameReports(fast, reference, name);
        ASSERT_TRUE(snapshot.valid) << name;
    }
}

// On the rebuild path lintOut carries the delta's findings first, then the
// design's, then the post-run resilience findings; the snapshot keeps the
// design's alone.
TEST(Incremental, RebuildLintOutOrdersDeltaDesignThenResilience) {
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{2, 1};
    const auto spef = parser::parseSpef(chainSpef(aggs, {30.0, 10.0}));
    core::Design design(lib);
    buildChain(design, aggs);
    auto opt = cheapOptions();
    opt.propagate = true;
    opt.lint = lint::Mode::warn;
    lint::LintReport designOnly;
    opt.lintOut = &designOnly;
    (void)core::analyzeDesign(design, spef, opt);
    ASSERT_FALSE(designOnly.diagnostics.empty());

    struct Disarm {
        ~Disarm() { util::FaultInjector::instance().disarm(); }
    } disarm;
    util::FaultInjector::instance().arm("core.solve_net@s0");
    opt.onNetFailure = core::NetFailurePolicy::quarantineCone;
    lint::LintReport out;
    opt.lintOut = &out;
    core::DesignDelta delta;
    delta.nets = {"typo_net"};
    delta.connectivityChanged = true;
    core::AnalysisSnapshot snapshot;
    core::IncrementalStats stats;
    const auto outcome = core::analyzeDesignIncrementalOutcome(
        design, spef, delta, snapshot, opt, &stats);
    util::FaultInjector::instance().disarm();
    EXPECT_TRUE(stats.indexRebuilt);
    ASSERT_FALSE(outcome.failedNets.empty());

    const auto rulesOf = [](const std::vector<lint::Diagnostic>& ds) {
        std::vector<std::string> rules;
        for (const auto& d : ds) rules.push_back(d.rule + " " + d.object);
        return rules;
    };
    std::vector<std::string> expected{"SNA-L501 typo_net"};
    for (const auto& r : rulesOf(designOnly.diagnostics)) {
        expected.push_back(r);
    }
    for (const auto& net : outcome.failedNets) {
        expected.push_back("SNA-L701 " + net);
    }
    for (const auto& net : outcome.quarantinedNets) {
        expected.push_back("SNA-L702 " + net);
    }
    EXPECT_EQ(rulesOf(out.diagnostics), expected);
    EXPECT_EQ(rulesOf(snapshot.lint), rulesOf(designOnly.diagnostics));
}

TEST(Incremental, EmptyDeltaOnNetCoupledOnlyToUndrivenNetsSolvesNothing) {
    // Stage 1's only aggressor has no driver, so s1 heads no victim
    // cluster — yet it has coupling, a driver and a load. An empty delta
    // seeds nothing, and the section guard finds the SPEF's sections
    // unchanged, so no call re-solves s1 and its cone.
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{2, 1, 1, 0};
    const auto spef =
        parser::parseSpef(chainSpef(aggs, {30.0, 10.0, 8.0, 0.0}));
    for (const bool propagate : {false, true}) {
        const std::string label = propagate ? "wavefront" : "flat";
        core::Design design(lib);
        buildChain(design, aggs, "a1_0");
        auto opt = cheapOptions();
        opt.propagate = propagate;
        charlib::CharCache cache;
        opt.cache = &cache;

        core::AnalysisSnapshot snapshot;
        opt.snapshot = &snapshot;
        const auto full = core::analyzeDesign(design, spef, opt);
        ASSERT_TRUE(snapshot.valid) << label;
        opt.snapshot = nullptr;

        core::IncrementalStats stats;
        const auto fast = core::analyzeDesignIncremental(
            design, spef, {}, snapshot, opt, &stats);
        EXPECT_FALSE(stats.indexRebuilt) << label;
        EXPECT_EQ(stats.seedNets, 0u) << label;
        EXPECT_EQ(stats.dirtyTasks, 0u) << label;
        EXPECT_EQ(stats.solvedVictimReports, 0u) << label;
        expectSameReports(fast, full, label);
    }
}

// ------------------------------------------------------------ early cutoff

// Six chain stages, only the first three coupled: the noise the ECO changes
// dies out two stages past the last coupled one (its surviving glitch falls
// under propagateMinHeight), so the rest of the downstream closure sees its
// retained inputs again and must be cut off, not re-solved.
const std::vector<int> kFadingAggs{2, 1, 1, 0, 0, 0};

TEST(IncrementalCutoff, ConvergingConeIsCutOffBitIdentically) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(
        chainSpef(kFadingAggs, {30.0, 10.0, 8.0, 0.0, 0.0, 0.0}));
    const auto spefEco = parser::parseSpef(
        chainSpef(kFadingAggs, {30.0, 6.0, 8.0, 0.0, 0.0, 0.0}));
    for (const int threads : {1, 4, 8}) {
        const std::string tag = "threads=" + std::to_string(threads);
        core::Design design(lib);
        buildChain(design, kFadingAggs);
        auto opt = cheapOptions();
        opt.propagate = true;
        opt.threads = threads;
        charlib::CharCache cache;
        opt.cache = &cache;
        core::AnalysisSnapshot snapshot;
        opt.snapshot = &snapshot;
        core::analyzeDesign(design, spef, opt);
        ASSERT_TRUE(snapshot.valid) << tag;
        opt.snapshot = nullptr;

        // Re-extract stage 1 and resize stage 2's driver: both change the
        // surviving glitch of every coupled stage downstream of them.
        design.replaceCell("c2", "INV_X2");
        core::DesignDelta delta;
        delta.nets = {"s1"};
        delta.instances = {"c2"};
        core::IncrementalStats stats;
        const auto fast = core::analyzeDesignIncremental(
            design, spefEco, delta, snapshot, opt, &stats);
        EXPECT_FALSE(stats.indexRebuilt) << tag;

        core::AnalysisSnapshot fresh;
        opt.snapshot = &fresh;
        const auto full = core::analyzeDesign(design, spefEco, opt);
        opt.snapshot = nullptr;
        expectSameReports(fast, full, tag);
        expectRetainedSlotsCurrent(snapshot, fresh, tag);

        // s5 and chain_out follow the stage whose front came out empty, as
        // it was: both keep their retained slots.
        EXPECT_GE(stats.cutoffTasks, 2u) << tag;
        EXPECT_LT(stats.cutoffTasks, stats.dirtyTasks) << tag;
        EXPECT_EQ(stats.scheduler.tasksExecuted + stats.callerTasks,
                  stats.dirtyTasks)
            << tag;
        EXPECT_EQ(stats.solvedVictimReports + stats.reusedVictimReports,
                  snapshot.victims.size())
            << tag;
        // The victims s1 and s2 re-solve, s0 keeps its report.
        EXPECT_EQ(stats.solvedVictimReports, 2u) << tag;
    }
}

TEST(IncrementalCutoff, MovedFaninWindowReSolvesFanoutWithUnchangedFront) {
    // pin's window moves s0's propagated window away from s1's explicit
    // (fixed) one. s0's own verdict and surviving front cannot change — its
    // aggressor overlaps stay non-empty and nothing reaches its driver — but
    // s1 now drops s0's glitch as disjoint, so s1 must re-solve although
    // its fanin published its retained front bit for bit.
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{3, 3};
    const auto spef = parser::parseSpef(chainSpef(aggs, {35.0, 12.0}));
    core::TimingWindows before;
    before.set("pin", {0.0, 100e-12});
    before.set("s1", {0.0, 300e-12});
    core::TimingWindows after;
    after.set("pin", {1.5e-9, 1.6e-9});
    after.set("s1", {0.0, 300e-12});
    for (const int threads : {1, 4}) {
        const std::string tag = "threads=" + std::to_string(threads);
        core::Design design(lib);
        buildChain(design, aggs);
        auto opt = cheapOptions();
        opt.maxAggressors = 3;
        opt.propagate = true;
        opt.threads = threads;
        charlib::CharCache cache;
        opt.cache = &cache;
        opt.windows = &before;
        core::AnalysisSnapshot snapshot;
        opt.snapshot = &snapshot;
        const auto old = core::analyzeDesign(design, spef, opt);
        ASSERT_TRUE(snapshot.valid) << tag;
        ASSERT_EQ(old.size(), 2u) << tag;
        ASSERT_TRUE(old[1].propagated.present) << tag;
        const core::NetTaskGraph& tg = snapshot.index->taskGraph();
        const auto s0 = static_cast<std::size_t>(tg.idOf.at("s0"));
        const core::SurvivingSet s0Front = snapshot.surviving[s0];
        ASSERT_FALSE(s0Front.empty()) << tag;
        opt.snapshot = nullptr;

        opt.windows = &after;
        core::IncrementalStats stats;
        const auto fast = core::analyzeDesignIncremental(design, spef, {},
                                                         snapshot, opt, &stats);
        EXPECT_FALSE(stats.indexRebuilt) << tag;
        const auto full = core::analyzeDesign(design, spef, opt);
        expectSameReports(fast, full, tag);
        ASSERT_EQ(full.size(), 2u) << tag;
        // The premise: s0's front held, s1's verdict moved.
        ASSERT_EQ(snapshot.surviving[s0].size(), s0Front.size()) << tag;
        for (std::size_t g = 0; g < s0Front.size(); ++g) {
            EXPECT_EQ(snapshot.surviving[s0][g].height, s0Front[g].height);
            EXPECT_EQ(snapshot.surviving[s0][g].width, s0Front[g].width);
        }
        EXPECT_EQ(full[1].windows.droppedIncoming,
                  (std::vector<std::string>{"s0"}))
            << tag;
        EXPECT_NE(full[1].cluster.margin, old[1].cluster.margin) << tag;
    }
}

TEST(IncrementalCutoff, FailedFaninStillQuarantinesOrDegradesItsCone) {
    // A must-solve stage fails under an injected fault: its closure must
    // not keep its retained slots (a failed or degraded fanin never lets a
    // task reuse), so every downstream stage is stubbed or degraded exactly
    // as in a full run under the same fault.
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(
        chainSpef(kFadingAggs, {30.0, 10.0, 8.0, 0.0, 0.0, 0.0}));
    const auto spefEco = parser::parseSpef(
        chainSpef(kFadingAggs, {30.0, 6.0, 8.0, 0.0, 0.0, 0.0}));
    struct Disarm {
        ~Disarm() { util::FaultInjector::instance().disarm(); }
    } disarm;
    for (const auto policy : {core::NetFailurePolicy::quarantineCone,
                              core::NetFailurePolicy::degradeToPassthrough}) {
        for (const int threads : {1, 4}) {
            const std::string tag =
                std::string(policy == core::NetFailurePolicy::quarantineCone
                                ? "quarantine"
                                : "passthrough") +
                " threads=" + std::to_string(threads);
            core::Design design(lib);
            buildChain(design, kFadingAggs);
            auto opt = cheapOptions();
            opt.propagate = true;
            opt.threads = threads;
            charlib::CharCache cache;
            opt.cache = &cache;
            core::AnalysisSnapshot snapshot;
            opt.snapshot = &snapshot;
            core::analyzeDesign(design, spef, opt);
            ASSERT_TRUE(snapshot.valid) << tag;
            opt.snapshot = nullptr;
            opt.onNetFailure = policy;

            core::DesignDelta delta;
            delta.nets = {"s1"};
            util::FaultInjector::instance().arm("core.solve_net@s1");
            core::IncrementalStats stats;
            const auto fast = core::analyzeDesignIncrementalOutcome(
                design, spefEco, delta, snapshot, opt, &stats);
            const auto full =
                core::analyzeDesignOutcome(design, spefEco, opt);
            util::FaultInjector::instance().disarm();

            EXPECT_FALSE(stats.indexRebuilt) << tag;
            // Only g1_0 keeps its retained slots: s1's coupling neighbour,
            // unloaded, so it has nothing to solve and its key holds.
            // Nothing in the failed cone is reused.
            EXPECT_EQ(stats.cutoffTasks, 1u) << tag;
            EXPECT_FALSE(snapshot.valid) << tag;
            EXPECT_EQ(fast.failedNets, std::vector<std::string>{"s1"}) << tag;
            EXPECT_EQ(fast.failedNets, full.failedNets) << tag;
            EXPECT_EQ(fast.quarantinedNets, full.quarantinedNets) << tag;
            EXPECT_EQ(fast.degradedNets, full.degradedNets) << tag;
            if (policy == core::NetFailurePolicy::quarantineCone) {
                EXPECT_EQ(fast.quarantinedNets.size(), 5u) << tag;
            } else {
                EXPECT_EQ(fast.degradedNets.size(), 5u) << tag;
            }
            expectSameReports(fast.reports, full.reports, tag);
            ASSERT_EQ(fast.reports.size(), full.reports.size()) << tag;
            for (std::size_t i = 0; i < full.reports.size(); ++i) {
                EXPECT_EQ(fast.reports[i].status, full.reports[i].status)
                    << tag << " " << full.reports[i].net;
            }
        }
    }
}

// -------------------------------------------------------- restored solves

// One state of the fading chain: the cell bound to c2 and the coupling of
// s1. A step between two states changes the keys of s1 (its first load,
// its RC or both) and s2 (its driver, when c2 changes); nothing else
// reads either edit.
struct ChainState {
    const char* c2;
    double s1cc;
};
const ChainState kStateA{"INV_X1", 10.0};
const ChainState kStateB{"INV_X2", 6.0};
const ChainState kStateC{"INV_X4", 14.0};
const ChainState kStateD{"INV_X1", 14.0};
const ChainState kStateE{"INV_X2", 14.0};

// A snapshot of the fading chain captured at kStateA, stepped between
// ChainStates by analyzeDesignIncremental.
struct RevertChain {
    core::Design design;
    parser::SpefFile spef;
    charlib::CharCache cache;
    core::DesignNoiseOptions opt;
    core::AnalysisSnapshot snapshot;
    std::vector<core::NetNoiseReport> coldA;  ///< the capture run's reports

    RevertChain(const cell::CellLibrary& lib, int threads)
        : design(lib), spef(spefOf(kStateA)), opt(cheapOptions()) {
        buildChain(design, kFadingAggs);
        opt.propagate = true;
        opt.threads = threads;
        opt.cache = &cache;
        opt.snapshot = &snapshot;
        coldA = core::analyzeDesign(design, spef, opt);
        opt.snapshot = nullptr;
    }

    static parser::SpefFile spefOf(const ChainState& s) {
        return parser::parseSpef(
            chainSpef(kFadingAggs, {30.0, s.s1cc, 8.0, 0.0, 0.0, 0.0}));
    }

    core::AnalysisOutcome step(const ChainState& s,
                               core::IncrementalStats& stats) {
        design.replaceCell("c2", s.c2);
        spef = spefOf(s);
        core::DesignDelta delta;
        delta.nets = {"s1"};
        delta.instances = {"c2"};
        return core::analyzeDesignIncrementalOutcome(design, spef, delta,
                                                     snapshot, opt, &stats);
    }

    // The reports and the retained slots against a cold run of the
    // current state.
    void expectCold(const std::vector<core::NetNoiseReport>& reports,
                    const std::string& tag) {
        core::AnalysisSnapshot fresh;
        core::DesignNoiseOptions o = opt;
        o.snapshot = &fresh;
        expectSameReports(reports, core::analyzeDesign(design, spef, o), tag);
        expectRetainedSlotsCurrent(snapshot, fresh, tag);
    }
};

// A->B->A: the revert swaps back the solves B replaced. Nothing solves, the
// reports and slots are A's bit for bit, and each restored report still
// holds the samples the capture run returned. Re-applying B restores too.
TEST(IncrementalRestore, RevertRestoresThePreviousSolves) {
    const cell::CellLibrary lib(tech::tech130());
    for (const int threads : {1, 4, 8}) {
        const std::string tag = "threads=" + std::to_string(threads);
        RevertChain rc(lib, threads);
        core::IncrementalStats stats;
        const auto b = rc.step(kStateB, stats);
        ASSERT_TRUE(b.clean()) << tag;
        EXPECT_EQ(stats.solvedVictimReports, 2u) << tag;
        EXPECT_EQ(stats.restoredTasks, 0u) << tag;

        const auto a = rc.step(kStateA, stats);
        ASSERT_TRUE(a.clean()) << tag;
        EXPECT_FALSE(stats.indexRebuilt) << tag;
        EXPECT_EQ(stats.solvedVictimReports, 0u) << tag;
        EXPECT_EQ(stats.reusedVictimReports, rc.snapshot.victims.size())
            << tag;
        EXPECT_GE(stats.restoredTasks, 2u) << tag;  // s1 and s2 at least
        // Every dirty task keeps or restores on the calling thread: the
        // scheduler runs nothing.
        EXPECT_EQ(stats.callerTasks, stats.dirtyTasks) << tag;
        EXPECT_EQ(stats.scheduler.tasksExecuted, 0u) << tag;
        expectSameReports(a.reports, rc.coldA, tag + " vs capture");
        rc.expectCold(a.reports, tag + " revert");
        ASSERT_EQ(a.reports.size(), rc.coldA.size()) << tag;
        for (std::size_t i = 0; i < a.reports.size(); ++i) {
            EXPECT_EQ(a.reports[i].cluster.worst.waveform.samples().data(),
                      rc.coldA[i].cluster.worst.waveform.samples().data())
                << tag << " " << a.reports[i].net;
        }

        const auto again = rc.step(kStateB, stats);
        EXPECT_EQ(stats.solvedVictimReports, 0u) << tag;
        EXPECT_GE(stats.restoredTasks, 2u) << tag;
        expectSameReports(again.reports, b.reports, tag + " re-apply");
        rc.expectCold(again.reports, tag + " re-apply");
    }
}

// A->B->C->D, then back to A, B and C: each state is among the retained
// solve and the kPrevious solves it replaced, so each comes back without a
// solve and lands on a cold run's bits.
TEST(IncrementalRestore, EveryStateInTheHistoryRestores) {
    static_assert(core::AnalysisSnapshot::TaskMemo::kPrevious == 3,
                  "the walk visits kPrevious + 1 states");
    const cell::CellLibrary lib(tech::tech130());
    for (const int threads : {1, 4, 8}) {
        const std::string tag = "threads=" + std::to_string(threads);
        RevertChain rc(lib, threads);
        core::IncrementalStats stats;
        const auto b = rc.step(kStateB, stats);
        const auto c = rc.step(kStateC, stats);
        rc.step(kStateD, stats);
        EXPECT_GE(stats.solvedVictimReports, 1u) << tag;
        const std::vector<std::pair<const ChainState*,
                                    const std::vector<core::NetNoiseReport>*>>
            back = {{&kStateA, &rc.coldA}, {&kStateB, &b.reports.vector()},
                    {&kStateC, &c.reports.vector()}};
        for (const auto& [state, first] : back) {
            const auto again = rc.step(*state, stats);
            ASSERT_TRUE(again.clean()) << tag;
            EXPECT_FALSE(stats.indexRebuilt) << tag;
            EXPECT_EQ(stats.solvedVictimReports, 0u) << tag;
            EXPECT_GE(stats.restoredTasks, 1u) << tag;
            EXPECT_EQ(stats.scheduler.tasksExecuted, 0u) << tag;
            expectSameReports(again.reports, *first, tag + " vs first");
            rc.expectCold(again.reports, tag);
        }
    }
}

// A->B->C->D->E->A: s1 saw five states, so A is older than its kPrevious
// replaced solves and solves again; D, still among them, then restores.
TEST(IncrementalRestore, StateOlderThanTheHistorySolves) {
    const cell::CellLibrary lib(tech::tech130());
    for (const int threads : {1, 4, 8}) {
        const std::string tag = "threads=" + std::to_string(threads);
        RevertChain rc(lib, threads);
        core::IncrementalStats stats;
        rc.step(kStateB, stats);
        rc.step(kStateC, stats);
        const auto d = rc.step(kStateD, stats);
        rc.step(kStateE, stats);
        const auto a = rc.step(kStateA, stats);
        ASSERT_TRUE(a.clean()) << tag;
        EXPECT_FALSE(stats.indexRebuilt) << tag;
        EXPECT_GE(stats.solvedVictimReports, 1u) << tag;
        expectSameReports(a.reports, rc.coldA, tag + " vs capture");
        rc.expectCold(a.reports, tag);

        const auto again = rc.step(kStateD, stats);
        EXPECT_EQ(stats.solvedVictimReports, 0u) << tag;
        EXPECT_GE(stats.restoredTasks, 1u) << tag;
        expectSameReports(again.reports, d.reports, tag + " vs D");
        rc.expectCold(again.reports, tag + " D");
    }
}

// Every event that drops the retained keys drops the previous solves with
// them: after it, reverting B solves again and still lands on a cold run's
// bits.
TEST(IncrementalRestore, DroppedKeysLeaveNothingToRestore) {
    const cell::CellLibrary lib(tech::tech130());
    struct Disarm {
        ~Disarm() { util::FaultInjector::instance().disarm(); }
    } disarm;
    // Each event runs at state B on a snapshot that holds A as the
    // previous solve of s1 and s2.
    struct Event {
        const char* name;
        std::function<void(RevertChain&)> apply;
    };
    const std::vector<Event> events = {
        {"connectivity change",
         [](RevertChain& rc) {
             core::DesignDelta delta;
             delta.connectivityChanged = true;
             core::IncrementalStats st;
             core::analyzeDesignIncremental(rc.design, rc.spef, delta,
                                            rc.snapshot, rc.opt, &st);
             EXPECT_TRUE(st.indexRebuilt);
         }},
        {"option change",
         [](RevertChain& rc) {
             rc.opt.propagateMinHeight *= 1.5;
             core::IncrementalStats st;
             core::analyzeDesignIncremental(rc.design, rc.spef, {},
                                            rc.snapshot, rc.opt, &st);
             EXPECT_TRUE(st.indexRebuilt);
         }},
        // The revert itself, under an injected fault on s1: the quarantined
        // run poisons the snapshot, and re-applying B rebuilds it.
        {"quarantined run",
         [](RevertChain& rc) {
             rc.opt.onNetFailure = core::NetFailurePolicy::quarantineCone;
             util::FaultInjector::instance().arm("core.solve_net@s1");
             core::IncrementalStats st;
             const auto o = rc.step(kStateA, st);
             util::FaultInjector::instance().disarm();
             EXPECT_EQ(o.failedNets, std::vector<std::string>{"s1"});
             EXPECT_FALSE(o.quarantinedNets.empty());
             EXPECT_FALSE(rc.snapshot.valid);
             rc.step(kStateB, st);
             EXPECT_TRUE(st.indexRebuilt);
         }},
    };
    for (const Event& event : events) {
        for (const int threads : {1, 4, 8}) {
            const std::string tag = std::string(event.name) +
                                    " threads=" + std::to_string(threads);
            RevertChain rc(lib, threads);
            core::IncrementalStats stats;
            rc.step(kStateB, stats);
            event.apply(rc);
            ASSERT_TRUE(rc.snapshot.valid) << tag;
            const auto a = rc.step(kStateA, stats);
            ASSERT_TRUE(a.clean()) << tag;
            EXPECT_FALSE(stats.indexRebuilt) << tag;
            EXPECT_EQ(stats.restoredTasks, 0u) << tag;
            EXPECT_EQ(stats.solvedVictimReports, 2u) << tag;
            rc.expectCold(a.reports, tag);
        }
    }
}

// A victim reselect drops every memo: s3 gains victim status at state B,
// and the revert of c2 and s1 that follows (s3 staying coupled) solves.
TEST(IncrementalRestore, VictimReselectLeavesNothingToRestore) {
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{2, 1, 1, 1};
    const auto spefOf = [&aggs](double s1cc, double s3cc) {
        std::vector<int> a = aggs;
        if (s3cc == 0.0) a[3] = 0;
        return parser::parseSpef(chainSpef(a, {30.0, s1cc, 8.0, s3cc}));
    };
    for (const int threads : {1, 4, 8}) {
        const std::string tag = "threads=" + std::to_string(threads);
        core::Design design(lib);
        buildChain(design, aggs);  // a3_0 drives g3_0 either way
        auto opt = cheapOptions();
        opt.propagate = true;
        opt.threads = threads;
        charlib::CharCache cache;
        opt.cache = &cache;
        core::AnalysisSnapshot snapshot;
        opt.snapshot = &snapshot;
        core::analyzeDesign(design, spefOf(10.0, 0.0), opt);
        opt.snapshot = nullptr;
        const std::size_t victims = snapshot.victims.size();

        core::DesignDelta edit;
        edit.nets = {"s1"};
        edit.instances = {"c2"};
        core::IncrementalStats stats;
        design.replaceCell("c2", "INV_X2");
        core::analyzeDesignIncremental(design, spefOf(6.0, 0.0), edit,
                                       snapshot, opt, &stats);
        EXPECT_EQ(stats.solvedVictimReports, 2u) << tag;

        core::DesignDelta couple;
        couple.nets = {"s3", "g3_0"};
        const auto coupled = spefOf(6.0, 14.0);
        core::analyzeDesignIncremental(design, coupled, couple, snapshot,
                                       opt, &stats);
        EXPECT_EQ(snapshot.victims.size(), victims + 1) << tag;

        design.replaceCell("c2", "INV_X1");
        const auto reverted = spefOf(10.0, 14.0);
        const auto fast = core::analyzeDesignIncremental(
            design, reverted, edit, snapshot, opt, &stats);
        EXPECT_FALSE(stats.indexRebuilt) << tag;
        EXPECT_EQ(stats.restoredTasks, 0u) << tag;
        EXPECT_GE(stats.solvedVictimReports, 2u) << tag;
        core::AnalysisSnapshot fresh;
        opt.snapshot = &fresh;
        expectSameReports(fast, core::analyzeDesign(design, reverted, opt),
                          tag);
        expectRetainedSlotsCurrent(snapshot, fresh, tag);
    }
}

// -------------------------------------------- decided on the calling thread

// Naming s1 and c2 without changing them keeps every dirty task's slots:
// the calling thread decides every dirty task, the scheduler runs none,
// and the result is a cold run's bit for bit. (A revert, which restores
// every dirty task the same way, is IncrementalRestore's.)
TEST(IncrementalCaller, KeepEcoSchedulesNothing) {
    const cell::CellLibrary lib(tech::tech130());
    for (const int threads : {1, 4, 8}) {
        const std::string tag = "threads=" + std::to_string(threads);
        RevertChain rc(lib, threads);
        core::IncrementalStats stats;
        const auto same = rc.step(kStateA, stats);
        ASSERT_TRUE(same.clean()) << tag;
        EXPECT_FALSE(stats.indexRebuilt) << tag;
        EXPECT_GT(stats.dirtyTasks, 0u) << tag;
        EXPECT_EQ(stats.cutoffTasks, stats.dirtyTasks) << tag;
        EXPECT_EQ(stats.callerTasks, stats.dirtyTasks) << tag;
        EXPECT_EQ(stats.scheduler.tasksExecuted, 0u) << tag;
        rc.expectCold(same.reports, tag);
    }
}

// Re-extracting s1 alone: s1 must solve, so it and its downstream closure
// are scheduled, while its coupling neighbour g1_0 keeps its slots on the
// calling thread.
TEST(IncrementalCaller, MixedEcoSchedulesOnlyTheSolveAndItsDownstream) {
    const cell::CellLibrary lib(tech::tech130());
    for (const int threads : {1, 4, 8}) {
        const std::string tag = "threads=" + std::to_string(threads);
        RevertChain rc(lib, threads);
        const core::NetTaskGraph& tg = rc.snapshot.index->taskGraph();
        std::set<int> closure;
        std::vector<int> stack{tg.idOf.at("s1")};
        while (!stack.empty()) {
            const int t = stack.back();
            stack.pop_back();
            if (!closure.insert(t).second) continue;
            for (const int d : tg.graph.fanout[static_cast<std::size_t>(t)]) {
                stack.push_back(d);
            }
        }
        ASSERT_EQ(closure.size(), 6u) << tag;  // s1 .. s5, chain_out

        rc.spef = RevertChain::spefOf({kStateA.c2, kStateB.s1cc});
        core::DesignDelta delta;
        delta.nets = {"s1"};
        core::IncrementalStats stats;
        const auto out = core::analyzeDesignIncrementalOutcome(
            rc.design, rc.spef, delta, rc.snapshot, rc.opt, &stats);
        ASSERT_TRUE(out.clean()) << tag;
        EXPECT_FALSE(stats.indexRebuilt) << tag;
        EXPECT_EQ(stats.scheduler.tasksExecuted, closure.size()) << tag;
        EXPECT_EQ(stats.callerTasks, 1u) << tag;  // g1_0
        EXPECT_EQ(stats.callerTasks + closure.size(), stats.dirtyTasks)
            << tag;
        rc.expectCold(out.reports, tag);
    }
}

// A fault at `core.solve_net` fires on a task the calling thread would
// keep exactly as on a scheduled one: the task fails, and its cone is
// quarantined or degraded as in a full run under the same fault; under
// failFast the call throws. s1 carries noise; s4's front is empty, so its
// failure leaves the front its fanout reads unchanged, and only the
// failed state keeps that fanout off the calling thread.
TEST(IncrementalCaller, FaultOnAKeptTaskIsStillReported) {
    const cell::CellLibrary lib(tech::tech130());
    struct Disarm {
        ~Disarm() { util::FaultInjector::instance().disarm(); }
    } disarm;
    for (const std::string faulty : {"s1", "s4"}) {
        for (const auto policy :
             {core::NetFailurePolicy::quarantineCone,
              core::NetFailurePolicy::degradeToPassthrough,
              core::NetFailurePolicy::failFast}) {
            for (const int threads : {1, 4, 8}) {
                const std::string tag =
                    faulty + " policy " +
                    std::to_string(static_cast<int>(policy)) +
                    " threads=" + std::to_string(threads);
                RevertChain rc(lib, threads);
                rc.opt.onNetFailure = policy;
                core::IncrementalStats stats;
                util::FaultInjector::instance().arm("core.solve_net@" +
                                                    faulty);
                if (policy == core::NetFailurePolicy::failFast) {
                    EXPECT_THROW(rc.step(kStateA, stats),
                                 util::FaultInjectedError)
                        << tag;
                    EXPECT_THROW(core::analyzeDesignOutcome(
                                     rc.design, rc.spef, rc.opt),
                                 util::FaultInjectedError)
                        << tag;
                    util::FaultInjector::instance().disarm();
                    EXPECT_FALSE(rc.snapshot.valid) << tag;
                    continue;
                }
                const auto fast = rc.step(kStateA, stats);
                const auto full =
                    core::analyzeDesignOutcome(rc.design, rc.spef, rc.opt);
                util::FaultInjector::instance().disarm();

                EXPECT_FALSE(stats.indexRebuilt) << tag;
                EXPECT_FALSE(rc.snapshot.valid) << tag;
                EXPECT_EQ(fast.failedNets, std::vector<std::string>{faulty})
                    << tag;
                EXPECT_EQ(fast.failedNets, full.failedNets) << tag;
                EXPECT_EQ(fast.quarantinedNets, full.quarantinedNets) << tag;
                EXPECT_EQ(fast.degradedNets, full.degradedNets) << tag;
                EXPECT_FALSE(fast.quarantinedNets.empty() &&
                             fast.degradedNets.empty())
                    << tag;
                // The faulty task failed on the calling thread; its
                // downstream could not be decided there and was scheduled.
                EXPECT_GE(stats.callerTasks, 1u) << tag;
                EXPECT_GT(stats.scheduler.tasksExecuted, 0u) << tag;
                EXPECT_EQ(stats.callerTasks + stats.scheduler.tasksExecuted,
                          stats.dirtyTasks)
                    << tag;
                expectSameReports(fast.reports, full.reports, tag);
                ASSERT_EQ(fast.reports.size(), full.reports.size()) << tag;
                for (std::size_t i = 0; i < full.reports.size(); ++i) {
                    EXPECT_EQ(fast.reports[i].status, full.reports[i].status)
                        << tag << " " << full.reports[i].net;
                }
            }
        }
    }
}

// A call whose token is already cancelled decides nothing on the calling
// thread: every dirty task drains unsolved through the scheduler, and the
// next call rebuilds onto a cold run's bits.
TEST(IncrementalCaller, PreCancelledCallDecidesNothing) {
    const cell::CellLibrary lib(tech::tech130());
    for (const int threads : {1, 4, 8}) {
        const std::string tag = "threads=" + std::to_string(threads);
        RevertChain rc(lib, threads);
        core::IncrementalStats stats;
        ASSERT_TRUE(rc.step(kStateB, stats).clean()) << tag;
        util::CancelToken token;
        token.cancel();
        rc.opt.cancel = &token;
        const auto a = rc.step(kStateA, stats);
        rc.opt.cancel = nullptr;
        EXPECT_EQ(a.reason, core::TerminationReason::cancelled) << tag;
        EXPECT_FALSE(a.unsolvedNets.empty()) << tag;
        EXPECT_FALSE(rc.snapshot.valid) << tag;
        EXPECT_GT(stats.dirtyTasks, 0u) << tag;
        EXPECT_EQ(stats.callerTasks, 0u) << tag;
        EXPECT_EQ(stats.cutoffTasks + stats.restoredTasks, 0u) << tag;
        EXPECT_EQ(stats.scheduler.tasksExecuted, 0u) << tag;
        EXPECT_EQ(stats.scheduler.skippedTasks, stats.dirtyTasks) << tag;

        const auto next = rc.step(kStateA, stats);
        ASSERT_TRUE(next.clean()) << tag;
        EXPECT_TRUE(stats.indexRebuilt) << tag;
        rc.expectCold(next.reports, tag);
    }
}

// A re-extraction whose s1 section lost its driver conn: the clusters that
// read s1's RC cannot build their inputs. The calling thread leaves those
// tasks to the scheduler, where the failure policy applies exactly as in a
// cold run of the same SPEF; under failFast both throw.
TEST(IncrementalCaller, UnbuildableInputsFailUnderThePolicy) {
    const cell::CellLibrary lib(tech::tech130());
    std::string text =
        chainSpef(kFadingAggs, {30.0, kStateA.s1cc, 8.0, 0.0, 0.0, 0.0});
    const std::string driverConn = "*I c1:y O\n";
    const std::size_t at = text.find(driverConn);
    ASSERT_NE(at, std::string::npos);
    text.erase(at, driverConn.size());
    for (const auto policy : {core::NetFailurePolicy::quarantineCone,
                              core::NetFailurePolicy::degradeToPassthrough,
                              core::NetFailurePolicy::failFast}) {
        for (const int threads : {1, 4, 8}) {
            const std::string tag =
                "policy " + std::to_string(static_cast<int>(policy)) +
                " threads=" + std::to_string(threads);
            RevertChain rc(lib, threads);
            rc.opt.onNetFailure = policy;
            rc.spef = parser::parseSpef(text);
            core::DesignDelta delta;
            delta.nets = {"s1"};
            core::IncrementalStats stats;
            if (policy == core::NetFailurePolicy::failFast) {
                EXPECT_THROW(core::analyzeDesignIncrementalOutcome(
                                 rc.design, rc.spef, delta, rc.snapshot,
                                 rc.opt, &stats),
                             ModelError)
                    << tag;
                EXPECT_THROW(
                    core::analyzeDesignOutcome(rc.design, rc.spef, rc.opt),
                    ModelError)
                    << tag;
                EXPECT_FALSE(rc.snapshot.valid) << tag;
                continue;
            }
            const auto fast = core::analyzeDesignIncrementalOutcome(
                rc.design, rc.spef, delta, rc.snapshot, rc.opt, &stats);
            const auto cold =
                core::analyzeDesignOutcome(rc.design, rc.spef, rc.opt);
            EXPECT_FALSE(stats.indexRebuilt) << tag;
            EXPECT_FALSE(rc.snapshot.valid) << tag;
            EXPECT_NE(std::find(fast.failedNets.begin(),
                                fast.failedNets.end(), "s1"),
                      fast.failedNets.end())
                << tag;
            EXPECT_EQ(fast.failedNets, cold.failedNets) << tag;
            EXPECT_EQ(fast.quarantinedNets, cold.quarantinedNets) << tag;
            EXPECT_EQ(fast.degradedNets, cold.degradedNets) << tag;
            EXPECT_EQ(stats.callerTasks + stats.scheduler.tasksExecuted,
                      stats.dirtyTasks)
                << tag;
            expectSameReports(fast.reports, cold.reports, tag);
            ASSERT_EQ(fast.reports.size(), cold.reports.size()) << tag;
            for (std::size_t i = 0; i < cold.reports.size(); ++i) {
                EXPECT_EQ(fast.reports[i].status, cold.reports[i].status)
                    << tag << " " << cold.reports[i].net;
            }
        }
    }
}

// ------------------------------------------------------------ SPEF sections

// `text` without the SPEF section of `net`.
std::string withoutSection(std::string text, const std::string& net) {
    const std::size_t begin = text.find("*D_NET " + net + " ");
    const std::size_t end = text.find("*END\n\n", begin);
    if (begin == std::string::npos || end == std::string::npos) {
        ADD_FAILURE() << "no section " << net;
        return text;
    }
    return text.erase(begin, end + 6 - begin);
}

// Re-extractions that change victim status, each naming the sections it
// touches: s2 gains coupling (and g2_0 a section), then s1's section is
// removed, then it comes back. Every step patches (no rebuild) and equals
// a cold run bit for bit: reports, retained slots and the victim list.
TEST(IncrementalSections, NamedVictimStatusChangesMatchColdRuns) {
    const cell::CellLibrary lib(tech::tech130());
    const std::string quiet = chainSpef({1, 1, 0}, {20.0, 10.0, 0.0});
    const std::string coupled = chainSpef({1, 1, 1}, {20.0, 10.0, 14.0});
    struct Step {
        const char* what;
        std::string spef;
        std::vector<std::string> nets;
    };
    const std::vector<Step> steps{
        {"s2 becomes a victim", coupled, {"s2", "g2_0"}},
        {"s1 section removed", withoutSection(coupled, "s1"), {"s1"}},
        {"s1 section back", coupled, {"s1"}},
    };
    for (const bool propagate : {false, true}) {
        for (const int threads : {1, 4, 8}) {
            core::Design design(lib);
            buildChain(design, {1, 1, 1});  // a2_0 drives g2_0 either way
            auto opt = cheapOptions();
            opt.propagate = propagate;
            opt.threads = threads;
            charlib::CharCache cache;
            opt.cache = &cache;
            core::AnalysisSnapshot snapshot;
            opt.snapshot = &snapshot;
            core::analyzeDesign(design, parser::parseSpef(quiet), opt);
            ASSERT_TRUE(snapshot.valid);
            for (const Step& step : steps) {
                const std::string tag =
                    std::string(step.what) +
                    (propagate ? " wavefront" : " flat") +
                    " threads=" + std::to_string(threads);
                const auto spef = parser::parseSpef(step.spef);
                core::DesignDelta delta;
                delta.nets = step.nets;
                core::IncrementalStats stats;
                opt.snapshot = nullptr;
                const auto fast = core::analyzeDesignIncremental(
                    design, spef, delta, snapshot, opt, &stats);
                EXPECT_FALSE(stats.indexRebuilt) << tag;
                core::AnalysisSnapshot fresh;
                opt.snapshot = &fresh;
                expectSameReports(fast, core::analyzeDesign(design, spef, opt),
                                  tag);
                // The flat sweep's fronts are read by nothing and reset on
                // every call.
                if (propagate) expectRetainedSlotsCurrent(snapshot, fresh, tag);
                expectSameVictims(snapshot, fresh, tag);
            }
            EXPECT_EQ(snapshot.slotOf.count("s1"), 1u);
        }
    }
}

// A section added or removed without being named moves the SPEF's section
// count or its name digest: no patch can follow it, so the update rebuilds
// and lands on a cold run's bits instead of splicing s1's stale victim
// report. That holds when an unnamed addition and an unnamed removal keep
// the count.
TEST(IncrementalSections, UnnamedSectionChangeRebuilds) {
    const cell::CellLibrary lib(tech::tech130());
    const std::string coupled = chainSpef({1, 1, 1}, {20.0, 10.0, 14.0});
    for (const int threads : {1, 4, 8}) {
        const std::string tag = "threads=" + std::to_string(threads);
        core::Design design(lib);
        buildChain(design, {1, 1, 1});
        auto opt = cheapOptions();
        opt.propagate = true;
        opt.threads = threads;
        charlib::CharCache cache;
        opt.cache = &cache;
        core::AnalysisSnapshot snapshot;
        opt.snapshot = &snapshot;
        core::analyzeDesign(design, parser::parseSpef(coupled), opt);
        ASSERT_TRUE(snapshot.valid) << tag;
        ASSERT_EQ(snapshot.slotOf.count("s1"), 1u) << tag;
        opt.snapshot = nullptr;

        // s1's section is gone and the delta is empty.
        const auto removed = parser::parseSpef(withoutSection(coupled, "s1"));
        core::IncrementalStats stats;
        const auto a = core::analyzeDesignIncremental(design, removed, {},
                                                      snapshot, opt, &stats);
        EXPECT_TRUE(stats.indexRebuilt) << tag;
        EXPECT_EQ(snapshot.slotOf.count("s1"), 0u) << tag;
        expectSameReports(a, core::analyzeDesign(design, removed, opt),
                          tag + " removed");

        // It comes back, but the delta names only s2.
        const auto back = parser::parseSpef(coupled);
        core::DesignDelta delta;
        delta.nets = {"s2"};
        const auto b = core::analyzeDesignIncremental(design, back, delta,
                                                      snapshot, opt, &stats);
        EXPECT_TRUE(stats.indexRebuilt) << tag;
        EXPECT_EQ(snapshot.slotOf.count("s1"), 1u) << tag;
        expectSameReports(b, core::analyzeDesign(design, back, opt),
                          tag + " back");

        // s1's section is swapped for a new one on chain_out under an
        // empty delta: the count holds, the names do not.
        const auto swapped = parser::parseSpef(
            withoutSection(coupled, "s1") +
            "*D_NET chain_out 3.0\n*CONN\n*I c3:y O\n*CAP\n"
            "1 chain_out:1 3.0\n*RES\n1 c3:y chain_out:1 40\n*END\n\n");
        ASSERT_EQ(swapped.nets().size(), back.nets().size()) << tag;
        const auto c = core::analyzeDesignIncremental(design, swapped, {},
                                                      snapshot, opt, &stats);
        EXPECT_TRUE(stats.indexRebuilt) << tag;
        EXPECT_EQ(snapshot.slotOf.count("s1"), 0u) << tag;
        expectSameReports(c, core::analyzeDesign(design, swapped, opt),
                          tag + " swapped");
    }
}

// ------------------------------------------- explicit-window and cone edits

// One SPEF section: driver pin, load pins, and coupling caps to other nets'
// ":1" nodes (listed under this section only).
struct SpefNetSpec {
    std::string name;
    std::string driver;               ///< "inst:pin"
    std::vector<std::string> loads;   ///< "inst:pin"
    std::vector<std::pair<std::string, double>> couple;  ///< (net, fF)
};

std::string spefText(const std::vector<SpefNetSpec>& nets) {
    std::ostringstream os;
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"eco\"\n";
    os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    for (const SpefNetSpec& n : nets) {
        double total = 5.0 + 1.5 * static_cast<double>(n.loads.size());
        for (const auto& [other, cc] : n.couple) total += cc;
        os << "*D_NET " << n.name << " " << total << "\n*CONN\n";
        os << "*I " << n.driver << " O\n";
        for (const auto& l : n.loads) os << "*I " << l << " I\n";
        int k = 1;
        os << "*CAP\n" << k++ << " " << n.driver << " 2.0\n";
        os << k++ << " " << n.name << ":1 3.0\n";
        for (const auto& l : n.loads) os << k++ << " " << l << " 1.5\n";
        for (const auto& [other, cc] : n.couple) {
            os << k++ << " " << n.name << ":1 " << other << ":1 " << cc
               << "\n";
        }
        k = 1;
        os << "*RES\n" << k++ << " " << n.driver << " " << n.name
           << ":1 60\n";
        for (const auto& l : n.loads) {
            os << k++ << " " << n.name << ":1 " << l << " 60\n";
        }
        os << "*END\n\n";
    }
    return os.str();
}

// `chains` parallel inverter chains of `stages` stage nets each: chain k is
// c{k}in -> c{k}g0 -> c{k}s0 -> ... -> c{k}s{stages-1} -> c{k}g{stages} ->
// c{k}out. Stage net i of chain k couples to stage i of chain k+1 (ring)
// at cc[k * stages + i] fF, so every stage net is a victim whose aggressors
// sit on the neighbouring chains, while windows only flow along a chain.
struct MultiChain {
    int chains = 3;
    int stages = 3;

    std::string net(int k, int i) const {
        return "c" + std::to_string(k) + "s" + std::to_string(i);
    }
    std::string gate(int k, int i) const {
        return "c" + std::to_string(k) + "g" + std::to_string(i);
    }
    std::string head(int k) const { return "c" + std::to_string(k) + "in"; }

    void build(core::Design& d) const {
        for (int k = 0; k < chains; ++k) {
            for (int i = 0; i < stages; ++i) {
                addInst(d, gate(k, i), "INV_X1",
                        {{"a", i == 0 ? head(k) : net(k, i - 1)},
                         {"y", net(k, i)}});
            }
            addInst(d, gate(k, stages), "INV_X2",
                    {{"a", net(k, stages - 1)},
                     {"y", "c" + std::to_string(k) + "out"}});
        }
    }

    std::string spef(const std::vector<double>& cc) const {
        std::vector<SpefNetSpec> nets;
        for (int k = 0; k < chains; ++k) {
            for (int i = 0; i < stages; ++i) {
                SpefNetSpec n;
                n.name = net(k, i);
                n.driver = gate(k, i) + ":y";
                n.loads = {gate(k, i + 1) + ":a"};
                n.couple = {{net((k + 1) % chains, i),
                             cc[static_cast<std::size_t>(k * stages + i)]}};
                nets.push_back(std::move(n));
            }
        }
        return spefText(nets);
    }
};

core::TimingWindows windowsOf(
    const std::map<std::string, core::TimingWindow>& entries) {
    core::TimingWindows w;
    for (const auto& [net, window] : entries) w.set(net, window);
    return w;
}

// The snapshot's retained windows must be exactly what a from-scratch
// propagation over the current state yields.
void expectRetainedWindowsCurrent(const core::AnalysisSnapshot& snapshot,
                                  const core::TimingWindows& windows,
                                  const std::string& label) {
    ASSERT_NE(snapshot.index, nullptr) << label;
    charlib::CharCache cache;
    const auto fresh =
        core::propagateWindows(*snapshot.index, &cache, &windows);
    const core::NetTaskGraph& tg = snapshot.index->taskGraph();
    ASSERT_EQ(snapshot.netWindows.size(), fresh.size()) << label;
    ASSERT_EQ(snapshot.netWindows.size(), tg.nets.size()) << label;
    for (std::size_t id = 0; id < tg.nets.size(); ++id) {
        const core::TimingWindow& w = fresh.at(tg.nets[id]);
        EXPECT_TRUE(snapshot.netWindows[id].sameBits(w))
            << label << " " << tg.nets[id];
    }
}

// Capture a snapshot under `before`, then hand the incremental run an empty
// delta with a DIFFERENT windows object `after`: the explicit-window edit
// is the only change, and nothing but a window diff can find it.
void checkWindowEdit(const std::map<std::string, core::TimingWindow>& before,
                     const std::map<std::string, core::TimingWindow>& after,
                     const std::string& label) {
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{2, 1, 1, 0};
    const auto spef =
        parser::parseSpef(chainSpef(aggs, {30.0, 10.0, 8.0, 0.0}));
    for (const int threads : {1, 4}) {
        core::Design design(lib);
        buildChain(design, aggs);
        const core::TimingWindows w0 = windowsOf(before);
        const core::TimingWindows w1 = windowsOf(after);
        auto opt = cheapOptions();
        opt.propagate = true;
        opt.threads = threads;
        charlib::CharCache cache;
        opt.cache = &cache;
        opt.windows = &w0;
        core::AnalysisSnapshot snapshot;
        opt.snapshot = &snapshot;
        core::analyzeDesign(design, spef, opt);
        ASSERT_TRUE(snapshot.valid) << label;
        opt.snapshot = nullptr;

        opt.windows = &w1;
        core::IncrementalStats stats;
        const auto fast = core::analyzeDesignIncremental(
            design, spef, {}, snapshot, opt, &stats);
        const std::string tag = label + " threads=" + std::to_string(threads);
        EXPECT_FALSE(stats.indexRebuilt) << tag;
        EXPECT_GT(stats.dirtyTasks, 0u) << tag;
        expectSameReports(fast, core::analyzeDesign(design, spef, opt), tag);
        expectRetainedWindowsCurrent(snapshot, w1, tag);
    }
}

const std::map<std::string, core::TimingWindow> kChainWindows = {
    {"g0_0_in", {0.0, 150e-12}},
    {"g1_0_in", {50e-12, 400e-12}},
    {"pin", {0.0, 100e-12}},
};

TEST(IncrementalWindows, MovedChainHeadWindowBitIdentical) {
    auto after = kChainWindows;
    after["pin"] = {40e-12, 180e-12};
    checkWindowEdit(kChainWindows, after, "moved");
}

TEST(IncrementalWindows, RemovedWindowBitIdentical) {
    auto after = kChainWindows;
    after.erase("pin");
    checkWindowEdit(kChainWindows, after, "removed");
}

TEST(IncrementalWindows, AddedWindowBitIdentical) {
    auto after = kChainWindows;
    after["g2_0_in"] = {120e-12, 300e-12};
    checkWindowEdit(kChainWindows, after, "added");
}

TEST(IncrementalWindows, ResizeUpstreamOfCombinationalCycle) {
    // pin -> c0 -> s0 -> c1 -> s1 -> NAND(s1, v) -> w -> INV -> v: the
    // cycle w <-> v is broken on the edge into its smallest member (w -> v),
    // so v reads w as unbounded. Every net but pin couples to a dedicated
    // aggressor, so each is a victim. v starts with an explicit window, so
    // w's window is bounded; dropping v's window afterwards must make v
    // read w as unbounded again, not as w's retained window.
    const cell::CellLibrary lib(tech::tech130());
    const auto build = [](core::Design& d) {
        addInst(d, "c0", "INV_X1", {{"a", "pin"}, {"y", "s0"}});
        addInst(d, "c1", "INV_X1", {{"a", "s0"}, {"y", "s1"}});
        addInst(d, "cy1", "NAND2_X1", {{"a", "s1"}, {"b", "v"}, {"y", "w"}});
        addInst(d, "cy2", "INV_X1", {{"a", "w"}, {"y", "v"}});
        addInst(d, "rw", "INV_X2", {{"a", "w"}, {"y", "w_out"}});
        for (const std::string n : {"s0", "s1", "w", "v"}) {
            addInst(d, "a_" + n, "INV_X4", {{"a", "g_" + n + "_in"},
                                            {"y", "g_" + n}});
            addInst(d, "r_" + n, "INV_X1", {{"a", "g_" + n},
                                            {"y", "g_" + n + "_out"}});
        }
    };
    std::vector<SpefNetSpec> nets = {
        {"s0", "c0:y", {"c1:a"}, {{"g_s0", 20.0}}},
        {"s1", "c1:y", {"cy1:a"}, {{"g_s1", 15.0}}},
        {"w", "cy1:y", {"cy2:a", "rw:a"}, {{"g_w", 12.0}}},
        {"v", "cy2:y", {"cy1:b"}, {{"g_v", 10.0}}},
    };
    for (const std::string n : {"s0", "s1", "w", "v"}) {
        nets.push_back({"g_" + n, "a_" + n + ":y", {"r_" + n + ":a"}, {}});
    }
    const auto spef = parser::parseSpef(spefText(nets));
    std::map<std::string, core::TimingWindow> entries = {
        {"pin", {0.0, 100e-12}},
        {"g_s1_in", {30e-12, 200e-12}},
        {"g_w_in", {60e-12, 260e-12}},
        {"v", {50e-12, 150e-12}},
    };
    const core::TimingWindows windows = windowsOf(entries);
    entries.erase("v");
    const core::TimingWindows withoutV = windowsOf(entries);

    for (const int threads : {1, 4}) {
        core::Design design(lib);
        build(design);
        auto opt = cheapOptions();
        opt.propagate = true;
        opt.threads = threads;
        opt.windows = &windows;
        charlib::CharCache cache;
        opt.cache = &cache;
        core::AnalysisSnapshot snapshot;
        opt.snapshot = &snapshot;
        core::analyzeDesign(design, spef, opt);
        ASSERT_TRUE(snapshot.valid);
        ASSERT_FALSE(snapshot.index->levels().brokenEdges.empty());
        opt.snapshot = nullptr;

        design.replaceCell("c1", "INV_X2");
        core::DesignDelta delta;
        delta.instances.push_back("c1");
        core::IncrementalStats stats;
        const auto fast = core::analyzeDesignIncremental(
            design, spef, delta, snapshot, opt, &stats);
        const std::string tag = "cycle threads=" + std::to_string(threads);
        EXPECT_FALSE(stats.indexRebuilt) << tag;
        expectSameReports(fast, core::analyzeDesign(design, spef, opt), tag);
        expectRetainedWindowsCurrent(snapshot, windows, tag);
        const core::NetTaskGraph& tg = snapshot.index->taskGraph();
        ASSERT_TRUE(snapshot.netWindows[static_cast<std::size_t>(
                                            tg.idOf.at("w"))]
                        .bounded())
            << tag;

        opt.windows = &withoutV;
        const auto dropped = core::analyzeDesignIncremental(
            design, spef, {}, snapshot, opt, &stats);
        EXPECT_FALSE(stats.indexRebuilt) << tag;
        expectSameReports(dropped, core::analyzeDesign(design, spef, opt),
                          tag + " drop v");
        expectRetainedWindowsCurrent(snapshot, withoutV, tag + " drop v");
        EXPECT_FALSE(snapshot.netWindows[static_cast<std::size_t>(
                                             tg.idOf.at("v"))]
                         .bounded())
            << tag;
    }
}

// A re-extraction can make a net gain or lose victim status: the retained
// victim list must then be selected again, with every retained report
// following its net to the new slot.
TEST(Incremental, VictimStatusFlipReselectsTheVictimList) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spefQuiet =
        parser::parseSpef(chainSpef({1, 1, 0}, {20.0, 10.0, 0.0}));
    const auto spefCoupled =
        parser::parseSpef(chainSpef({1, 1, 1}, {20.0, 10.0, 14.0}));
    for (const bool propagate : {false, true}) {
        core::Design design(lib);
        buildChain(design, {1, 1, 1});  // a2_0 drives g2_0 either way
        auto opt = cheapOptions();
        opt.propagate = propagate;
        charlib::CharCache cache;
        opt.cache = &cache;
        core::AnalysisSnapshot snapshot;
        opt.snapshot = &snapshot;
        core::analyzeDesign(design, spefQuiet, opt);
        ASSERT_TRUE(snapshot.valid);
        opt.snapshot = nullptr;
        const std::size_t quietVictims = snapshot.victims.size();

        core::DesignDelta delta;
        delta.nets = {"s2", "g2_0"};
        const std::string tag = propagate ? "wavefront" : "flat";
        core::IncrementalStats stats;
        const auto gained = core::analyzeDesignIncremental(
            design, spefCoupled, delta, snapshot, opt, &stats);
        EXPECT_FALSE(stats.indexRebuilt) << tag;
        expectSameReports(gained,
                          core::analyzeDesign(design, spefCoupled, opt),
                          tag + " gained");
        EXPECT_EQ(snapshot.victims.size(), quietVictims + 1) << tag;  // s2

        const auto lost = core::analyzeDesignIncremental(
            design, spefQuiet, delta, snapshot, opt, &stats);
        EXPECT_FALSE(stats.indexRebuilt) << tag;
        expectSameReports(lost, core::analyzeDesign(design, spefQuiet, opt),
                          tag + " lost");
        EXPECT_EQ(snapshot.victims.size(), quietVictims) << tag;
        EXPECT_GT(stats.reusedVictimReports, 0u) << tag;
    }
}

// The window cone counter pins the O(cone) property without timing
// anything: an unchanged state re-propagates nothing, and a resize
// re-propagates only nets of its own chain.
TEST(IncrementalWindows, ConeCounterStaysOnTheResizedChain) {
    const cell::CellLibrary lib(tech::tech130());
    MultiChain mc;
    mc.chains = 4;
    const std::size_t chainLength = static_cast<std::size_t>(mc.stages) + 2;
    core::Design design(lib);
    mc.build(design);
    const auto spef = parser::parseSpef(mc.spef(std::vector<double>(
        static_cast<std::size_t>(mc.chains * mc.stages), 12.0)));
    const core::TimingWindows windows = windowsOf({
        {mc.head(0), {0.0, 100e-12}},
        {mc.head(2), {40e-12, 220e-12}},
    });
    auto opt = cheapOptions();
    opt.propagate = true;
    opt.windows = &windows;
    charlib::CharCache cache;
    opt.cache = &cache;
    core::AnalysisSnapshot snapshot;
    opt.snapshot = &snapshot;
    core::analyzeDesign(design, spef, opt);
    ASSERT_TRUE(snapshot.valid);
    opt.snapshot = nullptr;

    core::IncrementalStats noop;
    core::analyzeDesignIncremental(design, spef, {}, snapshot, opt, &noop);
    EXPECT_FALSE(noop.indexRebuilt);
    EXPECT_EQ(noop.windowNetsRepropagated, 0u);
    EXPECT_EQ(noop.dirtyTasks, 0u);

    // Head stage of a windowed chain: every window of that chain moves, so
    // its own nets fill the whole budget and no other chain's net fits.
    design.replaceCell(mc.gate(0, 0), "INV_X2");
    core::DesignDelta head;
    head.instances.push_back(mc.gate(0, 0));
    core::IncrementalStats stats;
    auto fast =
        core::analyzeDesignIncremental(design, spef, head, snapshot, opt,
                                       &stats);
    EXPECT_FALSE(stats.indexRebuilt);
    EXPECT_EQ(stats.windowNetsRepropagated, chainLength);
    expectSameReports(fast, core::analyzeDesign(design, spef, opt), "head");

    // Mid stage of an unwindowed chain: only the instance's own pins are
    // re-propagated; their windows stay unbounded, so nothing spreads.
    design.replaceCell(mc.gate(1, 1), "INV_X2");
    core::DesignDelta mid;
    mid.instances.push_back(mc.gate(1, 1));
    fast = core::analyzeDesignIncremental(design, spef, mid, snapshot, opt,
                                          &stats);
    EXPECT_FALSE(stats.indexRebuilt);
    EXPECT_LE(stats.windowNetsRepropagated, chainLength);
    EXPECT_EQ(stats.windowNetsRepropagated, 2u);
    expectSameReports(fast, core::analyzeDesign(design, spef, opt), "mid");
    expectRetainedWindowsCurrent(snapshot, windows, "cone");
}

// ROADMAP item 4: a seeded random ECO sequence — driver resizes, coupling
// re-extractions, explicit-window edits, empty deltas, and undos of the
// step before — on a small windowed multi-chain design. After every step
// the incremental run (at threads 1 and 4, each on its own snapshot) must
// equal a cold full run bit for bit, without ever falling back to a
// rebuild, and its retained slots must equal the full run's — early cutoff
// and restored solves included, which the sequence must exercise.
TEST(IncrementalWindows, RandomEcoSequenceMatchesFullRuns) {
    const cell::CellLibrary lib(tech::tech130());
    const MultiChain mc;
    core::Design design(lib);
    mc.build(design);
    std::vector<double> cc(
        static_cast<std::size_t>(mc.chains * mc.stages), 0.0);
    for (std::size_t i = 0; i < cc.size(); ++i) {
        cc[i] = 8.0 + 3.0 * static_cast<double>(i % 4);
    }
    auto spef = parser::parseSpef(mc.spef(cc));
    std::map<std::string, core::TimingWindow> entries = {
        {mc.head(0), {0.0, 100e-12}},
        {mc.head(2), {40e-12, 220e-12}},
    };
    auto windows = std::make_unique<core::TimingWindows>(windowsOf(entries));

    auto opt = cheapOptions();
    opt.maxAggressors = 2;
    opt.propagate = true;
    opt.windows = windows.get();
    charlib::CharCache cache;
    opt.cache = &cache;
    core::AnalysisSnapshot snap1, snap4;
    for (core::AnalysisSnapshot* s : {&snap1, &snap4}) {
        opt.snapshot = s;
        core::analyzeDesign(design, spef, opt);
        ASSERT_TRUE(s->valid);
    }
    opt.snapshot = nullptr;

    // The edited state: stage gate cells, coupling caps, explicit windows.
    struct EcoState {
        std::map<std::string, std::string> cells;
        std::vector<double> cc;
        std::map<std::string, core::TimingWindow> entries;
    };
    std::map<std::string, std::string> cells;
    for (int k = 0; k < mc.chains; ++k) {
        for (int i = 0; i < mc.stages; ++i) cells[mc.gate(k, i)] = "INV_X1";
    }
    EcoState before{cells, cc, entries};  // the state the last step left

    util::Rng rng(20051);
    std::array<int, 5> kinds{};
    std::size_t cutoffTasks = 0;
    std::size_t restoredTasks = 0;
    for (int step = 0; step < 40; ++step) {
        EcoState now{cells, cc, entries};
        core::DesignDelta delta;
        const int kind = rng.uniformInt(0, 4);
        ++kinds[static_cast<std::size_t>(kind)];
        const int k = rng.uniformInt(0, mc.chains - 1);
        const int i = rng.uniformInt(0, mc.stages - 1);
        std::string what;
        if (kind == 0) {
            const std::string g = mc.gate(k, i);
            std::string& cell = cells.at(g);
            cell = cell == "INV_X1" ? "INV_X2" : "INV_X1";
            design.replaceCell(g, cell);
            delta.instances.push_back(g);
            what = "resize " + g;
        } else if (kind == 1) {
            const std::size_t slot =
                static_cast<std::size_t>(k * mc.stages + i);
            cc[slot] = cc[slot] > 10.0 ? cc[slot] * 0.7 : cc[slot] * 1.6;
            spef = parser::parseSpef(mc.spef(cc));
            delta.nets.push_back(mc.net(k, i));
            what = "re-extract " + mc.net(k, i);
        } else if (kind == 2) {
            const std::string h = mc.head(k);
            if (entries.count(h) != 0 && rng.chance(0.4)) {
                entries.erase(h);
                what = "drop window " + h;
            } else {
                const double lo = rng.uniform(0.0, 80e-12);
                entries[h] = {lo, lo + rng.uniform(60e-12, 240e-12)};
                what = "set window " + h;
            }
            windows = std::make_unique<core::TimingWindows>(
                windowsOf(entries));
            opt.windows = windows.get();
        } else if (kind == 3) {
            what = "empty";
        } else {
            // Undo the step before, bit for bit: its cell, caps and windows.
            for (const auto& [g, cell] : before.cells) {
                if (cells.at(g) == cell) continue;
                design.replaceCell(g, cell);
                delta.instances.push_back(g);
            }
            for (std::size_t slot = 0; slot < cc.size(); ++slot) {
                if (cc[slot] == before.cc[slot]) continue;
                delta.nets.push_back(
                    mc.net(static_cast<int>(slot) / mc.stages,
                           static_cast<int>(slot) % mc.stages));
            }
            cells = before.cells;
            cc = before.cc;
            entries = before.entries;
            spef = parser::parseSpef(mc.spef(cc));
            windows = std::make_unique<core::TimingWindows>(
                windowsOf(entries));
            opt.windows = windows.get();
            what = "undo";
        }
        before = std::move(now);
        const std::string tag =
            "step " + std::to_string(step) + " (" + what + ")";

        opt.threads = 1;
        core::AnalysisSnapshot fresh;
        opt.snapshot = &fresh;
        const auto full = core::analyzeDesign(design, spef, opt);
        opt.snapshot = nullptr;
        for (const auto& [threads, snap] :
             {std::pair<int, core::AnalysisSnapshot*>{1, &snap1},
              {4, &snap4}}) {
            opt.threads = threads;
            core::IncrementalStats stats;
            const auto fast = core::analyzeDesignIncremental(
                design, spef, delta, *snap, opt, &stats);
            const std::string t = tag + " threads=" + std::to_string(threads);
            EXPECT_FALSE(stats.indexRebuilt) << t;
            expectSameReports(fast, full, t);
            expectRetainedSlotsCurrent(*snap, fresh, t);
            expectSameVictims(*snap, fresh, t);
            cutoffTasks += stats.cutoffTasks;
            restoredTasks += stats.restoredTasks;
        }
        if (testing::Test::HasFailure()) break;
    }
    for (const int count : kinds) EXPECT_GT(count, 0);
    EXPECT_GT(cutoffTasks, 0u);
    EXPECT_GT(restoredTasks, 0u);
    expectRetainedWindowsCurrent(snap1, *windows, "final");
}

// The cutoff key's contract, in the style of the fingerprint test: each row
// is an ECO that changes one input a task's solve reads, so the task that
// reads it must re-solve, and every report and retained slot must equal a
// full run's bit for bit. A victim re-solved by the call holds a new
// waveform buffer; a victim that kept its retained report still shares
// the one captured before the call. A row's `kept` victims are must-solve
// tasks whose inputs the ECO leaves bitwise unchanged: they re-solve zero
// times.
TEST(Incremental, TaskKeyCoversEveryInputTheSolveReads) {
    const cell::CellLibrary lib(tech::tech130());
    const MultiChain mc;
    std::vector<double> cc(static_cast<std::size_t>(mc.chains * mc.stages));
    for (std::size_t i = 0; i < cc.size(); ++i) {
        cc[i] = 8.0 + 3.0 * static_cast<double>(i % 4);
    }
    const std::map<std::string, core::TimingWindow> windows = {
        {mc.head(0), {0.0, 100e-12}},
        {mc.head(2), {40e-12, 220e-12}},
    };
    // c1s1 is driven by c1g1x too, which loses to c1g1 on its name (the
    // index warns about it on every build).
    const log::Level savedLevel = log::level();
    log::setLevel(log::Level::Error);
    struct Restore {
        log::Level level;
        ~Restore() { log::setLevel(level); }
    } restore{savedLevel};
    const auto build = [&mc](core::Design& d) {
        mc.build(d);
        addInst(d, "c1g1x", "INV_X1",
                {{"a", mc.net(1, 0)}, {"y", mc.net(1, 1)}});
    };

    struct Eco {
        core::Design& design;
        std::string spef;
        std::map<std::string, core::TimingWindow> windows;
        core::DesignDelta delta;
    };
    struct Row {
        const char* input;
        std::function<void(Eco&)> apply;
        std::vector<std::string> resolved;
        std::vector<std::string> kept;
    };
    const auto resize = [](std::string inst, std::string cell) {
        return [inst, cell](Eco& e) {
            e.design.replaceCell(inst, cell);
            e.delta.instances.push_back(inst);
        };
    };
    const std::vector<Row> rows = {
        {"driver cell", resize("c1g0", "INV_X2"), {"c1s0"}, {}},
        // c1g3 is c1s2's only receiver: c1s2's coupling neighbours are
        // must-solve, but an aggressor's cluster never reads its receivers.
        {"first-load cell", resize("c1g3", "INV_X1"), {"c1s2"},
         {"c0s2", "c2s2"}},
        {"aggressor driver cell", resize("c1g1", "INV_X2"),
         {"c0s1", "c2s1"}, {}},
        {"R in a cluster net's section",
         [](Eco& e) {
             const std::string from = "*RES\n1 c1g1:y c1s1:1 60\n";
             const std::size_t at = e.spef.find(from);
             ASSERT_NE(at, std::string::npos);
             e.spef.replace(at, from.size(), "*RES\n1 c1g1:y c1s1:1 75\n");
             e.delta.nets.push_back("c1s1");
         },
         {"c1s1", "c0s1", "c2s1"}, {}},
        // Chain 0 now switches after chain 2 has settled: chain 2's victims
        // exclude it as an aggressor.
        {"explicit window bound",
         [&mc](Eco& e) { e.windows[mc.head(0)] = {1.5e-9, 1.6e-9}; },
         {"c0s0", "c2s0"}, {}},
        // c1s0's coupling moves its surviving glitch: c1s1 reads nothing
        // else of the ECO.
        {"upstream glitch",
         [&mc, cc](Eco& e) {
             std::vector<double> moved = cc;
             moved[3] *= 0.6;
             e.spef = mc.spef(moved);
             e.delta.nets.push_back(mc.net(1, 0));
         },
         {"c1s1"}, {}},
        // The solve reads the losing driver's name, not its cell.
        {"extra driver", resize("c1g1x", "INV_X2"), {},
         {"c1s0", "c1s1", "c0s1", "c2s1"}},
    };

    for (const Row& row : rows) {
        for (const int threads : {1, 4}) {
            const std::string tag = std::string(row.input) +
                                    " threads=" + std::to_string(threads);
            core::Design design(lib);
            build(design);
            Eco eco{design, mc.spef(cc), windows, {}};
            const auto spef0 = parser::parseSpef(eco.spef);
            const core::TimingWindows w0 = windowsOf(windows);
            auto opt = cheapOptions();
            opt.propagate = true;
            opt.threads = threads;
            opt.windows = &w0;
            charlib::CharCache cache;
            opt.cache = &cache;
            core::AnalysisSnapshot snapshot;
            opt.snapshot = &snapshot;
            core::analyzeDesign(design, spef0, opt);
            ASSERT_TRUE(snapshot.valid) << tag;
            opt.snapshot = nullptr;
            // Holding the retained reports keeps their sample buffers alive,
            // so a re-solve cannot land on the same address.
            const std::vector<core::NetNoiseReport> before =
                *snapshot.reports;
            const auto bufferOf = [](const core::NetNoiseReport& r) {
                return r.cluster.worst.waveform.samples().data();
            };
            const auto beforeBuffer = [&](const std::string& net) {
                return bufferOf(before[static_cast<std::size_t>(
                    snapshot.slotOf.at(net))]);
            };

            row.apply(eco);
            const auto spef1 = parser::parseSpef(eco.spef);
            const core::TimingWindows w1 = windowsOf(eco.windows);
            opt.windows = &w1;
            core::IncrementalStats stats;
            const auto fast = core::analyzeDesignIncremental(
                design, spef1, eco.delta, snapshot, opt, &stats);
            core::AnalysisSnapshot fresh;
            opt.snapshot = &fresh;
            const auto full = core::analyzeDesign(design, spef1, opt);
            EXPECT_FALSE(stats.indexRebuilt) << tag;
            expectSameReports(fast, full, tag);
            expectRetainedSlotsCurrent(snapshot, fresh, tag);
            for (std::size_t i = 0; i < fast.size(); ++i) {
                EXPECT_EQ(fast[i].otherDrivers, full[i].otherDrivers) << tag;
            }
            const auto afterBuffer = [&](const std::string& net) {
                return bufferOf((*snapshot.reports)[static_cast<std::size_t>(
                    snapshot.slotOf.at(net))]);
            };
            for (const std::string& net : row.resolved) {
                EXPECT_NE(afterBuffer(net), beforeBuffer(net))
                    << tag << ": " << net << " kept its retained report";
            }
            for (const std::string& net : row.kept) {
                EXPECT_EQ(afterBuffer(net), beforeBuffer(net))
                    << tag << ": " << net << " re-solved";
            }
            EXPECT_GE(stats.cutoffTasks, row.kept.size()) << tag;
        }
    }
}

// ------------------------------------------------------ thread resolution

// ------------------------------------------- state kept between calls

TEST(Incremental, ReturnedReportsShareTheSnapshotsWaveforms) {
    // A report handed back copies the retained one's waveform pointer, not
    // its samples.
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{2, 1, 1, 0};
    const auto spef =
        parser::parseSpef(chainSpef(aggs, {30.0, 10.0, 8.0, 0.0}));
    core::Design design(lib);
    buildChain(design, aggs);
    auto opt = cheapOptions();
    opt.propagate = true;
    core::AnalysisSnapshot snapshot;
    opt.snapshot = &snapshot;
    core::analyzeDesign(design, spef, opt);
    opt.snapshot = nullptr;

    const auto reports = core::analyzeDesignIncremental(
        design, spef, core::DesignDelta{}, snapshot, opt);
    const std::vector<core::NetNoiseReport>& kept = *snapshot.reports;
    ASSERT_EQ(reports.size(), kept.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const wave::Waveform& w = reports[i].cluster.worst.waveform;
        EXPECT_EQ(reports[i].net, kept[i].net);
        // A quiet net's propagated-only report may carry no waveform.
        if (i < snapshot.victims.size()) {
            EXPECT_FALSE(w.empty()) << reports[i].net;
        }
        EXPECT_EQ(w.samples().data(),
                  kept[i].cluster.worst.waveform.samples().data())
            << reports[i].net;
    }
}

// ------------------------------------------- the shared report list

// Rebinds c2 on the fading chain: a resize, named in the delta alone.
core::AnalysisOutcome resizeC2(RevertChain& rc, const char* cell,
                               core::IncrementalStats& stats) {
    rc.design.replaceCell("c2", cell);
    core::DesignDelta delta;
    delta.instances = {"c2"};
    return core::analyzeDesignIncrementalOutcome(rc.design, rc.spef, delta,
                                                 rc.snapshot, rc.opt, &stats);
}

// Re-extracts s1 at `cc` fF per coupling cap, named in the delta alone.
core::AnalysisOutcome reextractS1(RevertChain& rc, double cc,
                                  core::IncrementalStats& stats) {
    rc.spef = RevertChain::spefOf(ChainState{"", cc});
    core::DesignDelta delta;
    delta.nets = {"s1"};
    return core::analyzeDesignIncrementalOutcome(rc.design, rc.spef, delta,
                                                 rc.snapshot, rc.opt, &stats);
}

const void* bufferOf(const core::NetNoiseReport& r) {
    return r.cluster.worst.waveform.samples().data();
}

// `list` holds exactly what `asReturned` copied when it was returned: the
// same values, statuses and waveform buffers.
void expectAsReturned(const core::ReportList& list,
                      const std::vector<core::NetNoiseReport>& asReturned,
                      const std::string& tag) {
    expectSameReports(list, asReturned, tag);
    ASSERT_EQ(list.size(), asReturned.size()) << tag;
    for (std::size_t i = 0; i < list.size(); ++i) {
        EXPECT_EQ(list[i].status, asReturned[i].status) << tag;
        EXPECT_EQ(bufferOf(list[i]), bufferOf(asReturned[i]))
            << tag << " " << list[i].net;
    }
}

// A list the caller holds never changes: the updates after it clone it
// once each before writing (the whole list counted as copied), and their
// own lists are a cold run's.
TEST(IncrementalReportList, HeldOutcomeStaysAsReturned) {
    const cell::CellLibrary lib(tech::tech130());
    for (const int threads : {1, 4, 8}) {
        const std::string tag = "threads=" + std::to_string(threads);
        RevertChain rc(lib, threads);
        core::IncrementalStats stats;
        const core::AnalysisOutcome held =
            core::analyzeDesignIncrementalOutcome(rc.design, rc.spef, {},
                                                  rc.snapshot, rc.opt, &stats);
        EXPECT_EQ(stats.reportsCopied, 0u) << tag;
        const std::vector<core::NetNoiseReport> asReturned = held.reports;
        const core::NetNoiseReport* const at = &held.reports.front();

        const std::function<core::AnalysisOutcome()> ecos[] = {
            [&] { return resizeC2(rc, "INV_X2", stats); },
            [&] { return resizeC2(rc, "INV_X1", stats); },
            [&] { return reextractS1(rc, 14.0, stats); },
        };
        for (std::size_t k = 0; k < std::size(ecos); ++k) {
            const std::string step = tag + " eco " + std::to_string(k);
            const core::AnalysisOutcome out = ecos[k]();
            ASSERT_TRUE(out.clean()) << step;
            EXPECT_FALSE(stats.indexRebuilt) << step;
            // The first update clones the held list; the later ones find
            // theirs dropped.
            EXPECT_EQ(stats.reportsCopied, k == 0 ? held.reports.size() : 0u)
                << step;
            EXPECT_NE(&out.reports.front(), at) << step;
            rc.expectCold(out.reports, step);
            expectAsReturned(held.reports, asReturned, step + " held");
            EXPECT_EQ(&held.reports.front(), at) << step;
        }
    }
}

// With no other holder, each update patches the snapshot's list in place:
// the same storage comes back, the re-solved entries hold new reports, a
// revert swaps the earlier ones back, and no report is copied.
TEST(IncrementalReportList, DroppedOutcomeIsPatchedInPlace) {
    const cell::CellLibrary lib(tech::tech130());
    for (const int threads : {1, 4, 8}) {
        const std::string tag = "threads=" + std::to_string(threads);
        RevertChain rc(lib, threads);  // keeps a copy of the capture run's
        const core::NetNoiseReport* const at = &rc.snapshot.reports->front();
        const std::size_t victims = rc.snapshot.victims.size();
        core::IncrementalStats stats;
        // Victim entries whose report is not the capture run's.
        const auto replaced = [&](const core::ReportList& list) {
            std::size_t n = 0;
            for (std::size_t i = 0; i < victims; ++i) {
                n += bufferOf(list[i]) != bufferOf(rc.coldA[i]) ? 1 : 0;
            }
            return n;
        };
        {
            const auto out = core::analyzeDesignIncrementalOutcome(
                rc.design, rc.spef, {}, rc.snapshot, rc.opt, &stats);
            EXPECT_EQ(stats.reportsCopied, 0u) << tag;
            EXPECT_EQ(&out.reports.front(), at) << tag;
            EXPECT_EQ(replaced(out.reports), 0u) << tag;
        }
        {
            const auto out = resizeC2(rc, "INV_X2", stats);
            EXPECT_GT(stats.solvedVictimReports, 0u) << tag;
            EXPECT_EQ(stats.reportsCopied, 0u) << tag;
            EXPECT_EQ(&out.reports.front(), at) << tag;
            EXPECT_EQ(replaced(out.reports), stats.solvedVictimReports) << tag;
            rc.expectCold(out.reports, tag + " resize");
        }
        {
            const auto out = resizeC2(rc, "INV_X1", stats);
            EXPECT_EQ(stats.solvedVictimReports, 0u) << tag;
            EXPECT_EQ(stats.reportsCopied, 0u) << tag;
            EXPECT_EQ(&out.reports.front(), at) << tag;
            EXPECT_EQ(replaced(out.reports), 0u) << tag;
            expectAsReturned(out.reports, rc.coldA, tag + " revert");
        }
        {
            const auto out = reextractS1(rc, 14.0, stats);
            EXPECT_GT(stats.solvedVictimReports, 0u) << tag;
            EXPECT_EQ(stats.reportsCopied, 0u) << tag;
            EXPECT_EQ(&out.reports.front(), at) << tag;
            rc.expectCold(out.reports, tag + " re-extraction");
        }
    }
}

// A reader on another thread walks a list it holds while the calling
// thread runs the next updates on the snapshot that returned it: the
// reader sees the list as returned on every pass (and under TSan, no race).
TEST(IncrementalReportList, ReaderThreadSeesItsListWhileTheNextUpdateRuns) {
    const cell::CellLibrary lib(tech::tech130());
    RevertChain rc(lib, 4);
    core::IncrementalStats stats;
    core::ReportList held =
        core::analyzeDesignIncrementalOutcome(rc.design, rc.spef, {},
                                              rc.snapshot, rc.opt, &stats)
            .reports;
    const std::vector<core::NetNoiseReport> asReturned = held;
    std::atomic<bool> updating{true};
    std::size_t passes = 0;
    std::size_t mismatches = 0;
    std::thread reader([list = std::move(held), &asReturned, &updating,
                        &passes, &mismatches] {
        // At least one pass after the updates ended, and one per loop.
        for (bool last = false; !last; ++passes) {
            last = !updating.load(std::memory_order_acquire);
            if (list.size() != asReturned.size()) {
                ++mismatches;
                continue;
            }
            for (std::size_t i = 0; i < list.size(); ++i) {
                const bool same =
                    list[i].net == asReturned[i].net &&
                    list[i].cluster.margin == asReturned[i].cluster.margin &&
                    list[i].status == asReturned[i].status &&
                    bufferOf(list[i]) == bufferOf(asReturned[i]);
                mismatches += same ? 0 : 1;
            }
        }
    });
    for (int k = 0; k < 3; ++k) {
        EXPECT_TRUE(resizeC2(rc, "INV_X2", stats).clean());
        EXPECT_TRUE(reextractS1(rc, 14.0, stats).clean());
        EXPECT_TRUE(resizeC2(rc, "INV_X1", stats).clean());
        EXPECT_TRUE(reextractS1(rc, 10.0, stats).clean());
    }
    updating.store(false, std::memory_order_release);
    reader.join();
    EXPECT_GE(passes, 1u);
    EXPECT_EQ(mismatches, 0u);
    const auto out = core::analyzeDesignIncrementalOutcome(
        rc.design, rc.spef, {}, rc.snapshot, rc.opt, &stats);
    expectAsReturned(out.reports, rc.coldA, "back at the capture state");
}

TEST(Incremental, SnapshotKeepsOneWorkerPoolAcrossCalls) {
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{2, 1, 1, 0};
    const auto spef =
        parser::parseSpef(chainSpef(aggs, {30.0, 10.0, 8.0, 0.0}));
    core::Design design(lib);
    buildChain(design, aggs);
    auto opt = cheapOptions();
    opt.propagate = true;
    opt.threads = 4;
    core::AnalysisSnapshot snapshot;
    opt.snapshot = &snapshot;
    core::analyzeDesign(design, spef, opt);
    opt.snapshot = nullptr;
    const std::shared_ptr<util::ThreadPool> first = snapshot.pool;
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->size(), 4);

    // Resizing c3 and back: two calls on one pool. The resize solves on
    // it; the revert restores every dirty task on the calling thread and
    // schedules none. Holding `first` keeps its address from being reused
    // by a replacement.
    core::DesignDelta delta;
    delta.instances = {"c3"};
    for (const char* cellName : {"INV_X2", "INV_X1"}) {
        design.replaceCell("c3", cellName);
        core::IncrementalStats stats;
        core::analyzeDesignIncremental(design, spef, delta, snapshot, opt,
                                       &stats);
        EXPECT_FALSE(stats.indexRebuilt);
        if (std::string(cellName) == "INV_X2") {
            EXPECT_GT(stats.scheduler.tasksExecuted, 0u);
        } else {
            EXPECT_EQ(stats.scheduler.tasksExecuted, 0u);
            EXPECT_EQ(stats.callerTasks, stats.dirtyTasks);
        }
        EXPECT_EQ(snapshot.pool, first);
    }

    // Another thread count builds another pool; a serial call releases it.
    opt.threads = 2;
    core::analyzeDesignIncremental(design, spef, core::DesignDelta{},
                                   snapshot, opt);
    ASSERT_NE(snapshot.pool, nullptr);
    EXPECT_NE(snapshot.pool, first);
    EXPECT_EQ(snapshot.pool->size(), 2);
    opt.threads = 1;
    core::analyzeDesignIncremental(design, spef, core::DesignDelta{},
                                   snapshot, opt);
    EXPECT_EQ(snapshot.pool, nullptr);

    // A cancelled call drains its workers and keeps the pool: the next
    // call (a rebuild, the snapshot is no longer splice input) runs on it
    // and matches a cold run bit for bit.
    opt.threads = 4;
    core::analyzeDesignIncremental(design, spef, core::DesignDelta{},
                                   snapshot, opt);
    const std::shared_ptr<util::ThreadPool> kept = snapshot.pool;
    ASSERT_NE(kept, nullptr);
    util::CancelToken token;
    token.cancel();
    auto cancelled = opt;
    cancelled.cancel = &token;
    design.replaceCell("c3", "INV_X2");
    const auto outcome = core::analyzeDesignIncrementalOutcome(
        design, spef, delta, snapshot, cancelled);
    EXPECT_EQ(outcome.reason, core::TerminationReason::cancelled);
    EXPECT_FALSE(snapshot.valid);
    EXPECT_EQ(snapshot.pool, kept);

    core::IncrementalStats stats;
    const auto next = core::analyzeDesignIncremental(design, spef, delta,
                                                     snapshot, opt, &stats);
    EXPECT_TRUE(stats.indexRebuilt);
    EXPECT_EQ(stats.scheduler.workers, 4);
    EXPECT_EQ(snapshot.pool, kept);
    expectSameReports(next, core::analyzeDesign(design, spef, opt),
                      "after a cancelled call");
}

TEST(Threads, ZeroResolvesToHardwareConcurrency) {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    const int expected = hw > 0 ? hw : 1;
    EXPECT_EQ(util::resolveThreadCount(0), expected);
    EXPECT_EQ(util::resolveThreadCount(1), 1);
    EXPECT_EQ(util::resolveThreadCount(-3), 1);
    EXPECT_EQ(util::resolveThreadCount(6), 6);
}

TEST(Threads, SchedulerStatsReportResolvedWorkerCount) {
    const cell::CellLibrary lib(tech::tech130());
    const std::vector<int> aggs{1, 1};
    const auto spef = parser::parseSpef(chainSpef(aggs, {20.0, 10.0}));
    core::Design design(lib);
    buildChain(design, aggs);
    auto opt = cheapOptions();
    opt.propagate = true;

    util::SchedulerStats ss;
    opt.schedulerStats = &ss;
    opt.threads = 4;
    core::analyzeDesign(design, spef, opt);
    EXPECT_EQ(ss.workers, 4);

    opt.threads = 1;
    core::analyzeDesign(design, spef, opt);
    EXPECT_EQ(ss.workers, 1);

    opt.threads = 0;
    core::analyzeDesign(design, spef, opt);
    EXPECT_EQ(ss.workers, util::resolveThreadCount(0));
}

}  // namespace
