// Tests for the indexed, cached, parallel full-design pipeline: DesignIndex
// vs the brute-force scans, analyzeDesign's victim selection vs a
// brute-force selection, thread determinism, and the characterization
// cache's once-per-cell guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "charlib/char_cache.hpp"
#include "core/design_index.hpp"
#include "core/sna.hpp"
#include "util/error.hpp"

namespace {

using namespace sna;

// A 4-net ring (every net coupled to both neighbours through distinct caps)
// plus one stub net with coupling but no driver in the design.
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
    // Coupled net with no driver instance: must be skipped by both paths.
    os << "*D_NET orphan 4.0\n*CONN\n*P orphan_in I\n*CAP\n";
    os << "1 orphan:1 2.0\n2 orphan:1 n0:1 2.0\n*RES\n";
    os << "1 orphan_in orphan:1 10\n*END\n";
    return os.str();
}

void buildRingDesign(core::Design& design, int nets) {
    auto inst = [&](const std::string& name, const std::string& cellName,
                    std::map<std::string, std::string> pins) {
        core::Instance in;
        in.name = name;
        in.cellName = cellName;
        in.pinToNet = std::move(pins);
        design.addInstance(std::move(in));
    };
    for (int i = 0; i < nets; ++i) {
        const std::string n = std::to_string(i);
        inst("d" + n, (i % 2 == 0) ? "INV_X1" : "INV_X2",
             {{"a", "pi" + n}, {"y", "n" + n}});
        inst("r" + n, (i % 2 == 0) ? "INV_X2" : "INV_X1",
             {{"a", "n" + n}, {"y", "po" + n}});
    }
}

// ------------------------------------------------------------------ index

TEST(DesignIndex, MatchesBruteForceScans) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(4));
    core::Design design(lib);
    buildRingDesign(design, 4);

    const core::DesignIndex index(design, spef);

    for (const auto& [netName, spefNet] : spef.nets()) {
        EXPECT_EQ(index.driverOf(netName), design.driverOf(netName))
            << "driver mismatch on " << netName;
        EXPECT_EQ(index.loadsOf(netName), design.loadsOf(netName))
            << "loads mismatch on " << netName;

        // Brute-force coupling: sum matching caps over every section.
        std::map<std::string, double> brute;
        for (const auto& [otherName, otherNet] : spef.nets()) {
            for (const auto& cap : otherNet.caps) {
                if (cap.node2.empty()) continue;
                const auto owner = [](const std::string& n) {
                    return n.substr(0, n.find(':'));
                };
                const std::string o1 = owner(cap.node1);
                const std::string o2 = owner(cap.node2);
                if (o1 == netName && o2 != netName) {
                    brute[o2] += cap.farads;
                } else if (o2 == netName && o1 != netName) {
                    brute[o1] += cap.farads;
                }
            }
        }
        const auto& indexed = index.couplingOf(netName);
        ASSERT_EQ(indexed.size(), brute.size()) << "on " << netName;
        for (const auto& [agg, cc] : brute) {
            ASSERT_TRUE(indexed.count(agg)) << agg << " missing";
            EXPECT_NEAR(indexed.at(agg), cc, 1e-24);
        }
    }
    EXPECT_EQ(index.driverOf("nope"), nullptr);
    EXPECT_TRUE(index.loadsOf("nope").empty());
    EXPECT_TRUE(index.couplingOf("nope").empty());
    // The orphan net couples to n0 but has no driver instance.
    EXPECT_EQ(index.driverOf("orphan"), nullptr);
    EXPECT_NEAR(index.couplingOf("orphan").at("n0"), 2e-15, 1e-24);
}

// ------------------------------------------------------------- regression

TEST(DesignFlowRegression, ThreadCountsMatchSerialSchedule) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(4));
    core::Design design(lib);
    buildRingDesign(design, 4);

    core::DesignNoiseOptions opt;
    opt.maxAggressors = 2;
    opt.report.searchAlignment = false;  // keep the test fast
    opt.report.macromodel.loadCurveGrid = 9;

    opt.threads = 1;
    const auto serial = core::analyzeDesign(design, spef, opt);
    opt.threads = 4;
    const auto fast4 = core::analyzeDesign(design, spef, opt);

    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(fast4.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        // Every net has exactly its two ring neighbours, listed once (the
        // old implementation appended them per holding level and trimmed).
        EXPECT_EQ(serial[i].aggressorNets.size(), 2u);

        EXPECT_EQ(fast4[i].net, serial[i].net);
        EXPECT_EQ(fast4[i].aggressorNets, serial[i].aggressorNets);
        EXPECT_EQ(fast4[i].cluster.margin, serial[i].cluster.margin);
        EXPECT_EQ(fast4[i].cluster.nrcLimit, serial[i].cluster.nrcLimit);
        EXPECT_EQ(fast4[i].cluster.fails, serial[i].cluster.fails);
    }
}

// ------------------------------------------------------------- selection

// Ring n0..n5 with extra couplings, built so that every selection rule
// fires at least once with maxAggressors = 2:
//   * n0 couples to n1 (5 fF), n2 and n3 (4 fF each: a tie at the cut),
//     n5 (1 fF), the undriven `orphan` (12 fF) and the dangling node
//     `po_n1:1` (9 fF; its owner is driven in the design but is no SPEF
//     net, so only the dangling rule keeps it out);
//   * n2-n3 coupling is split over both sections (1.5 + 1.5 fF), and the
//     n1-n4 cap is listed only under n1's section;
//   * n2 is also driven by zz_dup (a multiply-driven net);
//   * `lonely` couples only to dangling nodes and heads no cluster, and
//     `sink` is driven and coupled but has no load.
std::string selectionSpef() {
    std::ostringstream os;
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"select\"\n";
    os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    const auto net = [&](const std::string& n, const std::string& caps) {
        os << "*D_NET " << n << " 20.0\n*CONN\n*I d_" << n << ":y O\n"
           << "*I r_" << n << ":a I\n*CAP\n1 " << n << ":1 3.0\n" << caps
           << "*RES\n1 d_" << n << ":y " << n << ":1 40\n2 " << n
           << ":1 r_" << n << ":a 40\n*END\n\n";
    };
    net("n0",
        "2 n0:1 n1:1 5.0\n3 n0:1 n2:1 4.0\n4 n0:1 n3:1 4.0\n"
        "5 n0:1 po_n1:1 9.0\n");
    net("n1", "2 n1:1 n2:1 7.0\n3 n1:1 n4:1 6.0\n");
    net("n2", "2 n2:1 n3:1 1.5\n");
    net("n3", "2 n3:1 n2:1 1.5\n3 n3:1 n4:1 2.5\n");
    net("n4", "2 n4:1 n5:1 3.5\n");
    net("n5", "2 n5:1 n0:1 1.0\n");
    net("lonely", "2 lonely:1 ghost:2 8.0\n");
    net("sink", "2 sink:1 n5:1 2.0\n");
    os << "*D_NET orphan 4.0\n*CONN\n*P orphan_in I\n*CAP\n";
    os << "1 orphan:1 2.0\n2 orphan:1 n0:1 12.0\n*RES\n";
    os << "1 orphan_in orphan:1 10\n*END\n";
    return os.str();
}

void buildSelectionDesign(core::Design& design) {
    const auto inst = [&](const std::string& name, const std::string& cell,
                          std::map<std::string, std::string> pins) {
        core::Instance in;
        in.name = name;
        in.cellName = cell;
        in.pinToNet = std::move(pins);
        design.addInstance(std::move(in));
    };
    for (const std::string n : {"n0", "n1", "n2", "n3", "n4", "n5", "lonely",
                                "sink"}) {
        inst("d_" + n, n == "n1" ? "INV_X2" : "INV_X1",
             {{"a", "pi_" + n}, {"y", n}});
        if (n != "sink") {
            inst("r_" + n, "INV_X2", {{"a", n}, {"y", "po_" + n}});
        }
    }
    inst("zz_dup", "INV_X4", {{"a", "dup_in"}, {"y", "n2"}});
}

TEST(DesignIndex, SelectionMatchesBruteForce) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(selectionSpef());
    core::Design design(lib);
    buildSelectionDesign(design);
    const std::size_t maxAggressors = 2;

    // Brute force over the design's own linear scans and every SPEF cap.
    const auto ownerOf = [](const std::string& node) {
        return node.substr(0, node.find(':'));
    };
    struct Expected {
        std::string net;
        std::vector<std::string> aggressorNets;
        std::vector<std::string> otherDrivers;
    };
    std::vector<Expected> expected;
    bool sawTie = false, sawCut = false, sawUndriven = false;
    bool sawDangling = false, sawOtherSection = false, sawMulti = false;
    for (const auto& [netName, spefNet] : spef.nets()) {
        const core::Instance* driver = design.driverOf(netName);
        if (driver == nullptr || design.loadsOf(netName).empty()) continue;
        std::map<std::string, double> cc;
        for (const auto& [section, sectionNet] : spef.nets()) {
            for (const auto& cap : sectionNet.caps) {
                if (cap.node2.empty()) continue;
                const std::string o1 = ownerOf(cap.node1);
                const std::string o2 = ownerOf(cap.node2);
                std::string other;
                if (o1 == netName && o2 != netName) other = o2;
                if (o2 == netName && o1 != netName) other = o1;
                if (other.empty()) continue;
                if (spef.nets().count(other) == 0) {
                    sawDangling = true;
                    continue;
                }
                if (design.driverOf(other) == nullptr) {
                    sawUndriven = true;
                    continue;
                }
                if (section != netName) sawOtherSection = true;
                cc[other] += cap.farads;
            }
        }
        std::vector<std::pair<double, std::string>> ranked;
        for (const auto& [agg, c] : cc) ranked.push_back({c, agg});
        std::sort(ranked.begin(), ranked.end(), [](const auto& a,
                                                   const auto& b) {
            return a.first != b.first ? a.first > b.first
                                      : a.second < b.second;
        });
        for (std::size_t i = 1; i < ranked.size(); ++i) {
            if (ranked[i].first == ranked[i - 1].first) sawTie = true;
        }
        if (ranked.size() > maxAggressors) {
            sawCut = true;
            ranked.resize(maxAggressors);
        }
        if (ranked.empty()) continue;
        Expected e;
        e.net = netName;
        for (const auto& [c, agg] : ranked) e.aggressorNets.push_back(agg);
        const cell::CellLibrary& cells = design.library();
        for (const auto& inst : design.instances()) {
            const auto out =
                inst.pinToNet.find(cells.cell(inst.cellName).outputName());
            if (out != inst.pinToNet.end() && out->second == netName &&
                &inst != driver) {
                e.otherDrivers.push_back(inst.name);
            }
        }
        std::sort(e.otherDrivers.begin(), e.otherDrivers.end());
        sawMulti = sawMulti || !e.otherDrivers.empty();
        expected.push_back(std::move(e));
    }
    // The fixture exercises every rule.
    EXPECT_TRUE(sawTie);
    EXPECT_TRUE(sawCut);
    EXPECT_TRUE(sawUndriven);
    EXPECT_TRUE(sawDangling);
    EXPECT_TRUE(sawOtherSection);
    EXPECT_TRUE(sawMulti);
    ASSERT_EQ(expected.size(), 6u);  // n0..n5; not lonely, sink or orphan
    EXPECT_EQ(expected[0].aggressorNets,
              (std::vector<std::string>{"n1", "n2"}));  // n3 loses the tie

    core::DesignNoiseOptions opt;
    opt.maxAggressors = maxAggressors;
    opt.propagate = false;  // victim reports only, in SPEF order
    opt.report.searchAlignment = false;
    opt.report.macromodel.loadCurveGrid = 9;
    const auto reports = core::analyzeDesign(design, spef, opt);
    ASSERT_EQ(reports.size(), expected.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_EQ(reports[i].net, expected[i].net);
        EXPECT_EQ(reports[i].aggressorNets, expected[i].aggressorNets)
            << expected[i].net;
        EXPECT_EQ(reports[i].otherDrivers, expected[i].otherDrivers)
            << expected[i].net;
    }
}

// ------------------------------------------------------------------ cache

TEST(CharCacheDesign, OneCharacterizationPerCellAndLevel) {
    const cell::CellLibrary lib(tech::tech130());
    const int nets = 6;
    const auto spef = parser::parseSpef(ringSpef(nets));
    core::Design design(lib);
    buildRingDesign(design, nets);

    charlib::CharCache cache;
    core::DesignNoiseOptions opt;
    opt.maxAggressors = 2;
    opt.report.searchAlignment = false;
    opt.report.macromodel.loadCurveGrid = 9;
    opt.cache = &cache;
    const auto reports = core::analyzeDesign(design, spef, opt);
    ASSERT_EQ(reports.size(), static_cast<std::size_t>(nets));

    const auto stats = cache.stats();
    // Victim drivers are INV_X1 and INV_X2, each analyzed at both holding
    // levels. An INV holds no side input, so its two levels share one
    // load curve: exactly 2 DC sweeps regardless of net count.
    EXPECT_EQ(stats.loadCurveRuns, 2u);
    EXPECT_GT(stats.loadCurveHits, 0u);
    // Receivers are INV_X2 and INV_X1 at both quiet levels. A lookup reads
    // the two canonical grid widths that bracket its glitch, so the run
    // bisects each (cell, level, width) point it reads exactly once: probe
    // every point of the 4 x 15 grid afterwards and count the ones already
    // present (hits). They are the runs, and far fewer than the full grid.
    const std::vector<double> grid = opt.report.nrc.grid();
    EXPECT_GT(stats.nrcHits, 0u);
    EXPECT_GT(stats.theveninRuns, 0u);

    // A second run through the same cache re-characterizes nothing.
    const auto again = core::analyzeDesign(design, spef, opt);
    const auto stats2 = cache.stats();
    EXPECT_EQ(stats2.loadCurveRuns, stats.loadCurveRuns);
    EXPECT_EQ(stats2.theveninRuns, stats.theveninRuns);
    EXPECT_EQ(stats2.nrcRuns, stats.nrcRuns);
    for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_NEAR(again[i].cluster.margin, reports[i].cluster.margin, 0.0);
    }

    std::size_t present = 0;
    for (const char* cellName : {"INV_X1", "INV_X2"}) {
        for (const bool level : {false, true}) {
            charlib::NrcSpec spec;
            spec.cell = &lib.cell(cellName);
            spec.input = spec.cell->inputNames().front();
            spec.quietLevel = level;
            for (const double w : grid) {
                const std::size_t hits = cache.stats().nrcHits;
                cache.nrcHeights(spec, {w});
                present += cache.stats().nrcHits - hits;
            }
        }
    }
    EXPECT_EQ(stats.nrcRuns, present);
    EXPECT_EQ(stats.nrcRuns, 10u);
}

}  // namespace
