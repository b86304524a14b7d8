// Design lint: every rule fires exactly once on its pathological fixture
// and stays silent on clean designs; waivers suppress by rule + object and
// report stale entries; the pipeline gate (off / warn / strict) leaves the
// analysis bit-identical in warn mode and throws before solving in strict.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "celllib/library.hpp"
#include "charlib/char_cache.hpp"
#include "core/design_index.hpp"
#include "core/incremental.hpp"
#include "core/sna.hpp"
#include "la/interp.hpp"
#include "lint/lint.hpp"
#include "parser/spef_parser.hpp"
#include "parser/waivers_parser.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"

namespace {

using namespace sna;

void inst(core::Design& design, const std::string& name,
          const std::string& cellName,
          std::map<std::string, std::string> pins) {
    core::Instance in;
    in.name = name;
    in.cellName = cellName;
    in.pinToNet = std::move(pins);
    design.addInstance(std::move(in));
}

std::string spefHeader() {
    return "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"lint\"\n"
           "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
}

/// One SPEF net section with a driver node, a receiver node, grounded caps,
/// and optionally one coupling cap from its internal node to `coupleTo`.
std::string spefNet(const std::string& net, const std::string& driverNode,
                    const std::string& receiverNode,
                    const std::string& coupleTo = "") {
    std::ostringstream os;
    os << "*D_NET " << net << " 6.5\n*CONN\n";
    os << "*I " << driverNode << " O\n*I " << receiverNode << " I\n";
    os << "*CAP\n";
    os << "1 " << driverNode << " 2.0\n";
    os << "2 " << net << ":1 3.0\n";
    os << "3 " << receiverNode << " 1.5\n";
    int capId = 4;
    if (!coupleTo.empty()) {
        os << capId++ << " " << net << ":1 " << coupleTo << ":1 4.0\n";
    }
    os << "*RES\n";
    os << "1 " << driverNode << " " << net << ":1 40\n";
    os << "2 " << net << ":1 " << receiverNode << " 40\n";
    os << "*END\n\n";
    return os.str();
}

/// The clean baseline: d0 drives n0 into r0's input. No coupling, no
/// windows, default library — every lint stage must stay silent.
struct CleanPair {
    cell::CellLibrary lib{tech::tech130()};
    core::Design design{lib};
    parser::SpefFile spef;

    CleanPair() : spef(parser::parseSpef(spefHeader() +
                                         spefNet("n0", "d0:y", "r0:a"))) {
        inst(design, "d0", "INV_X1", {{"a", "pi0"}, {"y", "n0"}});
        inst(design, "r0", "INV_X1", {{"a", "n0"}, {"y", "po0"}});
    }
};

// The 4-net coupled ring of test_design_index: the clean full-pipeline
// fixture for the bit-identity regression.
std::string ringSpef(int nets) {
    std::ostringstream os;
    os << spefHeader();
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
        inst(design, "d" + n, (i % 2 == 0) ? "INV_X1" : "INV_X2",
             {{"a", "pi" + n}, {"y", "n" + n}});
        inst(design, "r" + n, (i % 2 == 0) ? "INV_X2" : "INV_X1",
             {{"a", "n" + n}, {"y", "po" + n}});
    }
}

/// The single diagnostic of a report that must contain exactly one.
/// By value: the argument is usually a temporary.
lint::Diagnostic only(const lint::LintReport& r) {
    EXPECT_EQ(r.diagnostics.size(), 1u) << r.summary();
    return r.diagnostics.empty() ? lint::Diagnostic{} : r.diagnostics.front();
}

// ------------------------------------------------------------------- clean

TEST(Lint, CleanDesignIsSilent) {
    CleanPair f;
    const core::DesignIndex index(f.design, f.spef);
    const lint::LintReport r = lint::lintDesign(index, f.spef);
    EXPECT_TRUE(r.diagnostics.empty()) << r.summary();
    EXPECT_EQ(r.summary(), "lint: 0 errors, 0 warnings, 0 info");
}

TEST(Lint, CleanRingIsSilentIncludingDeepStage) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(2));
    core::Design design(lib);
    buildRingDesign(design, 2);
    const core::DesignIndex index(design, spef);
    lint::LintOptions opt;
    opt.characterization = true;  // really characterize and check monotone
    const lint::LintReport r = lint::lintDesign(index, spef, opt);
    EXPECT_TRUE(r.diagnostics.empty()) << r.summary();
}

TEST(Lint, CharacterizationStageServesTheAnalysisNrcPoints) {
    // The deep stage reads every receiver's NRC on the full canonical grid,
    // one point per width; an analysis on the same cache then reads a
    // subset of those points and bisects none.
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(4));
    core::Design design(lib);
    buildRingDesign(design, 4);
    const core::DesignIndex index(design, spef);
    charlib::CharCache cache;
    lint::LintOptions lopt;
    lopt.characterization = true;
    lopt.cache = &cache;
    lopt.loadCurveGrid = 9;
    const lint::LintReport r = lint::lintDesign(index, spef, lopt);
    EXPECT_TRUE(r.diagnostics.empty()) << r.summary();
    // INV_X1 and INV_X2 receivers at both quiet levels, every grid width.
    const std::size_t linted = cache.stats().nrcRuns;
    EXPECT_EQ(linted, 4 * lopt.nrc.grid().size());

    core::DesignNoiseOptions opt;
    opt.maxAggressors = 2;
    opt.report.searchAlignment = false;
    opt.report.macromodel.loadCurveGrid = 9;
    opt.cache = &cache;
    (void)core::analyzeDesign(design, spef, opt);
    EXPECT_EQ(cache.stats().nrcRuns, linted);
    EXPECT_GT(cache.stats().nrcHits, 0u);
}

// ------------------------------------------------- connectivity (SNA-L1xx)

TEST(Lint, L101UndrivenNetWithReceivers) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    inst(design, "r0", "INV_X1", {{"a", "n0"}, {"y", "po0"}});
    const auto spef = parser::parseSpef(spefHeader() +
                                        spefNet("n0", "d0:y", "r0:a"));
    const core::DesignIndex index(design, spef);
    const lint::Diagnostic d = only(lint::lintDesign(index, spef));
    EXPECT_EQ(d.rule, "SNA-L101");
    EXPECT_EQ(d.severity, lint::Severity::error);
    EXPECT_EQ(d.object, "n0");
}

TEST(Lint, L102DrivenNetWithoutReceivers) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    inst(design, "d0", "INV_X1", {{"a", "pi0"}, {"y", "n0"}});
    const auto spef = parser::parseSpef(spefHeader() +
                                        spefNet("n0", "d0:y", "r0:a"));
    const core::DesignIndex index(design, spef);
    const lint::Diagnostic d = only(lint::lintDesign(index, spef));
    EXPECT_EQ(d.rule, "SNA-L102");
    EXPECT_EQ(d.severity, lint::Severity::warning);
    EXPECT_EQ(d.object, "n0");
}

TEST(Lint, L103CouplingCapToUnknownOwner) {
    CleanPair f;
    const auto spef = parser::parseSpef(
        spefHeader() + spefNet("n0", "d0:y", "r0:a", "ghost"));
    const core::DesignIndex index(f.design, spef);
    const lint::Diagnostic d = only(lint::lintDesign(index, spef));
    EXPECT_EQ(d.rule, "SNA-L103");
    EXPECT_EQ(d.severity, lint::Severity::error);
    EXPECT_EQ(d.object, "ghost");
    EXPECT_NE(d.message.find("'n0'"), std::string::npos) << d.message;
}

TEST(Lint, L104PinBoundToNoNet) {
    CleanPair f;
    inst(f.design, "u0", "INV_X1", {{"a", "pi1"}, {"y", ""}});
    const core::DesignIndex index(f.design, f.spef);
    const lint::Diagnostic d = only(lint::lintDesign(index, f.spef));
    EXPECT_EQ(d.rule, "SNA-L104");
    EXPECT_EQ(d.severity, lint::Severity::error);
    EXPECT_EQ(d.object, "u0:y");
}

// ------------------------------------------------- graph health (SNA-L2xx)

TEST(Lint, L201BrokenCombinationalCycle) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    inst(design, "i1", "INV_X1", {{"a", "n2"}, {"y", "n1"}});
    inst(design, "i2", "INV_X1", {{"a", "n1"}, {"y", "n2"}});
    const auto spef = parser::parseSpef(spefHeader() +
                                        spefNet("n1", "i1:y", "i2:a", "n2") +
                                        spefNet("n2", "i2:y", "i1:a", "n1"));
    const core::DesignIndex index(design, spef);
    const lint::Diagnostic d = only(lint::lintDesign(index, spef));
    EXPECT_EQ(d.rule, "SNA-L201");
    EXPECT_EQ(d.severity, lint::Severity::warning);
    EXPECT_NE(d.object.find("->"), std::string::npos) << d.object;
}

TEST(Lint, L202MultiplyDrivenNet) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    inst(design, "d0", "INV_X1", {{"a", "pi0"}, {"y", "n0"}});
    inst(design, "d1", "INV_X2", {{"a", "pi1"}, {"y", "n0"}});
    inst(design, "r0", "INV_X1", {{"a", "n0"}, {"y", "po0"}});
    const auto spef = parser::parseSpef(spefHeader() +
                                        spefNet("n0", "d0:y", "r0:a"));
    const core::DesignIndex index(design, spef);
    const lint::Diagnostic d = only(lint::lintDesign(index, spef));
    EXPECT_EQ(d.rule, "SNA-L202");
    EXPECT_EQ(d.severity, lint::Severity::warning);
    EXPECT_EQ(d.object, "n0");
    EXPECT_NE(d.message.find("'d1'"), std::string::npos) << d.message;
}

// ------------------------------------------------------ windows (SNA-L3xx)

TEST(Lint, L301NanAndInvertedWindows) {
    CleanPair f;
    const core::DesignIndex index(f.design, f.spef);
    core::TimingWindows w;
    w.set("n0", {std::numeric_limits<double>::quiet_NaN(), 1e-12});
    lint::LintOptions opt;
    opt.windows = &w;
    {
        const lint::Diagnostic d = only(lint::lintDesign(index, f.spef, opt));
        EXPECT_EQ(d.rule, "SNA-L301");
        EXPECT_EQ(d.severity, lint::Severity::error);
        EXPECT_EQ(d.object, "n0");
        EXPECT_NE(d.message.find("NaN"), std::string::npos) << d.message;
    }
    core::TimingWindows inv;
    inv.set("n0", {5e-12, 1e-12});
    opt.windows = &inv;
    {
        const lint::Diagnostic d = only(lint::lintDesign(index, f.spef, opt));
        EXPECT_EQ(d.rule, "SNA-L301");
        EXPECT_NE(d.message.find("inverted"), std::string::npos) << d.message;
    }
}

TEST(Lint, L302WindowOnUnknownNet) {
    CleanPair f;
    const core::DesignIndex index(f.design, f.spef);
    core::TimingWindows w;
    w.set("ghost", {0.0, 100e-12});
    lint::LintOptions opt;
    opt.windows = &w;
    const lint::Diagnostic d = only(lint::lintDesign(index, f.spef, opt));
    EXPECT_EQ(d.rule, "SNA-L302");
    EXPECT_EQ(d.severity, lint::Severity::warning);
    EXPECT_EQ(d.object, "ghost");
}

TEST(Lint, L303WindowNarrowerThanFaninHull) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    // d0 -> n0 -> g1 -> n1 -> r1: n1's only fanin is n0 through g1, so its
    // hull is n0's window shifted by g1's characterized stage delay.
    inst(design, "d0", "INV_X1", {{"a", "pi0"}, {"y", "n0"}});
    inst(design, "g1", "INV_X1", {{"a", "n0"}, {"y", "n1"}});
    inst(design, "r1", "INV_X1", {{"a", "n1"}, {"y", "po1"}});
    const auto spef = parser::parseSpef(spefHeader() +
                                        spefNet("n0", "d0:y", "g1:a") +
                                        spefNet("n1", "g1:y", "r1:a"));
    const core::DesignIndex index(design, spef);
    core::TimingWindows w;
    w.set("n0", {0.0, 10e-12});
    // Far too tight: the hull's latest edge is at least n0's latest plus
    // g1's insertion delay, both strictly positive.
    w.set("n1", {0.0, 1e-15});
    lint::LintOptions opt;
    opt.windows = &w;
    const lint::Diagnostic d = only(lint::lintDesign(index, spef, opt));
    EXPECT_EQ(d.rule, "SNA-L303");
    EXPECT_EQ(d.severity, lint::Severity::info);
    EXPECT_EQ(d.object, "n1");
    EXPECT_NE(d.message.find("fanin hull"), std::string::npos) << d.message;
}

// ------------------------------------------------------ library (SNA-L4xx)

TEST(Lint, L401UncharacterizablePin) {
    const tech::Technology tech = tech::tech130();
    cell::CellLibrary lib(tech);
    // Constant-true logic: no holding vector pins the output low, and no
    // vector makes 'a' controlling — holdingVector throws for both levels.
    lib.addCell("TIE_HI",
                {{"a", cell::PinDir::Input}, {"y", cell::PinDir::Output}},
                {{"mp", spice::MosType::Pmos, "y", "a", "vdd", "vdd",
                  tech.wpUnit, tech.lmin}},
                [](const std::vector<bool>&) { return true; });
    core::Design design(lib);
    inst(design, "d0", "INV_X1", {{"a", "pi0"}, {"y", "n0"}});
    inst(design, "u0", "TIE_HI", {{"a", "n0"}, {"y", "po0"}});
    const auto spef = parser::parseSpef(spefHeader() +
                                        spefNet("n0", "d0:y", "u0:a"));
    const core::DesignIndex index(design, spef);
    const lint::Diagnostic d = only(lint::lintDesign(index, spef));
    EXPECT_EQ(d.rule, "SNA-L401");
    EXPECT_EQ(d.severity, lint::Severity::error);
    EXPECT_EQ(d.object, "TIE_HI:a");
}

TEST(Lint, AddCellRejectsDuplicateNames) {
    cell::CellLibrary lib(tech::tech130());
    EXPECT_THROW(lib.addCell("INV_X1", {}, {}, nullptr), ModelError);
}

TEST(Lint, L402NonMonotoneLoadCurve) {
    // I_sink must be non-decreasing in v_out (second axis) at fixed v_in.
    const la::Grid2d broken({0.0, 1.0}, {0.0, 0.5, 1.0},
                            {0.0, 1e-3, 2e-3,    // v_in = 0: monotone
                             0.0, 2e-3, 1e-3});  // v_in = 1: drops
    const auto d = lint::checkLoadCurveMonotone(broken, "BAD_X1:a");
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->rule, "SNA-L402");
    EXPECT_EQ(d->severity, lint::Severity::warning);
    EXPECT_EQ(d->object, "BAD_X1:a");

    const la::Grid2d fine({0.0, 1.0}, {0.0, 0.5, 1.0},
                          {0.0, 1e-3, 2e-3, 0.0, 1e-3, 2e-3});
    EXPECT_FALSE(lint::checkLoadCurveMonotone(fine, "OK").has_value());
    // Solver noise below tolerance is not a finding.
    const la::Grid2d noisy({0.0, 1.0}, {0.0, 0.5, 1.0},
                           {1e-3, 1e-3 - 1e-12, 2e-3,
                            1e-3, 1e-3 - 1e-12, 2e-3});
    EXPECT_FALSE(lint::checkLoadCurveMonotone(noisy, "OK").has_value());
}

TEST(Lint, L402NonMonotoneNrc) {
    // The failing height must be non-increasing in width.
    const la::Grid1d broken({20e-12, 40e-12, 80e-12}, {0.9, 0.7, 0.8});
    const auto d = lint::checkNrcMonotone(broken, "BAD_X1");
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->rule, "SNA-L402");
    EXPECT_EQ(d->severity, lint::Severity::warning);
    EXPECT_EQ(d->object, "BAD_X1");

    const la::Grid1d fine({20e-12, 40e-12, 80e-12}, {0.9, 0.8, 0.8});
    EXPECT_FALSE(lint::checkNrcMonotone(fine, "OK").has_value());
    const la::Grid1d noisy({20e-12, 40e-12}, {0.8, 0.8 + 1e-7});
    EXPECT_FALSE(lint::checkNrcMonotone(noisy, "OK").has_value());
}

TEST(Lint, L403NrcGridCoverageAndValidity) {
    CleanPair f;
    const core::DesignIndex index(f.design, f.spef);
    lint::LintOptions opt;
    opt.nrc.widthMin = 100e-12;  // canonical widths start at 60 ps
    {
        const lint::Diagnostic d = only(lint::lintDesign(index, f.spef, opt));
        EXPECT_EQ(d.rule, "SNA-L403");
        EXPECT_EQ(d.severity, lint::Severity::warning);
        EXPECT_EQ(d.object, "nrc-width-grid");
    }
    opt.nrc = core::NrcOptions{};
    opt.nrc.growth = 1.0;  // invalid: grid() itself throws
    {
        const lint::Diagnostic d = only(lint::lintDesign(index, f.spef, opt));
        EXPECT_EQ(d.rule, "SNA-L403");
        EXPECT_EQ(d.severity, lint::Severity::error);
    }
    opt.nrc = core::NrcOptions{};
    opt.nrc.widthMin = 2e-9;  // single point below widthLimit
    opt.nrc.widthLimit = 2.1e-9;
    {
        const lint::Diagnostic d = only(lint::lintDesign(index, f.spef, opt));
        EXPECT_EQ(d.rule, "SNA-L403");
        EXPECT_EQ(d.severity, lint::Severity::error);
        EXPECT_NE(d.message.find("fewer than two"), std::string::npos);
    }
}

// -------------------------------------------------------- delta (SNA-L5xx)

TEST(Lint, L501L502DeltaNamesUnknownObjects) {
    CleanPair f;
    core::DesignDelta delta;
    delta.nets = {"nope", "nope"};  // duplicates report once
    delta.instances = {"ghost"};
    const lint::LintReport r = lint::lintDelta(f.design, f.spef, delta);
    ASSERT_EQ(r.diagnostics.size(), 2u) << r.summary();
    EXPECT_EQ(r.diagnostics[0].rule, "SNA-L501");
    EXPECT_EQ(r.diagnostics[0].object, "nope");
    EXPECT_EQ(r.diagnostics[1].rule, "SNA-L502");
    EXPECT_EQ(r.diagnostics[1].object, "ghost");
    EXPECT_EQ(r.errors(), 2u);

    core::DesignDelta ok;
    ok.nets = {"n0", "pi0"};  // SPEF net and design-only net both resolve
    ok.instances = {"r0"};
    EXPECT_TRUE(lint::lintDelta(f.design, f.spef, ok).diagnostics.empty());
}

TEST(Lint, IncrementalStrictModeGatesOnDeltaTypos) {
    CleanPair f;
    core::DesignDelta delta;
    delta.nets = {"typo_net"};
    core::AnalysisSnapshot snapshot;  // invalid: would fall back to full run
    core::DesignNoiseOptions opt;
    opt.lint = lint::Mode::strict;
    try {
        (void)core::analyzeDesignIncremental(f.design, f.spef, delta,
                                             snapshot, opt);
        FAIL() << "expected lint::LintError";
    } catch (const lint::LintError& e) {
        ASSERT_EQ(e.report().diagnostics.size(), 1u);
        EXPECT_EQ(e.report().diagnostics.front().rule, "SNA-L501");
    }
    EXPECT_FALSE(snapshot.valid);  // thrown before the snapshot was touched
}

// ------------------------------------------------------------------ waivers

TEST(Waivers, ParseFormatAndErrors) {
    const auto ws = parser::parseWaivers(
        "# comment\n"
        "// also a comment\n"
        "\n"
        "SNA-L202 clk_mux_out   # trailing comment\n"
        "SNA-L103\n");
    ASSERT_EQ(ws.size(), 2u);
    EXPECT_EQ(ws[0].rule, "SNA-L202");
    EXPECT_EQ(ws[0].object, "clk_mux_out");
    EXPECT_EQ(ws[0].line, 4);
    EXPECT_EQ(ws[1].rule, "SNA-L103");
    EXPECT_EQ(ws[1].object, "*");

    EXPECT_THROW(parser::parseWaivers("not-a-rule x\n"), ParseError);
    EXPECT_THROW(parser::parseWaivers("SNA-L101 a b\n"), ParseError);
    try {
        parser::parseWaivers("SNA-L101 ok\nbogus\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 2);
    }
}

TEST(Waivers, ApplyByRuleAndObjectReportsUnused) {
    lint::LintReport r;
    lint::Diagnostic d;
    d.rule = "SNA-L202";
    d.severity = lint::Severity::warning;
    d.object = "n0";
    r.diagnostics = {d, d};
    r.diagnostics[1].object = "n1";

    const auto waivers = parser::parseWaivers(
        "SNA-L202 n0\n"          // matches diagnostics[0]
        "SNA-L101 n0\n"          // wrong rule: unused
        "SNA-L202 elsewhere\n"); // wrong object: unused
    const auto unused = lint::applyWaivers(r, waivers);
    EXPECT_TRUE(r.diagnostics[0].waived);
    EXPECT_FALSE(r.diagnostics[1].waived);
    EXPECT_EQ(r.warnings(), 1u);
    EXPECT_EQ(r.waivedCount(), 1u);
    ASSERT_EQ(unused.size(), 2u);
    EXPECT_EQ(unused[0].rule, "SNA-L101");
    EXPECT_EQ(unused[1].object, "elsewhere");

    // '*' matches every object of the rule.
    lint::LintReport r2;
    r2.diagnostics = {d, d};
    r2.diagnostics[1].object = "n1";
    const auto unused2 =
        lint::applyWaivers(r2, parser::parseWaivers("SNA-L202\n"));
    EXPECT_TRUE(unused2.empty());
    EXPECT_EQ(r2.waivedCount(), 2u);
    EXPECT_EQ(r2.warnings(), 0u);
}

// ------------------------------------------------------------ pipeline gate

TEST(LintGate, StrictThrowsBeforeSolvingAndWaiversUnblock) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    inst(design, "r0", "INV_X1", {{"a", "n0"}, {"y", "po0"}});  // no driver
    const auto spef = parser::parseSpef(spefHeader() +
                                        spefNet("n0", "d0:y", "r0:a"));
    core::DesignNoiseOptions opt;
    opt.lint = lint::Mode::strict;
    lint::LintReport out;
    opt.lintOut = &out;
    try {
        (void)core::analyzeDesign(design, spef, opt);
        FAIL() << "expected lint::LintError";
    } catch (const lint::LintError& e) {
        ASSERT_EQ(e.report().diagnostics.size(), 1u);
        EXPECT_EQ(e.report().diagnostics.front().rule, "SNA-L101");
        EXPECT_NE(std::string(e.what()).find("SNA-L101"), std::string::npos);
    }
    // lintOut is filled even on the throwing path.
    ASSERT_EQ(out.diagnostics.size(), 1u);

    const auto waivers = parser::parseWaivers("SNA-L101 n0\n");
    opt.lintWaivers = &waivers;
    const auto reports = core::analyzeDesign(design, spef, opt);  // no throw
    EXPECT_TRUE(reports.empty());  // the undriven net is not analyzable
    ASSERT_EQ(out.diagnostics.size(), 1u);
    EXPECT_TRUE(out.diagnostics.front().waived);
    EXPECT_FALSE(out.hasErrors());
}

TEST(LintGate, WarnModeIsBitIdenticalToOff) {
    const cell::CellLibrary lib(tech::tech130());
    const auto spef = parser::parseSpef(ringSpef(4));
    core::Design design(lib);
    buildRingDesign(design, 4);

    for (const bool propagate : {false, true}) {
        for (const int threads : {1, 4}) {
            core::DesignNoiseOptions off;
            off.threads = threads;
            off.propagate = propagate;
            const auto base = core::analyzeDesign(design, spef, off);

            core::DesignNoiseOptions warn = off;
            warn.lint = lint::Mode::warn;
            lint::LintReport out;
            warn.lintOut = &out;
            const auto checked = core::analyzeDesign(design, spef, warn);

            EXPECT_TRUE(out.diagnostics.empty()) << out.summary();
            ASSERT_EQ(checked.size(), base.size());
            for (std::size_t i = 0; i < base.size(); ++i) {
                EXPECT_EQ(checked[i].net, base[i].net);
                EXPECT_EQ(checked[i].aggressorNets, base[i].aggressorNets);
                // Bitwise equality, not EXPECT_NEAR: warn mode must not
                // perturb a single bit of the analysis.
                EXPECT_EQ(checked[i].cluster.margin, base[i].cluster.margin)
                    << "net " << base[i].net << " propagate=" << propagate
                    << " threads=" << threads;
                EXPECT_EQ(checked[i].cluster.fails, base[i].cluster.fails);
            }
        }
    }
}

TEST(LintGate, SnapshotCarriesWaiverAppliedDiagnostics) {
    const cell::CellLibrary lib(tech::tech130());
    core::Design design(lib);
    inst(design, "d0", "INV_X1", {{"a", "pi0"}, {"y", "n0"}});  // no receiver
    const auto spef = parser::parseSpef(spefHeader() +
                                        spefNet("n0", "d0:y", "r0:a"));
    core::AnalysisSnapshot snapshot;
    core::DesignNoiseOptions opt;
    opt.lint = lint::Mode::warn;
    opt.snapshot = &snapshot;
    (void)core::analyzeDesign(design, spef, opt);
    ASSERT_EQ(snapshot.lint.size(), 1u);
    EXPECT_EQ(snapshot.lint.front().rule, "SNA-L102");
}

}  // namespace
