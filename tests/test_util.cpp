// Unit tests for the util module: errors, strings, tables, units, rng, log.
#include <gtest/gtest.h>

#include <iostream>
#include <sstream>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace sna;

// ---------------------------------------------------------------- errors

TEST(Error, HierarchyIsCatchableAsBase) {
    EXPECT_THROW(throw ConvergenceError("x"), Error);
    EXPECT_THROW(throw ParseError("x"), Error);
    EXPECT_THROW(throw ModelError("x"), Error);
    EXPECT_THROW(throw LogicError("x"), Error);
}

TEST(Error, ParseErrorCarriesLine) {
    const ParseError e("bad token", 42);
    EXPECT_EQ(e.line(), 42);
    EXPECT_NE(std::string(e.what()).find("42"), std::string::npos);
}

TEST(Error, RequireThrowsLogicErrorWithContext) {
    try {
        SNA_REQUIRE(1 == 2, "math still works");
        FAIL() << "SNA_REQUIRE did not throw";
    } catch (const LogicError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("math still works"), std::string::npos);
        EXPECT_NE(what.find("1 == 2"), std::string::npos);
    }
}

// --------------------------------------------------------------- strings

TEST(Strings, TrimRemovesEdgesOnly) {
    EXPECT_EQ(str::trim("  a b  "), "a b");
    EXPECT_EQ(str::trim("\t\n x \r "), "x");
    EXPECT_EQ(str::trim(""), "");
    EXPECT_EQ(str::trim("   "), "");
}

TEST(Strings, SplitDropsEmptyTokens) {
    const auto t = str::split("  r1   n1\tn2  1k ");
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0], "r1");
    EXPECT_EQ(t[3], "1k");
}

TEST(Strings, CaseInsensitiveHelpers) {
    EXPECT_TRUE(str::iequals("NAND2_X1", "nand2_x1"));
    EXPECT_FALSE(str::iequals("a", "ab"));
    EXPECT_EQ(str::toLower("VDD!"), "vdd!");
}

struct SpiceNumberCase {
    const char* text;
    double expected;
};

class SpiceNumberParse : public ::testing::TestWithParam<SpiceNumberCase> {};

TEST_P(SpiceNumberParse, ParsesWithSuffix) {
    const auto& p = GetParam();
    const auto v = str::parseSpiceNumber(p.text);
    ASSERT_TRUE(v.has_value()) << p.text;
    EXPECT_NEAR(*v, p.expected, std::abs(p.expected) * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Suffixes, SpiceNumberParse,
    ::testing::Values(SpiceNumberCase{"1", 1.0}, SpiceNumberCase{"-2.5", -2.5},
                      SpiceNumberCase{"1k", 1e3}, SpiceNumberCase{"2.2K", 2.2e3},
                      SpiceNumberCase{"1meg", 1e6}, SpiceNumberCase{"3MEG", 3e6},
                      SpiceNumberCase{"1g", 1e9}, SpiceNumberCase{"1t", 1e12},
                      SpiceNumberCase{"5m", 5e-3}, SpiceNumberCase{"10u", 1e-5},
                      SpiceNumberCase{"7n", 7e-9}, SpiceNumberCase{"2p", 2e-12},
                      SpiceNumberCase{"40f", 40e-15},
                      SpiceNumberCase{"2.2kohm", 2.2e3},
                      SpiceNumberCase{"100fF", 100e-15},
                      SpiceNumberCase{"1e-12", 1e-12},
                      SpiceNumberCase{"1.5e3", 1500.0}));

TEST(Strings, ParseSpiceNumberRejectsGarbage) {
    EXPECT_FALSE(str::parseSpiceNumber("").has_value());
    EXPECT_FALSE(str::parseSpiceNumber("abc").has_value());
    EXPECT_FALSE(str::parseSpiceNumber("1.2.3z9").has_value());
    EXPECT_FALSE(str::parseSpiceNumber("1k2").has_value());
}

// ----------------------------------------------------------------- table

TEST(Table, FormatsAlignedColumns) {
    util::Table t({"Noise", "ELDO(sim)", "Err%"});
    t.addRow({"Peak (V)", util::Table::num(0.345), util::Table::pct(-0.22)});
    t.addRow({"Area (V*ps)", util::Table::num(174.3, 1), util::Table::pct(0.026)});
    const std::string s = t.str();
    EXPECT_NE(s.find("| Peak (V)"), std::string::npos);
    EXPECT_NE(s.find("-22.0"), std::string::npos);
    EXPECT_NE(s.find("+2.6"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
    // Every rendered line has the same width.
    std::size_t width = s.find('\n');
    for (std::size_t pos = 0; pos < s.size();) {
        const std::size_t next = s.find('\n', pos);
        EXPECT_EQ(next - pos, width);
        pos = next + 1;
    }
}

TEST(Table, RejectsAridityMismatch) {
    util::Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), LogicError);
}

// ----------------------------------------------------------------- units

TEST(Units, RoundTripConversions) {
    EXPECT_DOUBLE_EQ(500.0 * units::um, 5e-4);
    EXPECT_DOUBLE_EQ(40.0 * units::fF, 4e-14);
    EXPECT_DOUBLE_EQ(174.3 * units::volt_ps / units::ps, 174.3);
    // 0.25 ohm/um over 500 um = 125 ohms.
    EXPECT_NEAR(0.25 * units::ohm_per_um * (500 * units::um), 125.0, 1e-9);
    // 0.08 fF/um over 500 um = 40 fF.
    EXPECT_NEAR(0.08 * units::fF_per_um * (500 * units::um) / units::fF, 40.0,
                1e-9);
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances) {
    util::Rng a(123);
    util::Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
    }
}

TEST(Rng, RespectsBounds) {
    util::Rng r;
    for (int i = 0; i < 1000; ++i) {
        const double v = r.uniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
        const int k = r.uniformInt(1, 6);
        EXPECT_GE(k, 1);
        EXPECT_LE(k, 6);
    }
}

// ------------------------------------------------------------------- log

TEST(Log, PrintsAtOrAboveThresholdOnly) {
    std::ostringstream captured;
    std::streambuf* const saved = std::cerr.rdbuf(captured.rdbuf());
    const log::Level savedLevel = log::level();

    log::setLevel(log::Level::Info);
    EXPECT_FALSE(log::enabled(log::Level::Debug));
    EXPECT_TRUE(log::enabled(log::Level::Info));
    log::debug() << "hidden " << 1;
    log::info() << "shown " << 42 << ' ' << 1.5;
    log::warn() << "warned";
    log::setLevel(log::Level::Debug);
    log::debug() << "now " << "visible";
    log::setLevel(log::Level::Off);
    log::error() << "silenced";

    log::setLevel(savedLevel);
    std::cerr.rdbuf(saved);
    EXPECT_EQ(captured.str(),
              "[sna:info ] shown 42 1.5\n"
              "[sna:warn ] warned\n"
              "[sna:debug] now visible\n");
}

}  // namespace
