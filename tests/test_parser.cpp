// Tests for the SPEF front-end.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/design_index.hpp"
#include "parser/spef_parser.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"

namespace {

using namespace sna;

const char* kSpef = R"(
*SPEF "IEEE 1481-1998"
*DESIGN "cluster0"
*T_UNIT 1 PS
*C_UNIT 1 FF
*R_UNIT 1 OHM

*D_NET victim 45.0
*CONN
*P vin I
*I u1:y O
*I u2:a I
*CAP
1 victim:1 15.0
2 victim:2 victim_2_agg 10.0 // coupling written as its own node pair
3 victim:2 aggr:2 20.0
*RES
1 victim:1 victim:2 62.5
2 victim:2 victim:3 62.5
*END

*D_NET aggr 30.0
*CONN
*I u3:y O
*CAP
1 aggr:1 30.0
*RES
1 aggr:1 aggr:2 125.0
*END
)";

TEST(SpefParser, ParsesNetsCapsRes) {
    const auto spef = parser::parseSpef(kSpef);
    EXPECT_EQ(spef.design(), "cluster0");
    ASSERT_EQ(spef.nets().size(), 2u);
    const auto& v = spef.net("victim");
    EXPECT_DOUBLE_EQ(v.totalCap, 45e-15);
    ASSERT_EQ(v.caps.size(), 3u);
    EXPECT_TRUE(v.caps[0].node2.empty());
    EXPECT_DOUBLE_EQ(v.caps[0].farads, 15e-15);
    EXPECT_DOUBLE_EQ(v.caps[2].farads, 20e-15);
    ASSERT_EQ(v.ress.size(), 2u);
    EXPECT_DOUBLE_EQ(v.ress[0].ohms, 62.5);
    ASSERT_EQ(v.conns.size(), 3u);
    EXPECT_EQ(v.conns[0].kind, parser::SpefConnKind::Port);
    EXPECT_EQ(v.conns[1].direction, 'O');
}

TEST(SpefParser, CouplingDiscoveryIsSymmetric) {
    const auto spef = parser::parseSpef(kSpef);
    const cell::CellLibrary lib(tech::tech130());
    const core::Design design(lib);  // no instances: coupling only
    const core::DesignIndex index(design, spef);
    // Discovery is symmetric even though the cap is listed under "victim".
    const auto& back = index.couplingOf("aggr");
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.begin()->first, "victim");
    EXPECT_DOUBLE_EQ(back.begin()->second, 20e-15);
    // "victim_2_agg" is a dangling coupling node (its owner is not a
    // declared net — SNA-L103's finding). The index keeps its cap; victim
    // selection never makes it an aggressor (see
    // DesignIndex.SelectionMatchesBruteForce).
    const auto& fwd = index.couplingOf("victim");
    ASSERT_EQ(fwd.size(), 2u);
    EXPECT_DOUBLE_EQ(fwd.at("aggr"), 20e-15);
    EXPECT_DOUBLE_EQ(fwd.at("victim_2_agg"), 10e-15);
}

TEST(SpefParser, UnitScalingPf) {
    const auto spef = parser::parseSpef(R"(
*C_UNIT 1 PF
*R_UNIT 1 KOHM
*D_NET n1 0.5
*CAP
1 n1:1 0.5
*RES
1 n1:1 n1:2 0.1
*END
)");
    EXPECT_DOUBLE_EQ(spef.net("n1").caps[0].farads, 0.5e-12);
    EXPECT_DOUBLE_EQ(spef.net("n1").ress[0].ohms, 100.0);
}

class SpefParserRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(SpefParserRejects, ThrowsParseError) {
    EXPECT_THROW(parser::parseSpef(GetParam()), ParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SpefParserRejects,
    ::testing::Values("*D_NET n1\n", "*D_NET n1 bogus\n",
                      "*D_NET a 1\n*CAP\n1 a:1\n*END\n",
                      "*D_NET a 1\n*RES\n1 a:1 5.0\n*END\n",
                      "1 a:1 a:2 5.0\n", "*C_UNIT 1 LIGHTYEAR\n",
                      "*D_NET a 1\n*D_NET a 1\n"));

// A SPEF with one section per name: a grounded cap each, no coupling.
std::string sectionsSpef(const std::vector<std::string>& names) {
    std::string text = "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"d\"\n";
    for (const std::string& n : names) {
        text += "*D_NET " + n + " 1.0\n*CAP\n1 " + n + ":1 1.0\n*END\n\n";
    }
    return text;
}

// The section-name digest ignores the order of the sections, and the
// index follows a re-extraction only when every added or removed section
// is named, even when an addition and a removal keep the count.
TEST(SpefParser, SectionDigestTracksNamedSections) {
    const auto abc = parser::parseSpef(sectionsSpef({"a", "b", "c"}));
    EXPECT_EQ(abc.sectionDigest(),
              parser::parseSpef(sectionsSpef({"c", "a", "b"})).sectionDigest());
    EXPECT_EQ(abc.sectionDigest(), parser::SpefFile::sectionHash("a") +
                                       parser::SpefFile::sectionHash("b") +
                                       parser::SpefFile::sectionHash("c"));

    const cell::CellLibrary lib(tech::tech130());
    const core::Design design(lib);
    core::DesignIndex index(design, abc);
    EXPECT_TRUE(index.sectionsFollow(abc, {}));
    EXPECT_TRUE(index.sectionsFollow(abc, {"b", "b", "z"}));

    const auto abd = parser::parseSpef(sectionsSpef({"a", "b", "d"}));
    EXPECT_FALSE(index.sectionsFollow(abd, {}));     // c gone, d new
    EXPECT_FALSE(index.sectionsFollow(abd, {"c"}));  // d unnamed
    EXPECT_TRUE(index.sectionsFollow(abd, {"c", "d"}));

    index.patchParasitics(abd, {"c", "d"});
    EXPECT_TRUE(index.sectionsFollow(abd, {}));
    EXPECT_FALSE(index.sectionsFollow(abc, {}));
}

TEST(SpefParser, UnknownNetThrowsModelError) {
    const auto spef = parser::parseSpef(kSpef);
    EXPECT_THROW(spef.net("nope"), ModelError);
}

}  // namespace
