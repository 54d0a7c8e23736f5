/** @file Unit tests for the RelocationPlan IR (analysis/plan.hh). */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/plan.hh"

namespace memfwd
{
namespace
{

TEST(RelocationPlan, BuilderChainsAndReads)
{
    RelocationPlan plan("unit");
    plan.assume(AliasAssumption::roots_complete)
        .move(0x1000, 0x2000, 4)
        .move(0x3000, 0x4000, 2)
        .root(0x100, 0x1000)
        .access(7, 0x2000, 8, AccessIntent::unforwarded_write);

    EXPECT_EQ(plan.optimizer(), "unit");
    EXPECT_EQ(plan.assumption(), AliasAssumption::roots_complete);
    ASSERT_EQ(plan.moves().size(), 2u);
    EXPECT_EQ(plan.moves()[0].src, 0x1000u);
    EXPECT_EQ(plan.moves()[0].srcEnd(), 0x1000u + 4 * wordBytes);
    EXPECT_EQ(plan.moves()[1].dstEnd(), 0x4000u + 2 * wordBytes);
    ASSERT_EQ(plan.roots().size(), 1u);
    EXPECT_EQ(plan.roots()[0].slot, 0x100u);
    ASSERT_EQ(plan.sites().size(), 1u);
    EXPECT_EQ(plan.sites()[0].site, 7u);
    EXPECT_EQ(plan.sites()[0].end(), 0x2008u);
    EXPECT_EQ(plan.totalWords(), 6u);
}

TEST(RelocationPlan, DefaultsAreConservative)
{
    RelocationPlan plan;
    EXPECT_EQ(plan.assumption(), AliasAssumption::stale_pointers_possible);
    EXPECT_TRUE(plan.moves().empty());
    EXPECT_EQ(plan.totalWords(), 0u);
}

TEST(DiagCodes, NamesAreStable)
{
    // Documented in docs/ANALYSIS.md; append-only by contract.
    EXPECT_STREQ(diagCodeName(DiagCode::E001_move_self_overlap), "E001");
    EXPECT_STREQ(diagCodeName(DiagCode::E002_dest_clobbers_chain),
                 "E002");
    EXPECT_STREQ(diagCodeName(DiagCode::E003_dest_removed), "E003");
    EXPECT_STREQ(diagCodeName(DiagCode::E004_forwarding_cycle), "E004");
    EXPECT_STREQ(diagCodeName(DiagCode::E005_incomplete_roots), "E005");
    EXPECT_STREQ(diagCodeName(DiagCode::E006_unforwarded_unsafe), "E006");
    EXPECT_STREQ(diagCodeName(DiagCode::E007_misaligned_move), "E007");
    EXPECT_STREQ(diagCodeName(DiagCode::W101_duplicate_source), "W101");
    EXPECT_STREQ(diagCodeName(DiagCode::W102_empty_plan), "W102");
    EXPECT_STREQ(diagCodeName(DiagCode::W103_root_outside_plan), "W103");
    EXPECT_STREQ(diagCodeName(DiagCode::N201_site_demoted), "N201");
}

TEST(DiagCodes, SeverityFollowsPrefix)
{
    EXPECT_EQ(diagCodeSeverity(DiagCode::E004_forwarding_cycle),
              Severity::error);
    EXPECT_EQ(diagCodeSeverity(DiagCode::W102_empty_plan),
              Severity::warning);
    EXPECT_EQ(diagCodeSeverity(DiagCode::N201_site_demoted),
              Severity::note);
}

TEST(Diagnostic, JsonOmitsUnsetIndices)
{
    Diagnostic d{DiagCode::W102_empty_plan, Severity::warning,
                 no_plan_index, no_plan_index, "plan has no moves"};
    std::ostringstream os;
    d.toJson().write(os, 0);
    EXPECT_EQ(os.str().find("\"move\""), std::string::npos);
    EXPECT_NE(os.str().find("W102"), std::string::npos);
}

} // namespace
} // namespace memfwd
