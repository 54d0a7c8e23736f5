/**
 * @file
 * InterferenceAnalyzer unit tests: the pairwise verdict matrix
 * (commute / ordered / conflict) and one test per interference
 * diagnostic code (E101-E104, W201, W202).
 */

#include <gtest/gtest.h>

#include "analysis/interference.hh"

using namespace memfwd;

namespace
{

RelocationPlan
movePlan(const char *name, Addr src, Addr dst, unsigned n_words)
{
    RelocationPlan p(name);
    p.assume(AliasAssumption::stale_pointers_possible)
        .move(src, dst, n_words);
    return p;
}

} // namespace

// ----- pairwise verdicts ---------------------------------------------

TEST(Interference, DisjointPlansCommute)
{
    const RelocationPlan a = movePlan("a", 0x1000, 0x2000, 8);
    const RelocationPlan b = movePlan("b", 0x3000, 0x4000, 8);

    const PairFinding f = InterferenceAnalyzer().analyzePair(a, b);
    EXPECT_EQ(f.verdict, InterferenceVerdict::commute);
    EXPECT_TRUE(f.diags.empty());
    EXPECT_EQ(f.first, no_plan_index);
    EXPECT_EQ(f.second, no_plan_index);
}

TEST(Interference, SharedSourceIsE101Conflict)
{
    // Both plans chase the chain rooted at 0x1000 and append their own
    // target at whatever tail they find: the appends race.
    const RelocationPlan a = movePlan("a", 0x1000, 0x2000, 4);
    const RelocationPlan b = movePlan("b", 0x1000, 0x3000, 4);

    const PairFinding f = InterferenceAnalyzer().analyzePair(a, b);
    EXPECT_EQ(f.verdict, InterferenceVerdict::conflict);
    EXPECT_TRUE(f.hasCode(DiagCode::E101_shared_move_source));
}

TEST(Interference, SharedDestIsE102Conflict)
{
    const RelocationPlan a = movePlan("a", 0x1000, 0x5000, 4);
    const RelocationPlan b = movePlan("b", 0x3000, 0x5010, 4);

    const PairFinding f = InterferenceAnalyzer().analyzePair(a, b);
    EXPECT_EQ(f.verdict, InterferenceVerdict::conflict);
    EXPECT_TRUE(f.hasCode(DiagCode::E102_shared_move_dest));
}

TEST(Interference, DestDrainIsOrderedAFirst)
{
    // b relocates words out of a's destination: a must fully commit
    // first so b drains the final home, not a stale snapshot.
    const RelocationPlan a = movePlan("a", 0x1000, 0x2000, 4);
    const RelocationPlan b = movePlan("b", 0x2000, 0x3000, 4);

    const PairFinding f = InterferenceAnalyzer().analyzePair(a, b, 0, 1);
    EXPECT_EQ(f.verdict, InterferenceVerdict::ordered);
    EXPECT_TRUE(f.hasCode(DiagCode::W201_ordered_dest_drain));
    EXPECT_EQ(f.first, 0u);
    EXPECT_EQ(f.second, 1u);
}

TEST(Interference, DestDrainIsOrderedBFirst)
{
    // The mirror image: a drains b's destination, so b runs first.
    const RelocationPlan a = movePlan("a", 0x2000, 0x3000, 4);
    const RelocationPlan b = movePlan("b", 0x1000, 0x2000, 4);

    const PairFinding f = InterferenceAnalyzer().analyzePair(a, b, 0, 1);
    EXPECT_EQ(f.verdict, InterferenceVerdict::ordered);
    EXPECT_EQ(f.first, 1u);
    EXPECT_EQ(f.second, 0u);
}

TEST(Interference, MutualDrainIsE103Conflict)
{
    // Each plan drains the other's destination: the required
    // happens-before edges form a cycle, so no serialization works.
    // (This is also the minimal composed forwarding cycle a->b->a.)
    const RelocationPlan a = movePlan("a", 0x1000, 0x2000, 2);
    const RelocationPlan b = movePlan("b", 0x2000, 0x1000, 2);

    const PairFinding f = InterferenceAnalyzer().analyzePair(a, b);
    EXPECT_EQ(f.verdict, InterferenceVerdict::conflict);
    EXPECT_TRUE(f.hasCode(DiagCode::E103_composed_cycle));
    // The cycle is reported exactly once.
    unsigned e103 = 0;
    for (const Diagnostic &d : f.diags)
        e103 += d.code == DiagCode::E103_composed_cycle;
    EXPECT_EQ(e103, 1u);
}

TEST(Interference, CrossPlanSiteIsE104Conflict)
{
    // a's raw read site is proven against a's own moves, but b plants
    // forwarding words under it: the proof dies under composition.
    RelocationPlan a = movePlan("a", 0x1000, 0x2000, 4);
    a.access(SiteId(7), 0x3000, 4 * wordBytes,
             AccessIntent::unforwarded_read);
    const RelocationPlan b = movePlan("b", 0x3000, 0x4000, 4);

    const PairFinding f = InterferenceAnalyzer().analyzePair(a, b);
    EXPECT_EQ(f.verdict, InterferenceVerdict::conflict);
    EXPECT_TRUE(f.hasCode(DiagCode::E104_site_invalidated));
}

TEST(Interference, ForwardedSiteNeverInterferes)
{
    // An ordinary forwarded access is always legal: no E104.
    RelocationPlan a = movePlan("a", 0x1000, 0x2000, 4);
    a.access(SiteId(7), 0x3000, 4 * wordBytes, AccessIntent::forwarded);
    const RelocationPlan b = movePlan("b", 0x3000, 0x4000, 4);

    const PairFinding f = InterferenceAnalyzer().analyzePair(a, b);
    EXPECT_EQ(f.verdict, InterferenceVerdict::commute);
}

TEST(Interference, SharedRootSlotIsW202Ordered)
{
    RelocationPlan a = movePlan("a", 0x1000, 0x2000, 2);
    a.root(0x100, 0x1000);
    RelocationPlan b = movePlan("b", 0x3000, 0x4000, 2);
    b.root(0x100, 0x3000);

    const PairFinding f = InterferenceAnalyzer().analyzePair(a, b, 0, 1);
    EXPECT_EQ(f.verdict, InterferenceVerdict::ordered);
    EXPECT_TRUE(f.hasCode(DiagCode::W202_shared_root_slot));
    // Pure W202 defaults to submission order.
    EXPECT_EQ(f.first, 0u);
    EXPECT_EQ(f.second, 1u);
}

TEST(Interference, InterferenceCodesAreSeverityTyped)
{
    EXPECT_EQ(diagCodeSeverity(DiagCode::E101_shared_move_source),
              Severity::error);
    EXPECT_EQ(diagCodeSeverity(DiagCode::E102_shared_move_dest),
              Severity::error);
    EXPECT_EQ(diagCodeSeverity(DiagCode::E103_composed_cycle),
              Severity::error);
    EXPECT_EQ(diagCodeSeverity(DiagCode::E104_site_invalidated),
              Severity::error);
    EXPECT_EQ(diagCodeSeverity(DiagCode::W201_ordered_dest_drain),
              Severity::warning);
    EXPECT_EQ(diagCodeSeverity(DiagCode::W202_shared_root_slot),
              Severity::warning);
    EXPECT_STREQ(diagCodeName(DiagCode::E101_shared_move_source), "E101");
    EXPECT_STREQ(diagCodeName(DiagCode::W202_shared_root_slot), "W202");
}

// ----- the full matrix -----------------------------------------------

TEST(Interference, MatrixCoversEveryUnorderedPair)
{
    std::vector<RelocationPlan> plans;
    plans.push_back(movePlan("p0", 0x1000, 0x2000, 4));
    plans.push_back(movePlan("p1", 0x3000, 0x4000, 4)); // commutes w/ p0
    plans.push_back(movePlan("p2", 0x2000, 0x5000, 4)); // drains p0's dst

    const InterferenceReport r = InterferenceAnalyzer().analyze(plans);
    EXPECT_EQ(r.plans(), 3u);
    EXPECT_EQ(r.pairs().size(), 3u);
    EXPECT_EQ(r.count(InterferenceVerdict::commute), 2u);
    EXPECT_EQ(r.count(InterferenceVerdict::ordered), 1u);
    EXPECT_FALSE(r.allCommute());

    const PairFinding *f = r.pair(0, 2);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->verdict, InterferenceVerdict::ordered);
    EXPECT_EQ(f->first, 0u);
    // Lookup is order-insensitive.
    EXPECT_EQ(r.pair(2, 0), f);
    EXPECT_EQ(r.pair(0, 3), nullptr);
}

TEST(Interference, AmbientSiteOverlapIsReported)
{
    std::vector<RelocationPlan> plans;
    plans.push_back(movePlan("p0", 0x1000, 0x2000, 4));

    AccessSite site;
    site.site = SiteId(3);
    site.base = 0x1008;
    site.bytes = wordBytes;
    site.intent = AccessIntent::unforwarded_write;

    const InterferenceReport r =
        InterferenceAnalyzer().analyze(plans, {site});
    ASSERT_EQ(r.siteDiagnostics().size(), 1u);
    EXPECT_EQ(r.siteDiagnostics()[0].code,
              DiagCode::E104_site_invalidated);
    EXPECT_TRUE(r.allCommute()); // ambient findings are not pair findings
}

TEST(Interference, ReportJsonRoundsTheMatrix)
{
    std::vector<RelocationPlan> plans;
    plans.push_back(movePlan("p0", 0x1000, 0x2000, 4));
    plans.push_back(movePlan("p1", 0x2000, 0x3000, 4));

    obs::Json j = InterferenceAnalyzer().analyze(plans).toJson();
    EXPECT_EQ(j["plans"].asU64(), 2u);
    EXPECT_EQ(j["ordered"].asU64(), 1u);
    obs::Json pair = j["pairs"].items().at(0);
    EXPECT_EQ(pair["verdict"].asString(), "ordered");
    EXPECT_EQ(pair["first"].asU64(), 0u);
    EXPECT_EQ(pair["second"].asU64(), 1u);
}
