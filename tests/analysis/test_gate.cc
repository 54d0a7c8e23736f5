/** @file Unit tests for the AnalysisGate and enforce-mode cross-checks. */

#include <gtest/gtest.h>

#include "analysis/gate.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"

namespace memfwd
{
namespace
{

TEST(AnalysisGate, RejectsBadPlanBeforeAnyWordMoves)
{
    AnalysisGate gate(AnalyzeMode::plan);
    RelocationPlan bad("bad");
    bad.move(0x1000, 0x1010, 4); // E001
    EXPECT_THROW(gate.submit(bad), PlanRejected);
    EXPECT_EQ(gate.stats().plans_rejected, 1u);
    EXPECT_EQ(gate.activePlans(), 0u); // a rejected plan never activates
}

TEST(AnalysisGate, PlanRejectedCarriesTheDiagnostics)
{
    AnalysisGate gate(AnalyzeMode::plan);
    RelocationPlan bad("who");
    bad.move(0x1000, 0x2000, 2).move(0x2000, 0x1000, 2); // E004 (+E003)
    try {
        gate.submit(bad);
        FAIL() << "expected PlanRejected";
    } catch (const PlanRejected &e) {
        EXPECT_EQ(e.optimizer(), "who");
        EXPECT_FALSE(e.diagnostics().empty());
        bool cycle = false;
        for (const Diagnostic &d : e.diagnostics())
            cycle = cycle || d.code == DiagCode::E004_forwarding_cycle;
        EXPECT_TRUE(cycle);
    }
}

TEST(AnalysisGate, KeepGoingRecordsInsteadOfThrowing)
{
    AnalysisGate gate(AnalyzeMode::plan);
    gate.setKeepGoing(true);
    gate.setRetainReports(true);
    RelocationPlan bad("lint");
    bad.move(0x1000, 0x1010, 4);
    EXPECT_NO_THROW(gate.submit(bad));
    EXPECT_EQ(gate.stats().plans_rejected, 1u);
    ASSERT_EQ(gate.reports().size(), 1u);
    EXPECT_TRUE(
        gate.reports()[0].hasCode(DiagCode::E001_move_self_overlap));
    gate.planDone();
}

TEST(AnalysisGate, SiteApprovalTracksActivePlan)
{
    AnalysisGate gate(AnalyzeMode::plan);
    RelocationPlan plan("sites");
    plan.move(0x1000, 0x9000, 4).access(
        77, 0x9000, wordBytes, AccessIntent::unforwarded_write);
    gate.submit(plan);
    EXPECT_TRUE(gate.siteApproved(77));
    EXPECT_FALSE(gate.siteApproved(78));
    gate.planDone();
    EXPECT_FALSE(gate.siteApproved(77)); // approval dies with the plan
}

TEST(AnalysisGate, SharedSiteIdNeedsEverySiteProven)
{
    AnalysisGate gate(AnalyzeMode::plan);
    RelocationPlan plan("shared");
    plan.move(0x1000, 0x9000, 1)
        .access(9, 0x9000, wordBytes, AccessIntent::unforwarded_read)
        // Same token over an unprovable range: the token must demote.
        .access(9, 0x5000, wordBytes, AccessIntent::unforwarded_read);
    gate.submit(plan);
    EXPECT_FALSE(gate.siteApproved(9));
    gate.planDone();
}

TEST(PlanScope, NullGateIsInert)
{
    RelocationPlan plan("inert");
    plan.move(0x1000, 0x1010, 4); // would be rejected if analyzed
    PlanScope scope(nullptr, plan);
    EXPECT_FALSE(scope.approved(1));
}

// ----- enforce mode ----------------------------------------------------

TEST(Enforcement, CleanRawAccessesAreAlwaysLegal)
{
    Machine m;
    AnalysisGate gate(AnalyzeMode::enforce);
    m.setAnalysisGate(&gate);
    m.access(Access::store(0x1000, 8, 42));
    EXPECT_EQ(m.access(Access::unforwardedRead(0x1000)).value, 42u);
    EXPECT_NO_THROW(m.access(Access::unforwardedWrite(0x1000, 43, false)));
    EXPECT_EQ(gate.stats().enforce_checks, 2u);
    EXPECT_EQ(gate.stats().enforce_violations, 0u);
}

TEST(Enforcement, RawReadOfLiveForwardingWordOutsidePlanThrows)
{
    Machine m;
    AnalysisGate gate(AnalyzeMode::enforce);
    m.setAnalysisGate(&gate);
    m.access(Access::store(0x1000, 8, 42));
    relocate(m, 0x1000, 0x9000, 1); // 0x1000 now forwards
    EXPECT_THROW(m.access(Access::unforwardedRead(0x1000)).value, EnforcementError);
    EXPECT_EQ(gate.stats().enforce_violations, 1u);
}

TEST(Enforcement, InstallingAnUndeclaredForwardingWordThrows)
{
    Machine m;
    AnalysisGate gate(AnalyzeMode::enforce);
    m.setAnalysisGate(&gate);
    // A raw write that flips a clean word into a forwarding word the
    // analyzer never saw: the classic hand-rolled-relocation bug.
    EXPECT_THROW(m.access(Access::unforwardedWrite(0x2000, 0x9000, true)),
                 EnforcementError);
}

TEST(Enforcement, HandForgedBadPlanIsCaughtWhenStaticAnalysisBypassed)
{
    // Satellite requirement: bypass the static rejection (keep-going is
    // exactly that bypass — the plan is recorded as rejected but still
    // activates) and prove the *dynamic* cross-check still catches the
    // forged execution.
    Machine m;
    AnalysisGate gate(AnalyzeMode::enforce);
    gate.setKeepGoing(true);
    m.setAnalysisGate(&gate);

    m.access(Access::store(0x1000, 8, 7));
    relocate(m, 0x1000, 0x9000, 1); // legal; 0x1000 is a live fwd word

    // The forged plan claims it only touches [0x4000,...), hiding the
    // write it actually performs to the live forwarding word at 0x1000.
    RelocationPlan forged("forged");
    forged.assume(AliasAssumption::roots_complete)
        .move(0x4000, 0x5000, 1); // E005: no roots declared
    gate.submit(forged);
    EXPECT_EQ(gate.stats().plans_rejected, 1u);

    // Execute what the plan hid: clobber the live chain raw.
    EXPECT_THROW(m.access(Access::unforwardedWrite(0x1000, 0xdead, false)),
                 EnforcementError);
    EXPECT_GE(gate.stats().enforce_violations, 1u);
    gate.planDone();
}

TEST(Enforcement, ActivePlanSourceRangesAndAnnotationsAreLegal)
{
    Machine m;
    AnalysisGate gate(AnalyzeMode::enforce);
    m.setAnalysisGate(&gate);
    m.access(Access::store(0x1000, 8, 7));
    relocate(m, 0x1000, 0x9000, 1);

    // Inside a plan whose source range covers the word: legal.
    RelocationPlan plan("cover");
    plan.move(0x1000, 0xa000, 1);
    {
        PlanScope scope(&gate, plan);
        EXPECT_NO_THROW(m.access(Access::unforwardedRead(0x1000)).value);
    }
    // Outside again: illegal...
    EXPECT_THROW(m.access(Access::unforwardedRead(0x1000)).value, EnforcementError);
    // ...unless annotated as hand-proven.
    {
        ScopedUnforwardedAnnotation ok(&gate);
        EXPECT_NO_THROW(m.access(Access::unforwardedRead(0x1000)).value);
    }
}

TEST(Enforcement, OptimizersRunCleanUnderEnforce)
{
    // relocate() submits its own micro-plan when invoked directly, so a
    // whole legal relocation sequence runs with zero violations.
    Machine m;
    AnalysisGate gate(AnalyzeMode::enforce);
    m.setAnalysisGate(&gate);
    for (unsigned w = 0; w < 4; ++w)
        m.access(Access::store(0x1000 + w * 8, 8, 100 + w));
    relocate(m, 0x1000, 0x9000, 4);
    relocate(m, 0x9000, 0xa000, 4); // chain append through the tails
    EXPECT_EQ(gate.stats().plans_submitted, 2u);
    EXPECT_EQ(gate.stats().plans_verified, 2u);
    EXPECT_EQ(gate.stats().enforce_violations, 0u);
    EXPECT_EQ(m.access(Access::load(0x1000, 8)).value, 100u); // stale read still resolves
}

TEST(Enforcement, MetricsExposeTheGateCounters)
{
    Machine m;
    AnalysisGate gate(AnalyzeMode::enforce);
    m.setAnalysisGate(&gate);
    m.access(Access::store(0x1000, 8, 1));
    relocate(m, 0x1000, 0x9000, 1);

    const obs::MetricsNode metrics = m.metrics();
    EXPECT_EQ(metrics.counterAt("analysis.plans_verified"), 1u);
    EXPECT_EQ(metrics.counterAt("analysis.diagnostics.error"), 0u);
}

TEST(Enforcement, PlanTraceEventIsEmitted)
{
    Machine m;
    AnalysisGate gate(AnalyzeMode::plan);
    m.setAnalysisGate(&gate);
    obs::RingBufferSink sink;
    m.tracer().addSink(&sink);
    m.access(Access::store(0x1000, 8, 1));
    relocate(m, 0x1000, 0x9000, 1);
    bool saw_plan = false;
    for (const obs::TraceEvent &ev : sink.events())
        saw_plan = saw_plan || ev.kind == obs::EventKind::plan;
    EXPECT_TRUE(saw_plan);
    m.tracer().removeSink(&sink);
}

} // namespace
} // namespace memfwd
