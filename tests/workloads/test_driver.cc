/** @file Unit tests for the experiment driver. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "workloads/driver.hh"

namespace memfwd
{
namespace
{

RunConfig
tinyConfig(const std::string &wl)
{
    RunConfig cfg;
    cfg.workload = wl;
    cfg.params.scale = 0.05;
    return cfg;
}

TEST(Driver, CollectsConsistentMetrics)
{
    setVerbose(false);
    const RunResult r = runWorkload(tinyConfig("vis"));
    const obs::MetricsNode &m = r.metrics;
    const std::uint64_t instructions = m.counterAt("instructions");
    EXPECT_GT(m.counterAt("cycles"), 0u);
    EXPECT_GT(instructions, 0u);
    EXPECT_GT(m.counterAt("refs.loads"), 0u);
    EXPECT_GT(m.counterAt("refs.stores"), 0u);
    EXPECT_EQ(r.workload, "vis");
    // Slot accounting covers the run.
    EXPECT_GE(m.counterAt("slots.busy") + m.counterAt("slots.load_stall") +
                  m.counterAt("slots.store_stall") +
                  m.counterAt("slots.inst_stall"),
              instructions);
    // Busy slots == instructions graduated.
    EXPECT_EQ(m.counterAt("slots.busy"), instructions);
}

TEST(Driver, MissCountsBoundedByLoads)
{
    setVerbose(false);
    const obs::MetricsNode m = runWorkload(tinyConfig("mst")).metrics;
    EXPECT_LE(m.counterAt("l1d.load_partial_misses") +
                  m.counterAt("l1d.load_full_misses"),
              m.counterAt("refs.loads"));
    EXPECT_LE(m.counterAt("l1d.store_partial_misses") +
                  m.counterAt("l1d.store_full_misses"),
              m.counterAt("refs.stores"));
}

TEST(Driver, TrafficFlowsDownhill)
{
    setVerbose(false);
    const obs::MetricsNode m = runWorkload(tinyConfig("health")).metrics;
    EXPECT_GT(m.counterAt("traffic.l1_l2_bytes"), 0u);
    EXPECT_GT(m.counterAt("traffic.l2_mem_bytes"), 0u);
}

TEST(Driver, ForwardedFractionsZeroWithoutOptimization)
{
    setVerbose(false);
    const obs::MetricsNode m = runWorkload(tinyConfig("smv")).metrics;
    EXPECT_EQ(m.counterAt("refs.loads_forwarded"), 0u);
    EXPECT_EQ(m.counterAt("refs.stores_forwarded"), 0u);
    EXPECT_EQ(m.gaugeAt("refs.load_forwarded_fraction"), 0.0);
}

TEST(Driver, SmvForwardsUnderLayoutOpt)
{
    setVerbose(false);
    RunConfig cfg = tinyConfig("smv");
    cfg.variant.layout_opt = true;
    const obs::MetricsNode m = runWorkload(cfg).metrics;
    EXPECT_GT(m.counterAt("refs.loads_forwarded"), 0u);
    EXPECT_GT(m.counterAt("refs.stores_forwarded"), 0u);
    EXPECT_GT(m.gaugeAt("refs.load_forwarded_fraction"), 0.0);
    EXPECT_LT(m.gaugeAt("refs.load_forwarded_fraction"), 1.0);
}

TEST(Driver, PrefetchRunsIssuePrefetches)
{
    setVerbose(false);
    RunConfig cfg = tinyConfig("vis");
    cfg.variant.prefetch = true;
    cfg.variant.prefetch_block = 2;
    const RunResult r = runWorkload(cfg);
    EXPECT_GT(r.metrics.counterAt("prefetch.issued"), 0u);
}

TEST(Driver, BestPrefetchPicksFastest)
{
    setVerbose(false);
    RunConfig cfg = tinyConfig("vis");
    cfg.variant.layout_opt = true;
    const RunResult best = runBestPrefetch(cfg, {1, 2, 4});
    std::uint64_t worst = 0;
    for (unsigned b : {1u, 2u, 4u}) {
        cfg.variant.prefetch = true;
        cfg.variant.prefetch_block = b;
        worst = std::max(worst, runWorkload(cfg).metrics.counterAt("cycles"));
    }
    EXPECT_LE(best.metrics.counterAt("cycles"), worst);
    EXPECT_TRUE(best.variant.prefetch);
}

TEST(Driver, TreeCountsEveryExecutedReference)
{
    // The tree's refs.executed is the run's reference count (the bench
    // harness reads host.refs from it), and runWorkload records it.
    setVerbose(false);
    const RunConfig cfg = tinyConfig("mst");
    Machine machine(cfg.machine);
    makeWorkload(cfg.workload, cfg.params)->run(machine, cfg.variant);
    const std::uint64_t refs = machine.refsExecuted();
    EXPECT_GT(refs, 0u);
    EXPECT_EQ(machine.metrics().counterAt("refs.executed"), refs);
    EXPECT_EQ(runWorkload(cfg).metrics.counterAt("refs.executed"), refs);
}

TEST(Driver, AverageLatenciesAreSane)
{
    setVerbose(false);
    const obs::MetricsNode m = runWorkload(tinyConfig("eqntott")).metrics;
    EXPECT_GE(m.gaugeAt("latency.avg_load_cycles"), 1.0);
    EXPECT_LT(m.gaugeAt("latency.avg_load_cycles"), 200.0);
    EXPECT_GE(m.gaugeAt("latency.avg_store_cycles"), 1.0);
}

/**
 * Tracing observes a run and never changes it: the same configuration
 * run with and without a trace sink gives the same checksum and the
 * same metrics tree, and the sink sees the timed references.
 */
class TraceInvariance
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(TraceInvariance, SinkChangesNothing)
{
    setVerbose(false);
    RunConfig cfg = tinyConfig(std::get<0>(GetParam()));
    cfg.variant.layout_opt = std::get<1>(GetParam());
    const RunResult plain = runWorkload(cfg);

    obs::RingBufferSink sink;
    cfg.trace_sink = &sink;
    const RunResult traced = runWorkload(cfg);

    EXPECT_EQ(traced.checksum, plain.checksum);
    EXPECT_EQ(traced.metrics.toJson().str(), plain.metrics.toJson().str());

    // Every timed load and store emits one reference event.
    EXPECT_GE(sink.total(), plain.metrics.counterAt("refs.loads") +
                                plain.metrics.counterAt("refs.stores"));
    const std::vector<obs::TraceEvent> held = sink.events();
    EXPECT_TRUE(std::any_of(held.begin(), held.end(), [](const auto &e) {
        return e.kind == obs::EventKind::reference;
    }));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TraceInvariance,
    ::testing::Combine(::testing::ValuesIn(extendedWorkloadNames()),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_L" : "_N");
    });

} // namespace
} // namespace memfwd
