/**
 * @file
 * Integration: the metadata plane is invisible to correct programs.
 *
 * Every workload runs twice — metadata plane off and on — and must be
 * checksum- and cycle-identical with zero temporal violations: the
 * temporal-safety check rides trap delivery on the forwarded path only,
 * so a program that never touches freed memory cannot observe it, in
 * results or in timing.
 */

#include <gtest/gtest.h>

#include <string>

#include "workloads/driver.hh"
#include "workloads/workload.hh"

namespace memfwd
{
namespace
{

std::uint64_t
violations(const RunResult &r)
{
    const obs::MetricsNode *q = r.metrics.findChild("quarantine");
    if (!q)
        return 0;
    return q->counterValue("violations_uaf") +
           q->counterValue("violations_oob");
}

class TemporalSafetyEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TemporalSafetyEquivalence, PlaneOnIsObservationallyIdentical)
{
    RunConfig cfg;
    cfg.workload = GetParam();
    cfg.params.scale = 0.05;
    cfg.variant.layout_opt = true; // exercise the forwarded path

    const RunResult off = runWorkload(cfg);
    cfg.machine.metadataPlane(true);
    const RunResult on = runWorkload(cfg);

    EXPECT_EQ(on.checksum, off.checksum);
    for (const char *name : {"cycles", "instructions", "refs.loads_forwarded"})
        EXPECT_EQ(on.metrics.counterAt(name), off.metrics.counterAt(name))
            << name;
    EXPECT_EQ(violations(on), 0u) << "false positive on clean workload";
    EXPECT_EQ(violations(off), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TemporalSafetyEquivalence,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace memfwd
