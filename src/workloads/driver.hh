/**
 * @file
 * Experiment driver: runs one workload variant on a fresh Machine and
 * collects every metric the paper's figures need.
 */

#ifndef MEMFWD_WORKLOADS_DRIVER_HH
#define MEMFWD_WORKLOADS_DRIVER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/machine.hh"
#include "workloads/workload.hh"

namespace memfwd
{

/** Everything needed to reproduce one bar of a figure. */
struct RunConfig
{
    std::string workload;
    WorkloadParams params{};
    WorkloadVariant variant{};
    MachineConfig machine{};

    /**
     * Optional trace sink registered on the machine for the duration of
     * the run (not owned).  Leave null for untraced (zero-cost) runs.
     */
    obs::TraceSink *trace_sink = nullptr;
};

/**
 * One run's result.  Simulated metrics live only in @ref metrics, read
 * by dotted path (`r.metrics.counterAt("l1d.load_full_misses")`);
 * the other fields are what the machine's tree cannot hold.
 */
struct RunResult
{
    std::string workload;
    WorkloadVariant variant;

    /** The workload's self-check value (equal across variants). */
    std::uint64_t checksum = 0;
    /** Virtual memory consumed by relocation targets (Table 1). */
    Addr space_overhead_bytes = 0;

    /** The machine's full hierarchical metrics tree at run end. */
    obs::MetricsNode metrics;
};

/** Run one configuration to completion. */
RunResult runWorkload(const RunConfig &cfg);

/**
 * Run the prefetch variant across prefetch block sizes in
 * @p block_sizes and return the best-performing result, as the paper
 * reports "the block size that performed the best for each case"
 * (Section 5.2).  Each size runs through @p run (a bench passes one
 * that also times the run).
 */
RunResult runBestPrefetch(
    RunConfig cfg, const std::vector<unsigned> &block_sizes,
    const std::function<RunResult(const RunConfig &)> &run = runWorkload);

} // namespace memfwd

#endif // MEMFWD_WORKLOADS_DRIVER_HH
