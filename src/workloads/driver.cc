#include "workloads/driver.hh"

#include "common/logging.hh"

namespace memfwd
{

RunResult
runWorkload(const RunConfig &cfg)
{
    Machine machine(cfg.machine);
    if (cfg.trace_sink)
        machine.tracer().addSink(cfg.trace_sink);
    auto workload = makeWorkload(cfg.workload, cfg.params);
    workload->run(machine, cfg.variant);

    RunResult r;
    r.workload = cfg.workload;
    r.variant = cfg.variant;
    r.checksum = workload->checksum();
    r.space_overhead_bytes = workload->spaceOverheadBytes();
    r.metrics = machine.metrics();
    return r;
}

RunResult
runBestPrefetch(RunConfig cfg, const std::vector<unsigned> &block_sizes,
                const std::function<RunResult(const RunConfig &)> &run)
{
    memfwd_assert(!block_sizes.empty(), "need at least one block size");
    RunResult best;
    bool first = true;
    for (unsigned b : block_sizes) {
        cfg.variant.prefetch = true;
        cfg.variant.prefetch_block = b;
        RunResult r = run(cfg);
        if (first || r.metrics.counterAt("cycles") <
                         best.metrics.counterAt("cycles")) {
            best = r;
            first = false;
        }
    }
    return best;
}

} // namespace memfwd
