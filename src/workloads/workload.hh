/**
 * @file
 * The benchmark-application framework.
 *
 * Each of the paper's eight applications (Table 1) is reproduced as a
 * Workload: a kernel that performs the original program's characteristic
 * data-structure work through the Machine's timed operations.  Every
 * workload supports the paper's four experimental cases:
 *
 *   N  — original layout, no prefetching         (layout_opt=0, prefetch=0)
 *   L  — layout optimization via memory forwarding (layout_opt=1)
 *   NP — original layout + software prefetching    (prefetch=1)
 *   LP — layout optimization + prefetching         (both)
 *
 * Workloads must be deterministic: the N and L variants of a workload
 * with the same params compute identical checksums (the layout
 * optimizations are semantics-preserving — that is the whole point of
 * memory forwarding), and tests verify this.
 */

#ifndef MEMFWD_WORKLOADS_WORKLOAD_HH
#define MEMFWD_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace memfwd
{

class Machine;

/** Which of the paper's four experimental cases to run. */
struct WorkloadVariant
{
    /** Apply the layout optimization (the "L" cases). */
    bool layout_opt = false;

    /** Insert software prefetches (the "P" cases). */
    bool prefetch = false;

    /**
     * Prefetch block size in cache lines.  The paper sweeps this and
     * reports the best per configuration (Section 5.2).
     */
    unsigned prefetch_block = 1;
};

/** Size/seed parameters. scale=1 is the default benchmark size. */
struct WorkloadParams
{
    std::uint64_t seed = 42;
    double scale = 1.0;
};

/** One reproduced application. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short name ("health", "mst", ...). */
    virtual std::string name() const = 0;

    /** Table 1 description line. */
    virtual std::string description() const = 0;

    /** Table 1 "Optimizations Applied" line. */
    virtual std::string optimization() const = 0;

    /** Execute the workload to completion on @p machine. */
    virtual void run(Machine &machine, const WorkloadVariant &variant) = 0;

    /** Deterministic functional result, for N-vs-L cross-checking. */
    virtual std::uint64_t checksum() const = 0;

    /**
     * Virtual-memory space consumed by relocation targets (Table 1's
     * "Space Overhead" column).  Zero before run() or for N variants.
     */
    virtual Addr spaceOverheadBytes() const = 0;

    /**
     * Whether this workload can run under layout backend @p kind
     * (MachineConfig::backend(...)).  The paper's eight applications
     * pass raw pointers around freely, so they cannot run behind a
     * handle table; they do run under `none` (layout optimizations
     * degrade to no-ops via LayoutBackend::canRelocate()).  Workloads
     * that route every reference through LayoutBackend::resolve()
     * (kv_server) override this to accept all kinds.
     */
    virtual bool
    supportsBackend(BackendKind kind) const
    {
        return kind != BackendKind::handles;
    }
};

/** Construct workload @p name ("health", "mst", "bh", "radiosity",
 *  "vis", "eqntott", "compress", "smv", or the extension
 *  "kv_server"). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadParams &params = {});

/** The eight application names, in the paper's Table 1 order. */
const std::vector<std::string> &workloadNames();

/** All runnable workloads: the paper's eight plus extensions
 *  (kv_server) that are not part of the Table 1 reproduction. */
const std::vector<std::string> &extendedWorkloadNames();

/** The seven applications of Figures 5-7 (all but SMV). */
const std::vector<std::string> &figure5Workloads();

/**
 * The fast-forward region names (MachineConfig::fastForward): "all",
 * the whole run, and the phases workloads bracket with
 * Machine::enterRegion/exitRegion ("build", "opt", "kernel").
 */
const std::vector<std::string> &fastForwardRegions();

} // namespace memfwd

#endif // MEMFWD_WORKLOADS_WORKLOAD_HH
