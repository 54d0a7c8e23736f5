/**
 * @file
 * The out-of-order CPU timing model: Rob + Lsq + memory-port
 * arbitration, plus the per-reference latency statistics behind
 * Figure 10(d) (average cycles per load/store, split into forwarding
 * time and ordinary cache time).
 *
 * The CPU is stream-driven and knows nothing about memory contents —
 * the Machine (runtime/machine.hh) resolves forwarding chains against
 * the hierarchy and reports the resulting timing here.
 */

#ifndef MEMFWD_CPU_OOO_CPU_HH
#define MEMFWD_CPU_OOO_CPU_HH

#include <cstdint>
#include <deque>

#include "common/types.hh"
#include "cpu/lsq.hh"
#include "cpu/ooo_params.hh"
#include "cpu/rob.hh"
#include "cpu/stall_stats.hh"
#include "obs/metrics.hh"

namespace memfwd
{

/** Handle describing one dispatched memory instruction. */
struct MemIssue
{
    std::uint64_t seq;  ///< dynamic instruction number
    Cycles dispatch;    ///< cycle the instruction dispatched
    Cycles issue;       ///< cycle the D-cache access may begin
};

/** Per-reference latency accounting (Figure 10(d)). */
struct RefLatencyStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    Cycles load_ordinary_cycles = 0;
    Cycles load_forward_cycles = 0;
    Cycles store_ordinary_cycles = 0;
    Cycles store_forward_cycles = 0;

    double
    avgLoadCycles() const
    {
        return loads ? double(load_ordinary_cycles + load_forward_cycles) /
                           double(loads)
                     : 0.0;
    }
    double
    avgStoreCycles() const
    {
        return stores
                   ? double(store_ordinary_cycles + store_forward_cycles) /
                         double(stores)
                   : 0.0;
    }
};

/** Stream-driven out-of-order superscalar timing model. */
class OooCpu
{
  public:
    explicit OooCpu(const OooParams &params = {});

    /**
     * Execute @p n plain ALU instructions (1-cycle latency each).  Their
     * retirement waits for the CPU's next observer: every reader of the
     * Rob (issueMem, the finish calls, cycles(), instructions(),
     * stalls(), fillMetrics()) first retires the pending count in one
     * Rob::aluBurst, so every figure equals eager retirement's.
     */
    void alu(std::uint64_t n);

    /**
     * Dispatch a memory instruction whose address becomes available at
     * @p addr_ready (0 if the address has no load-carried dependence).
     * Applies fetch, window, memory-port and (if speculation is off)
     * store-resolution constraints.
     */
    MemIssue issueMem(Cycles addr_ready, bool is_load);

    /**
     * Finish a load.  @p completion is when its data arrived,
     * @p forward_cycles of which were spent walking forwarding chains.
     * @p missed_l1 selects load-stall attribution.  The word ranges
     * feed dependence-speculation checking.  Returns the (possibly
     * penalty-adjusted) completion cycle — the load's value-ready time
     * for downstream address dependences.
     */
    Cycles finishLoad(const MemIssue &mi, Cycles completion,
                      Cycles forward_cycles, bool missed_l1,
                      Addr initial_word, Addr final_word, unsigned words);

    /** Finish a store; mirrors finishLoad. */
    Cycles finishStore(const MemIssue &mi, Cycles completion,
                       Cycles forward_cycles, bool missed_l1,
                       Addr initial_word, Addr final_word, unsigned words);

    /**
     * Finish a non-binding instruction (prefetch, fbit manipulation)
     * that graduates one cycle after dispatch and never stalls.
     */
    void finishNonBlocking(const MemIssue &mi);

    /** Total cycles elapsed so far (== last graduation cycle). */
    Cycles
    cycles() const
    {
        retireAlu();
        return rob_.currentCycle();
    }

    std::uint64_t
    instructions() const
    {
        retireAlu();
        return rob_.instructions();
    }

    const StallStats &
    stalls() const
    {
        retireAlu();
        return rob_.stalls();
    }
    const RefLatencyStats &refLatency() const { return ref_stats_; }
    const Lsq &lsq() const { return lsq_; }
    const OooParams &params() const { return params_; }

    /**
     * Add the CPU's metrics to @p into: cycles/instructions at the node
     * itself plus "slots", "lsq" and "latency" children.  The Machine
     * passes its root node so the legacy flat names stay intact.
     */
    void fillMetrics(obs::MetricsNode &into) const;

    obs::MetricsNode
    metrics() const
    {
        obs::MetricsNode n;
        fillMetrics(n);
        return n;
    }

  private:
    Cycles arbitratePort(Cycles want);

    /** Retire the ALU instructions alu() left pending. */
    void
    retireAlu() const
    {
        if (pending_alu_ != 0) {
            rob_.aluBurst(pending_alu_);
            pending_alu_ = 0;
        }
    }

    OooParams params_;
    /** Mutable so the const observers can retire pending ALU work. */
    mutable Rob rob_;
    mutable std::uint64_t pending_alu_ = 0;
    Lsq lsq_;
    RefLatencyStats ref_stats_;

    Cycles port_cycle_ = 0;
    unsigned ports_used_ = 0;

    /** Completion times of stores draining in the background. */
    std::deque<Cycles> store_buffer_;
};

} // namespace memfwd

#endif // MEMFWD_CPU_OOO_CPU_HH
