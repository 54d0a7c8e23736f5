/**
 * @file
 * Reorder-buffer model: in-order dispatch and in-order graduation with
 * per-slot stall attribution.
 *
 * The model is stream-driven: the Machine walks the dynamic instruction
 * sequence in program order; for each instruction it asks the Rob for a
 * dispatch cycle (bounded by fetch bandwidth and by the window — an
 * instruction cannot dispatch until the instruction `window` places
 * ahead of it has retired), computes the instruction's completion cycle
 * (1 cycle for ALU ops, the hierarchy's answer for memory ops), and
 * hands it back for graduation.  Graduation retires up to `width`
 * instructions per cycle in order; non-graduating slots are attributed
 * per the paper's Figure 5 categories.
 */

#ifndef MEMFWD_CPU_ROB_HH
#define MEMFWD_CPU_ROB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "cpu/stall_stats.hh"

namespace memfwd
{

/** In-order dispatch / in-order graduation window. */
class Rob
{
  public:
    Rob(unsigned width, unsigned window);

    /**
     * Dispatch the next instruction in program order.  Returns the
     * cycle at which it occupies an issue slot (fetch-bandwidth- and
     * window-limited).
     */
    Cycles dispatch();

    /**
     * Graduate the instruction most recently dispatched, which became
     * ready at @p completion.  @p kind attributes any slots the
     * graduation had to wait for.  Returns the retire cycle.
     */
    Cycles graduate(Cycles completion, WaitKind kind);

    /**
     * Dispatch + graduate @p n consecutive single-cycle ALU
     * instructions.  Exactly equivalent to n dispatch()/graduate(d+1)
     * pairs — the definition of OooCpu::alu(n).  Graduation reaches
     * its staircase, G + (gs+k)/width for the k-th instruction, within
     * width + 1 literal steps (none after any history the Machine makes
     * but the empty one), and the rest of the burst is written in
     * closed form in O(min(n, window)) time (see rob.cc).  With an
     * instruction dispatched but not yet graduated it steps throughout.
     */
    void aluBurst(std::uint64_t n);

    /** Instructions dispatched (== graduated) so far. */
    std::uint64_t instructions() const { return seq_; }

    /** Cycle of the most recent graduation — the execution time. */
    Cycles currentCycle() const { return grad_cycle_; }

    const StallStats &stalls() const { return stalls_; }

    unsigned width() const { return width_; }
    unsigned window() const { return window_; }

  private:
    /**
     * Retire an ALU burst of @p n > 0 on the graduation staircase, if
     * the state guarantees it stays there; false, changing nothing,
     * otherwise.
     */
    bool aluStaircase(std::uint64_t n);

    unsigned width_;
    unsigned window_;

    std::uint64_t seq_ = 0;      ///< instructions dispatched
    std::uint64_t graduated_ = 0;

    Cycles fetch_cycle_ = 0;     ///< cycle the next fetch group occupies
    unsigned fetch_slots_ = 0;   ///< fetches already taken this cycle

    Cycles grad_cycle_ = 0;      ///< current graduation cycle
    unsigned grad_slots_ = 0;    ///< graduation slots used this cycle

    StallStats stalls_;

    /** retire cycle of instruction i, indexed i % window_. */
    std::vector<Cycles> retire_ring_;
    unsigned dispatch_slot_ = 0; ///< seq_ % window_
    unsigned retire_slot_ = 0;   ///< graduated_ % window_
};

} // namespace memfwd

#endif // MEMFWD_CPU_ROB_HH
