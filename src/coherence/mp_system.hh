/**
 * @file
 * A small bus-based shared-memory multiprocessor with memory
 * forwarding, for the paper's false-sharing experiments (Section 2.2).
 *
 * Each processor is a simple in-order core with a private MSI cache;
 * all share one TaggedMemory (so forwarding bits are visible to every
 * processor — exactly the property that makes relocation safe under
 * sharing: a processor holding a stale pointer forwards to the new
 * location like any other reference).
 */

#ifndef MEMFWD_COHERENCE_MP_SYSTEM_HH
#define MEMFWD_COHERENCE_MP_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coherence/coherent_cache.hh"
#include "coherence/snoop_bus.hh"
#include "common/types.hh"
#include "mem/tagged_memory.hh"

namespace memfwd
{

/** Configuration of the MP substrate. */
struct MpConfig
{
    unsigned processors = 4;
    unsigned cache_bytes = 16 * 1024;
    unsigned assoc = 2;
    unsigned line_bytes = 64;
};

/** P in-order cores + private MSI caches + shared tagged memory. */
class MpSystem
{
  public:
    explicit MpSystem(const MpConfig &cfg = {});

    MpSystem(const MpSystem &) = delete;
    MpSystem &operator=(const MpSystem &) = delete;

    /**
     * Timed, forwarding-aware load by processor @p cpu.  Loads, stores
     * and relocations follow chains under the abort policy: they throw
     * ForwardingCycleError on a cycle and ForwardingIntegrityError on a
     * misaligned forwarding payload.
     */
    std::uint64_t load(unsigned cpu, Addr addr, unsigned size);

    /** Timed, forwarding-aware store by processor @p cpu. */
    void store(unsigned cpu, Addr addr, unsigned size,
               std::uint64_t value);

    /** Local compute on @p cpu (n single-cycle instructions). */
    void compute(unsigned cpu, std::uint64_t n);

    /**
     * Relocate @p n_words from @p src to @p tgt (word-aligned) as
     * processor @p cpu would: timed reads/writes plus the atomic
     * forwarding-address installation.
     */
    void relocate(unsigned cpu, Addr src, Addr tgt, unsigned n_words);

    /** Local clock of processor @p cpu. */
    Cycles clock(unsigned cpu) const { return clocks_[cpu]; }

    /** Execution time: the slowest processor's clock. */
    Cycles elapsed() const;

    TaggedMemory &mem() { return mem_; }
    const SnoopBus &bus() const { return bus_; }
    const CoherentCache &cache(unsigned cpu) const
    {
        return *caches_[cpu];
    }
    const MpConfig &config() const { return cfg_; }

    /** References that required at least one forwarding hop. */
    std::uint64_t forwardedRefs() const { return forwarded_refs_; }

    /**
     * Whole-system metrics: "bus" child plus one "cpu<N>" child per
     * processor's private cache, and system-level counters at the root.
     */
    void
    fillMetrics(obs::MetricsNode &into) const
    {
        into.counter("elapsed_cycles", elapsed());
        into.counter("forwarded_refs", forwarded_refs_);
        bus_.fillMetrics(into.child("bus"));
        for (unsigned p = 0; p < caches_.size(); ++p)
            caches_[p]->fillMetrics(into.child("cpu" + std::to_string(p)));
    }

    obs::MetricsNode
    metrics() const
    {
        obs::MetricsNode n;
        fillMetrics(n);
        return n;
    }

  private:
    /** Follow the forwarding chain for cpu at its local time. */
    Addr resolve(unsigned cpu, Addr addr);

    /** Tail word of the chain at @p word, each hop a coherent load. */
    Addr chase(unsigned cpu, Addr word);

    MpConfig cfg_;
    TaggedMemory mem_;
    SnoopBus bus_;
    std::vector<std::unique_ptr<CoherentCache>> caches_;
    std::vector<Cycles> clocks_;
    std::uint64_t forwarded_refs_ = 0;
};

/**
 * The false-sharing repair: relocate each of @p items (word-aligned,
 * @p item_words long) to its own cache-line-aligned home carved from
 * @p pool_base onward.  Performed by @p cpu.  Returns the new homes.
 */
std::vector<Addr> separateToLines(MpSystem &sys, unsigned cpu,
                                  const std::vector<Addr> &items,
                                  unsigned item_words, Addr pool_base);

} // namespace memfwd

#endif // MEMFWD_COHERENCE_MP_SYSTEM_HH
