/**
 * @file
 * Load/store queue model for data dependence speculation (Section 3.2).
 *
 * With memory forwarding, a store's *final* address is not known until
 * the store actually completes its forwarding walk, so conservatively a
 * load could never bypass an older store.  The paper's fix is data
 * dependence speculation: speculate that final == initial and recover
 * when wrong.  A speculation is wrong only when the load and store had
 * different initial addresses but the same final word — which the paper
 * observed "almost never" happens.
 *
 * The Lsq records recent stores' initial/final word ranges and
 * resolution times.  When a load finishes, it is checked against every
 * older in-window store that was still unresolved when the load issued;
 * the load speculated if there is one, and a violation costs a
 * pipeline-flush penalty and is counted.  When speculation is disabled,
 * the Lsq instead returns the cycle at which all older stores resolve,
 * and loads stall until then.
 *
 * Both questions need only the latest resolve cycle in the window, so
 * the Lsq keeps a sliding maximum beside the stores: the stores that no
 * later store resolves at or after, seq rising and resolve cycle
 * strictly falling.  The first of them still in the window is the
 * latest; a store enters it at the back, after popping the entries it
 * resolves at or after, and leaves at the front when the window passes
 * it.  Only a speculating load walks stores, and only those that could
 * violate: a violation needs disjoint initial words but overlapping
 * final words, which cannot happen when neither the load's words nor
 * the store's moved.  A load that was not forwarded therefore walks
 * only the stores whose words moved, kept in a queue of their own.
 */

#ifndef MEMFWD_CPU_LSQ_HH
#define MEMFWD_CPU_LSQ_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "cpu/ooo_params.hh"

namespace memfwd
{

/** Tracks in-flight stores for dependence speculation. */
class Lsq
{
  public:
    explicit Lsq(const OooParams &params)
        : params_(params), stores_(params.window), moved_(params.window),
          latest_(params.window)
    {}

    /**
     * Record a completed store.  @p seq is its dynamic instruction
     * number, the word ranges are [initial, initial+words) before
     * forwarding and [final, final+words) after.  @p resolved is the
     * cycle its final address became known (its completion).  Stores
     * are recorded in program order: @p seq rises from call to call.
     */
    void recordStore(std::uint64_t seq, Addr initial_word, Addr final_word,
                     unsigned words, Cycles resolved);

    /**
     * Earliest cycle a load dispatched as instruction @p seq at cycle
     * @p issue may actually issue.  With speculation on, that is just
     * @p issue; with speculation off, the load must additionally wait
     * for every older in-window store to resolve its final address.
     */
    Cycles
    loadIssueCycle(std::uint64_t seq, Cycles issue) const
    {
        if (params_.dep_speculation)
            return issue;
        return std::max(issue, latestResolved(seq));
    }

    /**
     * Check a finishing load against older unresolved stores.  Returns
     * the penalty (0 or misspec_penalty) to add to the load's
     * completion.  Counts speculation events and violations.
     */
    Cycles checkLoad(std::uint64_t seq, Cycles issue, Addr initial_word,
                     Addr final_word, unsigned words);

    /** Loads that issued past at least one unresolved older store. */
    std::uint64_t speculations() const { return speculations_; }

    /** Speculations that violated a true dependence via forwarding. */
    std::uint64_t violations() const { return violations_; }

  private:
    struct StoreRec
    {
        std::uint64_t seq;
        Addr initial_word;
        Addr final_word;
        unsigned words;
        Cycles resolved;
    };

    /** One entry of the sliding maximum of resolve cycles. */
    struct Resolve
    {
        std::uint64_t seq;
        Cycles resolved;
    };

    /**
     * A FIFO over one contiguous array, so a walk is a plain pointer
     * range.  Store seqs rise, so after recordStore(seq) prunes, the
     * survivors lie in [seq - window, seq): at most window of them.
     * The array holds 2 * (window + 1); when the tail reaches its end,
     * the survivors move to its front, at most window copies every
     * window + 2 pushes.
     */
    template <class T>
    class Fifo
    {
      public:
        explicit Fifo(unsigned window) : slots_(2 * (std::size_t(window) + 1))
        {}
        bool empty() const { return head_ == tail_; }
        const T *begin() const { return slots_.data() + head_; }
        const T *end() const { return slots_.data() + tail_; }
        const T &front() const { return slots_[head_]; }
        const T &back() const { return slots_[tail_ - 1]; }
        void
        push_back(const T &v)
        {
            if (tail_ == slots_.size()) {
                std::copy(begin(), end(), slots_.begin());
                tail_ -= head_;
                head_ = 0;
            }
            slots_[tail_++] = v;
        }
        void pop_front() { ++head_; }
        void pop_back() { --tail_; }

      private:
        std::vector<T> slots_;
        std::size_t head_ = 0;
        std::size_t tail_ = 0;
    };

    /** Drop the records the window has passed at @p seq. */
    void prune(std::uint64_t seq);
    /** Latest resolve cycle of the in-window stores older than @p seq,
     *  or 0 if there is none. */
    Cycles latestResolved(std::uint64_t seq) const;

    OooParams params_;
    Fifo<StoreRec> stores_; ///< in seq order
    Fifo<StoreRec> moved_;  ///< the stores_ whose words moved
    /** Stores no later store resolves at or after: seq rising,
     *  resolved strictly falling. */
    Fifo<Resolve> latest_;
    std::uint64_t speculations_ = 0;
    std::uint64_t violations_ = 0;
};

} // namespace memfwd

#endif // MEMFWD_CPU_LSQ_HH
