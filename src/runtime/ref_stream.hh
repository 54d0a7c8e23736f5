/**
 * @file
 * Reference replay: a buffer of Access requests and a pull source of
 * them.
 *
 *  - an AccessBatch is a bounded, reusable array of Access requests;
 *    Machine::run(AccessBatch&) executes them in order through
 *    Machine::access(), one call per reference.  No result comes back:
 *    a reference whose value or completion cycle matters calls
 *    Machine::access() itself;
 *  - a RefStream is a pull source of batches for
 *    Machine::run(RefStream&) — the natural shape for trace replay and
 *    generated streams.
 *
 * Since run() is a loop over access(), a replayed stream gives exactly
 * the cycles and results of the same references issued one by one.
 */

#ifndef MEMFWD_RUNTIME_REF_STREAM_HH
#define MEMFWD_RUNTIME_REF_STREAM_HH

#include <cstdint>
#include <vector>

#include "runtime/machine.hh"

namespace memfwd
{

/** Capacity of a batch built without an explicit one. */
constexpr std::size_t default_batch_capacity = 256;

/** A bounded, reusable array of Access requests. */
class AccessBatch
{
  public:
    explicit AccessBatch(std::size_t capacity = default_batch_capacity)
        : capacity_(capacity ? capacity : 1)
    {
        refs_.reserve(capacity_);
    }

    /** Append @p a. */
    void push(const Access &a) { refs_.push_back(a); }

    bool full() const { return refs_.size() >= capacity_; }
    bool empty() const { return refs_.empty(); }
    std::size_t size() const { return refs_.size(); }
    std::size_t capacity() const { return capacity_; }

    auto begin() const { return refs_.begin(); }
    auto end() const { return refs_.end(); }

    /** Drop all refs (capacity and storage are kept). */
    void clear() { refs_.clear(); }

  private:
    std::vector<Access> refs_;
    std::size_t capacity_;
};

/**
 * A pull source of reference batches.  Machine::run(RefStream&) clears
 * the batch, calls fill(), runs whatever was appended, and repeats
 * until fill() returns false.
 */
class RefStream
{
  public:
    virtual ~RefStream() = default;

    /**
     * Append the next run of references to @p batch (at most
     * batch.capacity() - batch.size()).  Return false when the stream
     * is exhausted and nothing was appended.
     */
    virtual bool fill(AccessBatch &batch) = 0;
};

} // namespace memfwd

#endif // MEMFWD_RUNTIME_REF_STREAM_HH
