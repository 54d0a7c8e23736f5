/**
 * @file
 * Batched reference-stream API — the host-speed execution surface.
 *
 * One Machine::access() call per simulated reference is a virtual-free
 * but branch-heavy round trip: the tracer test, the fast-forward test
 * and the result plumbing all sit inside the hottest loop of the
 * simulator.  The batched API amortizes them:
 *
 *  - an AccessBatch is a flat array of Access requests; the workload
 *    appends references and hands the whole batch to
 *    Machine::run(AccessBatch&), which hoists the tracer/fast-forward
 *    dispatch out of the loop and drains the refs back-to-back.  No
 *    result comes back: a reference whose value or completion cycle
 *    matters goes through Machine::access();
 *  - a RefStream is a pull source of batches for Machine::run(RefStream&)
 *    — the natural shape for trace replay and generated streams;
 *  - a BatchEmitter is the drop-in convenience for workload inner loops:
 *    result-free operations (store, prefetch, compute, unforwardedWrite)
 *    are deferred and flushed in batches; value-returning operations
 *    flush the pending batch and execute immediately, so program order
 *    and timing are preserved exactly.
 *
 * Batch size never changes simulated timing — references execute in
 * program order with the same cycle accounting as the per-call API
 * (tests/runtime/test_ref_stream.cc proves batch-size invariance).  The
 * default capacity is 256.
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

/** A flat, bounded, reusable array of Access requests. */
class AccessBatch
{
  public:
    explicit AccessBatch(std::size_t capacity = default_batch_capacity)
        : refs_(capacity ? capacity : 1), capacity_(refs_.size())
    {
    }

    /** Append @p a. */
    void
    push(const Access &a)
    {
        if (size_ == refs_.size())
            refs_.resize(2 * size_);
        // Written field by field into a slot that already exists: a
        // whole-struct copy of an inlined Access::store(...) goes through
        // a stack temporary, stored in narrow fields and reloaded in
        // wide words that store forwarding cannot serve, and a fresh
        // vector element would be zeroed first.  The binding names
        // every field of Access, so a field added there stops this
        // compiling until it is copied below as well.
        [[maybe_unused]] const auto &[addr, value, addr_ready, pointer_slot,
                                      site, object_id, kind, size, fbit] = a;
        Access &r = refs_[size_++];
        r.addr = a.addr;
        r.value = a.value;
        r.addr_ready = a.addr_ready;
        r.pointer_slot = a.pointer_slot;
        r.site = a.site;
        r.object_id = a.object_id;
        r.kind = a.kind;
        r.size = a.size;
        r.fbit = a.fbit;
    }

    bool full() const { return size_ >= capacity_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }

    const Access *data() const { return refs_.data(); }

    /** Drop all refs (capacity and storage are kept). */
    void clear() { size_ = 0; }

  private:
    /** Storage; the first size_ slots hold the batch. */
    std::vector<Access> refs_;
    std::size_t capacity_;
    std::size_t size_ = 0;
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

/**
 * Batch-building convenience for workload inner loops.  Keeps the exact
 * program-order semantics of the per-call Machine API: result-free
 * operations are queued; anything that needs a result (or the
 * destructor/flush()) drains the queue first.
 */
class BatchEmitter
{
  public:
    explicit BatchEmitter(Machine &machine,
                          std::size_t capacity = default_batch_capacity)
        : machine_(machine), batch_(capacity)
    {
    }

    ~BatchEmitter() { flush(); }

    BatchEmitter(const BatchEmitter &) = delete;
    BatchEmitter &operator=(const BatchEmitter &) = delete;

    /** Run everything queued so far. */
    void
    flush()
    {
        if (!batch_.empty()) {
            machine_.run(batch_);
            batch_.clear();
        }
    }

    // ----- deferred (result-free) operations ---------------------------

    void
    store(Addr addr, unsigned size, std::uint64_t value,
          Cycles addr_ready = 0, SiteId site = no_site,
          Addr pointer_slot = 0)
    {
        defer(Access::store(addr, size, value, addr_ready, site,
                            pointer_slot));
    }

    void
    unforwardedWrite(Addr addr, std::uint64_t value, bool fbit,
                     Cycles addr_ready = 0)
    {
        defer(Access::unforwardedWrite(addr, value, fbit, addr_ready));
    }

    void
    prefetch(Addr addr, unsigned lines, Cycles addr_ready = 0)
    {
        defer(Access::prefetch(addr, lines, addr_ready));
    }

    void compute(std::uint64_t n) { defer(Access::compute(n)); }

    // ----- flush-through (value-returning) operations ------------------

    AccessResult
    load(Addr addr, unsigned size, Cycles addr_ready = 0,
         SiteId site = no_site, Addr pointer_slot = 0)
    {
        flush();
        return machine_.access(
            Access::load(addr, size, addr_ready, site, pointer_slot));
    }

    bool
    readFBit(Addr addr, Cycles addr_ready = 0)
    {
        flush();
        return machine_.access(Access::readFBit(addr, addr_ready)).value
               != 0;
    }

    std::uint64_t
    unforwardedRead(Addr addr, Cycles addr_ready = 0)
    {
        flush();
        return machine_.access(Access::unforwardedRead(addr, addr_ready))
            .value;
    }

    Machine &machine() { return machine_; }

  private:
    void
    defer(const Access &a)
    {
        batch_.push(a);
        if (batch_.full())
            flush();
    }

    Machine &machine_;
    AccessBatch batch_;
};

} // namespace memfwd

#endif // MEMFWD_RUNTIME_REF_STREAM_HH
