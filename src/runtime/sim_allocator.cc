#include "runtime/sim_allocator.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"
#include "core/chain_walk.hh"
#include "core/fault_injector.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"

namespace memfwd
{

namespace
{

/** Approximate instruction cost of one malloc/free call. */
constexpr std::uint64_t alloc_compute_cost = 40;

/** Arena page of the block bitmap: PageBits holds 512 words. */
constexpr Addr pageBytes = 4096;
constexpr Addr chunkBytes = 64 * wordBytes; ///< one bitmap word's worth

constexpr Addr
alignUp(Addr a, Addr align)
{
    return (a + align - 1) & ~(align - 1);
}

} // namespace

const SimAllocator::PageBits SimAllocator::free_bits{};
const SimAllocator::PageBits SimAllocator::interior_bits{
    {~0ull, ~0ull, ~0ull, ~0ull, ~0ull, ~0ull, ~0ull, ~0ull}, {}};

SimAllocator::SimAllocator(Machine &machine, Addr base, Addr span,
                           std::uint64_t seed)
    : machine_(machine), base_(base), span_(span), rng_(seed),
      live_end_(base)
{
    memfwd_assert(isWordAligned(base_), "heap base must be word-aligned");
    memfwd_assert(span_ >= pageBytes, "heap span too small");
}

SimAllocator::SimAllocator(Machine &machine, std::uint64_t seed)
    : SimAllocator(machine, machine.config().heap_base,
                   machine.config().heap_span, seed)
{
}

FlatPageIndex::Value
SimAllocator::slotOf(Addr page) const
{
    PageMemo &m = memo_[page % std::size(memo_)];
    if (m.page != page) {
        const FlatPageIndex::Value v = index_.find(page);
        if (v == FlatPageIndex::no_value)
            return v;
        m = PageMemo{page, v};
    }
    return m.slot;
}

const SimAllocator::PageBits &
SimAllocator::bits(Addr page) const
{
    const FlatPageIndex::Value v = slotOf(page);
    return v == FlatPageIndex::no_value ? free_bits : *pages_[v];
}

const SimAllocator::PageBits *&
SimAllocator::pageSlot(Addr page)
{
    FlatPageIndex::Value v = slotOf(page);
    if (v == FlatPageIndex::no_value) {
        v = static_cast<FlatPageIndex::Value>(pages_.size());
        pages_.push_back(&free_bits);
        index_.insert(page, v);
        memo_[page % std::size(memo_)] = PageMemo{page, v};
    }
    return pages_[v];
}

Addr
SimAllocator::scan(Addr from, Addr to, std::uint64_t flip,
                   std::uint64_t starts) const
{
    for (Addr a = from; a < to;) {
        const Addr page = a / pageBytes;
        const PageBits &b = bits(page);
        const unsigned w = static_cast<unsigned>(a % pageBytes) >> wordShift;
        for (unsigned i = w / 64; i < std::size(b.occupied); ++i) {
            std::uint64_t m = (b.occupied[i] ^ flip) | (b.start[i] & starts);
            if (i == w / 64)
                m &= ~0ull << (w % 64);
            if (m != 0) {
                return std::min(to, page * pageBytes +
                                        (Addr(i * 64 + __builtin_ctzll(m))
                                         << wordShift));
            }
        }
        a = (page + 1) * pageBytes;
    }
    return to;
}

bool
SimAllocator::rangeFree(Addr start, Addr bytes) const
{
    if (start < base_ || start + bytes > base_ + span_)
        return false;
    // A range inside one bitmap word (every kv block) is one mask test.
    const unsigned w = static_cast<unsigned>(start % pageBytes) >> wordShift;
    const Addr n = bytes >> wordShift;
    if (w % 64 + n <= 64) {
        const std::uint64_t mask = ~0ull >> (64 - n) << (w % 64);
        return (bits(start / pageBytes).occupied[w / 64] & mask) == 0;
    }
    return scan(start, start + bytes, 0, 0) == start + bytes;
}

std::optional<Addr>
SimAllocator::lowestFit(Addr from, Addr bytes, Addr align) const
{
    // Per 64-word chunk, a shift-and over the free bits of the chunk and
    // its successor marks each aligned word starting min(n, 64) free
    // words.  The lowest mark is then checked over its whole range.
    const Addr limit = base_ + span_;
    const Addr n = std::min<Addr>(bytes >> wordShift, 64);
    const Addr g = align >> wordShift;
    const std::uint64_t aligned = g < 64 ? ~0ull / ((1ull << g) - 1) : 1;
    auto freeWords = [this](Addr c) {
        return ~bits(c / pageBytes).occupied[c % pageBytes / chunkBytes];
    };
    for (Addr a = alignUp(from, align); a <= limit && bytes <= limit - a;) {
        const Addr chunk = a & ~(chunkBytes - 1);
        unsigned __int128 run = freeWords(chunk + chunkBytes);
        run = run << 64 | freeWords(chunk);
        for (Addr len = 1; len < n; len *= 2)
            run &= run >> std::min(len, n - len);
        const std::uint64_t marks = std::uint64_t(run) & aligned &
                                    (~0ull << ((a - chunk) >> wordShift));
        if (marks == 0) {
            a = alignUp(chunk + chunkBytes, align);
            continue;
        }
        a = chunk + (Addr(__builtin_ctzll(marks)) << wordShift);
        if (rangeFree(a, bytes))
            return a;
        // Resume past the run of occupied words that defeated it.
        a = alignUp(scan(scan(a, a + bytes, 0, 0), limit, ~0ull, 0), align);
    }
    return std::nullopt;
}

std::optional<Addr>
SimAllocator::place(Addr bytes, Placement placement, Addr align)
{
    if (placement == Placement::scattered && bytes < span_) {
        // Pseudo-random placement across the arena: this stands in for
        // the allocation interleaving and heap churn that scatter real
        // applications' nodes.  With span >> live bytes the first
        // probes almost always succeed.
        const Addr limit = base_ + span_;
        for (int attempt = 0; attempt < 64; ++attempt) {
            Addr candidate = alignUp(
                base_ + (rng_.below(span_ - bytes) & ~(align - 1)), align);
            if (candidate + bytes > limit)
                candidate = (limit - bytes) & ~(align - 1);
            if (rangeFree(candidate, bytes))
                return candidate;
        }
        memfwd_warn("scattered placement degraded to sequential "
                    "(heap too full)");
    }
    // Sequential: from the bump pointer.  first_fit: from the base.
    const std::optional<Addr> addr = lowestFit(
        placement == Placement::first_fit ? base_ : base_ + bump_, bytes,
        align);
    if (addr)
        bump_ = std::max(bump_, *addr + bytes - base_);
    return addr;
}

void
SimAllocator::setBlock(Addr start, Addr end, bool live)
{
    // Every word of the range flips: allocation only claims free words
    // and release only frees the words of one block.
    for (Addr a = start, stop = 0; a < end; a = stop) {
        const Addr page = a / pageBytes;
        stop = std::min(end, (page + 1) * pageBytes);
        const PageBits *&slot = pageSlot(page);
        const bool owned = slot != &free_bits && slot != &interior_bits;
        if (a + pageBytes == stop && (a != start || !live)) {
            // The block covers the whole page and does not start on it.
            if (owned)
                spare_bits_.push_back(const_cast<PageBits *>(slot));
            slot = live ? &interior_bits : &free_bits;
            continue;
        }
        if (!owned) {
            if (spare_bits_.empty())
                spare_bits_.push_back(&bits_.emplace_back());
            *spare_bits_.back() = PageBits{};
            slot = spare_bits_.back();
            spare_bits_.pop_back();
        }
        // Owned storage is never one of the shared const sentinels.
        PageBits &b = const_cast<PageBits &>(*slot);
        const unsigned w0 = static_cast<unsigned>(a % pageBytes) >> wordShift;
        for (unsigned w = w0; w < w0 + (stop - a) / wordBytes; ++w)
            b.occupied[w / 64] ^= 1ull << (w % 64);
        if (a == start)
            b.start[w0 / 64] ^= 1ull << (w0 % 64);
        if (std::all_of(std::begin(b.occupied), std::end(b.occupied),
                        [](std::uint64_t x) { return x == 0; })) {
            spare_bits_.push_back(&b);
            slot = &free_bits;
        }
    }
}

bool
SimAllocator::injectedFailure(Addr bytes, Addr align)
{
    memfwd_assert(bytes > 0, "zero-byte allocation");
    memfwd_assert(align >= wordBytes && (align & (align - 1)) == 0,
                  "alignment must be a power of two >= %u", wordBytes);
    // An armed alloc-site fault fires before any state changes, so a
    // failed call is invisible to later ones (callers can retry).
    FaultInjector *faults = machine_.faultInjector();
    return faults && faults->shouldFail(FaultSite::alloc);
}

std::optional<Addr>
SimAllocator::claim(Addr bytes, Placement placement, Addr align)
{
    const std::optional<Addr> addr = place(bytes, placement, align);
    if (!addr)
        return std::nullopt;
    setBlock(*addr, *addr + bytes, true);
    live_end_ = std::max(live_end_, *addr + bytes);

    // The OS guarantees clear forwarding bits on fresh memory
    // (Section 3.3); the sweep is functional, the allocator's own work
    // is charged as compute.
    machine_.mem().initializeRegion(*addr, bytes);
    machine_.access(Access::compute(alloc_compute_cost));

    ++alloc_calls_;
    bytes_live_ += bytes;
    bytes_total_ += bytes;
    bytes_peak_ = std::max(bytes_peak_, bytes_live_);
    return addr;
}

std::optional<Addr>
SimAllocator::tryAlloc(Addr bytes, Placement placement, Addr align)
{
    if (injectedFailure(bytes, align))
        return std::nullopt;
    return claim(roundUpToWord(bytes), placement, align);
}

Addr
SimAllocator::alloc(Addr bytes, Placement placement, Addr align)
{
    const bool injected = injectedFailure(bytes, align);
    bytes = roundUpToWord(bytes);
    if (injected)
        throw AllocFailure(bytes, "injected allocation failure");
    if (const std::optional<Addr> addr = claim(bytes, placement, align))
        return *addr;
    throw AllocFailure(bytes, "simulated heap exhausted");
}

bool
SimAllocator::isAllocated(Addr addr) const
{
    const unsigned w = static_cast<unsigned>(addr % pageBytes) >> wordShift;
    return isWordAligned(addr) &&
           (bits(addr / pageBytes).start[w / 64] >> (w % 64) & 1) != 0;
}

Addr
SimAllocator::allocationSize(Addr addr) const
{
    // A block runs until the next free word or the next block's start.
    return isAllocated(addr)
               ? scan(addr + wordBytes, base_ + span_, ~0ull, ~0ull) - addr
               : 0;
}

Addr
SimAllocator::highestLiveEnd() const
{
    // Walk down from the cached bound to the last occupied word.
    for (; live_end_ > base_; live_end_ -= wordBytes) {
        const Addr last = live_end_ - wordBytes;
        const Addr w = last % pageBytes >> wordShift;
        const PageBits &b = bits(last / pageBytes);
        if ((b.occupied[w / 64] >> (w % 64) & 1) != 0)
            break;
        if (&b == &free_bits) // skip the rest of a free page
            live_end_ = std::max(base_, last - last % pageBytes) + wordBytes;
    }
    return live_end_;
}

void
SimAllocator::free(Addr addr)
{
    // Section 3.3: the wrapper walks the forwarding chain first and
    // deallocates every relocated copy of the object, then the block
    // itself.  The walk is the timed software walk, so its cost appears
    // in the timing, and a cyclic or corrupt chain throws before
    // anything is released.
    chaseChain(machine_, addr);

    auto release = [this](Addr start) {
        const Addr bytes = allocationSize(start);
        bytes_live_ -= bytes;
        setBlock(start, start + bytes, false);
    };
    // The chain is now known to end: an untimed second pass releases
    // each hop's target that is a known allocation.
    const TaggedMemory &mem = machine_.mem();
    walkChain(mem, wordAlign(addr), ChainLimits{~0u}, [&](Addr word) {
        const Addr copy = mem.rawReadWord(word);
        if (isAllocated(copy))
            release(copy);
    });

    memfwd_assert(isAllocated(addr), "free() of unallocated address %#llx",
                  static_cast<unsigned long long>(addr));
    release(addr);

    machine_.access(Access::compute(alloc_compute_cost));
    ++free_calls_;
}

RelocationPool::RelocationPool(SimAllocator &alloc, Addr bytes)
    : bytes_(roundUpToWord(bytes))
{
    base_ = alloc.alloc(bytes_, Placement::sequential);
    cursor_ = base_;
}

Addr
RelocationPool::take(Addr bytes, Addr align)
{
    memfwd_assert(align >= wordBytes && (align & (align - 1)) == 0,
                  "bad pool alignment");
    Addr a = (cursor_ + align - 1) & ~(align - 1);
    bytes = roundUpToWord(bytes);
    memfwd_assert(a + bytes <= base_ + bytes_,
                  "relocation pool exhausted (capacity %llu)",
                  static_cast<unsigned long long>(bytes_));
    cursor_ = a + bytes;
    return a;
}

} // namespace memfwd
