#include "mem/tagged_memory.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"

namespace memfwd
{

TaggedMemory::Granule
TaggedMemory::materialize(Addr addr)
{
    const Addr key = granuleKey(addr);
    const auto id = static_cast<FlatPageIndex::Value>(fbits_.size());
    if (id % slabGranules == 0)
        slabs_.push_back(std::make_unique_for_overwrite<Slab>());
    // Zero only the granule being materialized, so a slab's host pages
    // are touched as its granules are, not all at once.
    std::fill_n(granuleData(id), pageWords, Word(0));
    fbits_.push_back(0);
    index_.insert(key, id);
    last_key_ = key;
    last_id_ = id;
    last_data_ = granuleData(id);
    return {last_data_, &fbits_[id]};
}

void
TaggedMemory::rawWriteWord(Addr addr, Word value)
{
    const Granule g = granule(addr);
    const unsigned idx = wordIndex(addr);
    // Rewriting the payload of a forwarding word redirects its chain.
    const bool notify =
        listener_ && (*g.fbits >> idx & 1) && g.data[idx] != value;
    g.data[idx] = value;
    if (notify)
        listener_->fwdStateChanged(wordAlign(addr), true);
}

void
TaggedMemory::setFBit(Addr addr, bool value)
{
    const Granule g = granule(addr);
    const FbitMask bit = FbitMask(1) << wordIndex(addr);
    const bool old = (*g.fbits & bit) != 0;
    *g.fbits = value ? *g.fbits | bit : *g.fbits & ~bit;
    if (listener_ && old != value)
        listener_->fwdStateChanged(wordAlign(addr), old);
}

void
TaggedMemory::unforwardedWrite(Addr addr, Word value, bool fbit_value)
{
    const Granule g = granule(addr);
    const unsigned idx = wordIndex(addr);
    const FbitMask bit = FbitMask(1) << idx;
    const bool old = (*g.fbits & bit) != 0;
    // Untagged data staying untagged is the common, chain-neutral case;
    // everything else can redirect, create, or sever a chain.
    const bool notify = listener_ && (old || fbit_value)
                        && (old != fbit_value || g.data[idx] != value);
    // Simulated memory is single-threaded, so updating both fields
    // back-to-back models the atomic word+tag write the ISA requires.
    g.data[idx] = value;
    *g.fbits = fbit_value ? *g.fbits | bit : *g.fbits & ~bit;
    if (notify)
        listener_->fwdStateChanged(wordAlign(addr), old);
}

void
TaggedMemory::writeBytes(Addr addr, unsigned size, std::uint64_t value)
{
    const unsigned off = wordOffset(addr);
    memfwd_assert(size == 1 || size == 2 || size == 4 || size == 8,
                  "bad access size %u", size);
    memfwd_assert(off + size <= wordBytes,
                  "access crosses word boundary: addr=%#llx size=%u",
                  static_cast<unsigned long long>(addr), size);
    if (size == 8) {
        rawWriteWord(addr, value);
        return;
    }
    const unsigned shift = off * 8;
    const std::uint64_t mask =
        ((std::uint64_t(1) << (size * 8)) - 1) << shift;
    Word w = rawReadWord(addr);
    w = (w & ~mask) | ((value << shift) & mask);
    rawWriteWord(addr, w);
}

bool
TaggedMemory::isMapped(Addr addr) const
{
    return granuleIfPresent(addr).data != nullptr;
}

std::vector<std::pair<Addr, FlatPageIndex::Value>>
TaggedMemory::granulesIn(Addr first, Addr last) const
{
    std::vector<std::pair<Addr, FlatPageIndex::Value>> found;
    index_.forEach([&](Addr key, FlatPageIndex::Value id) {
        if (key >= first && key <= last)
            found.emplace_back(key, id);
    });
    std::sort(found.begin(), found.end());
    return found;
}

std::vector<Addr>
TaggedMemory::mappedPageBases() const
{
    std::vector<Addr> bases;
    bases.reserve(index_.size());
    for (const auto &[key, id] : granulesIn(0, ~Addr(0)))
        bases.push_back(key * pageBytes);
    return bases;
}

void
TaggedMemory::forEachForwardedWord(
    const std::function<void(Addr, Word)> &fn) const
{
    for (const auto &[key, id] : granulesIn(0, ~Addr(0))) {
        const Word *data = granuleData(id);
        for (FbitMask m = fbits_[id]; m != 0; m &= m - 1) {
            const unsigned i = static_cast<unsigned>(std::countr_zero(m));
            fn(key * pageBytes + Addr(i) * wordBytes, data[i]);
        }
    }
}

std::uint64_t
TaggedMemory::fbitCount() const
{
    std::uint64_t count = 0;
    for (const FbitMask m : fbits_)
        count += static_cast<unsigned>(std::popcount(m));
    return count;
}

void
TaggedMemory::initializeRegion(Addr addr, Addr bytes)
{
    memfwd_assert(isWordAligned(addr) && isWordAligned(bytes),
                  "initializeRegion must be word-aligned");
    if (bytes != 0)
        sweepRegion(addr, addr + bytes);
    // Freshly initialized memory belongs to no object: drop any stale
    // metadata so a recycled quarantine slot can never false-positive.
    if (meta_plane_)
        meta_plane_->clearRange(addr, bytes);
}

void
TaggedMemory::sweepRegion(Addr addr, Addr end)
{
    // Granules never materialized are already all-zero with clear
    // forwarding bits, so only materialized ones need sweeping.
    const Addr first = granuleKey(addr);
    const Addr last = granuleKey(end - 1);
    // Zero one granule's words in range and their forwarding bits in one
    // step, then make the calls a per-word unforwardedWrite(w, 0, false)
    // sweep would: (word, true) once per set bit, ascending.
    const auto sweep = [&](Addr key, FlatPageIndex::Value id) {
        const unsigned lo = key == first ? wordIndex(addr) : 0;
        const unsigned hi = key == last ? wordIndex(end - 1) + 1 : pageWords;
        std::fill(granuleData(id) + lo, granuleData(id) + hi, Word(0));
        const FbitMask span =
            static_cast<FbitMask>((std::uint64_t(1) << (hi - lo)) - 1) << lo;
        FbitMask cleared = fbits_[id] & span;
        fbits_[id] &= ~span;
        for (; listener_ && cleared != 0; cleared &= cleared - 1) {
            const auto i = static_cast<unsigned>(std::countr_zero(cleared));
            listener_->fwdStateChanged(key * pageBytes + Addr(i) * wordBytes,
                                       true);
        }
    };
    // Visiting the materialized granules walks every slot of the index,
    // so look the range's granules up one by one unless there are more
    // of them than slots (an empty index still has slots to walk).
    if (last - first < index_.capacity()) {
        for (Addr key = first; key <= last; ++key) {
            const FlatPageIndex::Value id = index_.find(key);
            if (id != FlatPageIndex::no_value)
                sweep(key, id);
        }
        return;
    }
    // The range spans more granules than the index has slots
    // (relocation pools, whole arenas): visit the materialized ones.
    for (const auto &[key, id] : granulesIn(first, last))
        sweep(key, id);
}

MetadataPlane &
TaggedMemory::enableMetadataPlane()
{
    if (!meta_plane_)
        meta_plane_ = std::make_unique<MetadataPlane>();
    return *meta_plane_;
}

} // namespace memfwd
