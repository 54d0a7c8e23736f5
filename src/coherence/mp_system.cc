#include "coherence/mp_system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/chain_walk.hh"

namespace memfwd
{

MpSystem::MpSystem(const MpConfig &cfg)
    : cfg_(cfg), clocks_(cfg.processors, 0)
{
    memfwd_assert(cfg_.processors >= 1, "need at least one processor");
    for (unsigned p = 0; p < cfg_.processors; ++p) {
        caches_.push_back(std::make_unique<CoherentCache>(
            cfg_.cache_bytes, cfg_.assoc, cfg_.line_bytes, bus_));
    }
}

Addr
MpSystem::chase(unsigned cpu, Addr word)
{
    // Each hop reads the forwarding word through this processor's cache
    // (a coherent read: the word may be written by a relocating peer).
    return chainTail(mem_, word, ChainLimits{},
                     [this, cpu](Addr hop) {
                         clocks_[cpu] = caches_[cpu]->load(hop, clocks_[cpu]);
                     });
}

Addr
MpSystem::resolve(unsigned cpu, Addr addr)
{
    const Addr word = wordAlign(addr);
    if (!mem_.fbit(word))
        return addr;
    const Addr tail = chase(cpu, word);
    ++forwarded_refs_;
    return tail + wordOffset(addr);
}

std::uint64_t
MpSystem::load(unsigned cpu, Addr addr, unsigned size)
{
    memfwd_assert(cpu < cfg_.processors, "bad cpu %u", cpu);
    const Addr final = resolve(cpu, addr);
    clocks_[cpu] = caches_[cpu]->load(final, clocks_[cpu]);
    return mem_.readBytes(final, size);
}

void
MpSystem::store(unsigned cpu, Addr addr, unsigned size,
                std::uint64_t value)
{
    memfwd_assert(cpu < cfg_.processors, "bad cpu %u", cpu);
    const Addr final = resolve(cpu, addr);
    clocks_[cpu] = caches_[cpu]->store(final, clocks_[cpu]);
    mem_.writeBytes(final, size, value);
}

void
MpSystem::compute(unsigned cpu, std::uint64_t n)
{
    memfwd_assert(cpu < cfg_.processors, "bad cpu %u", cpu);
    clocks_[cpu] += n;
}

void
MpSystem::relocate(unsigned cpu, Addr src, Addr tgt, unsigned n_words)
{
    memfwd_assert(isWordAligned(src) && isWordAligned(tgt),
                  "relocate endpoints must be word-aligned");
    for (unsigned i = 0; i < n_words; ++i) {
        // Chase to the chain tail (Read_FBit + Unforwarded_Read are
        // coherent reads).
        const Addr s = chase(cpu, src + Addr(i) * wordBytes);
        const Addr t = tgt + Addr(i) * wordBytes;
        // Copy the payload, then install the forwarding address — a
        // coherent write, so every peer's stale copy is invalidated
        // and later reads see the tag.
        clocks_[cpu] = caches_[cpu]->load(s, clocks_[cpu]);
        const Word value = mem_.rawReadWord(s);
        clocks_[cpu] = caches_[cpu]->store(t, clocks_[cpu]);
        mem_.rawWriteWord(t, value);
        clocks_[cpu] = caches_[cpu]->store(s, clocks_[cpu]);
        mem_.unforwardedWrite(s, t, true);
    }
}

Cycles
MpSystem::elapsed() const
{
    return *std::max_element(clocks_.begin(), clocks_.end());
}

std::vector<Addr>
separateToLines(MpSystem &sys, unsigned cpu,
                const std::vector<Addr> &items, unsigned item_words,
                Addr pool_base)
{
    const unsigned line = sys.config().line_bytes;
    const Addr stride =
        std::max<Addr>(line, roundUpToWord(Addr(item_words) * wordBytes));
    std::vector<Addr> homes;
    homes.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const Addr home = pool_base + Addr(i) * stride;
        sys.relocate(cpu, items[i], home, item_words);
        homes.push_back(home);
    }
    return homes;
}

} // namespace memfwd
