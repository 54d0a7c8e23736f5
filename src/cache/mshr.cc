#include "cache/mshr.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memfwd
{

MshrFile::MshrFile(unsigned entries) : slots_(entries)
{
    memfwd_assert(entries > 0, "MSHR file needs at least one entry");
}

void
MshrFile::expire(Cycles now)
{
    for (auto &e : slots_) {
        if (e.fill_done <= now)
            e.fill_done = 0;
    }
}

Cycles
MshrFile::outstandingFillSlow(Addr line_addr, Cycles now) const
{
    for (const auto &e : slots_) {
        if (e.fill_done > now && e.line_addr == line_addr)
            return e.fill_done;
    }
    return 0;
}

Cycles
MshrFile::allocate(Addr line_addr, Cycles now)
{
    expire(now);
    Cycles start = now;
    auto slot = std::find_if(slots_.begin(), slots_.end(),
                             [](const Entry &e) { return e.fill_done == 0; });
    if (slot == slots_.end()) {
        // Every entry is busy: the miss waits for the earliest fill to
        // retire and takes the first entry that frees.
        slot = std::min_element(slots_.begin(), slots_.end(),
                                [](const Entry &a, const Entry &b) {
                                    return a.fill_done < b.fill_done;
                                });
        start = slot->fill_done;
        expire(start);
    }
    slot->line_addr = line_addr;
    reserved_ = static_cast<std::size_t>(slot - slots_.begin());
    return start;
}

} // namespace memfwd
