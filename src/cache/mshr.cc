#include "cache/mshr.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memfwd
{

MshrFile::MshrFile(unsigned entries)
    : line_addr_(entries), fill_done_(entries)
{
    memfwd_assert(entries > 0, "MSHR file needs at least one entry");
}

void
MshrFile::expire(Cycles now)
{
    // Keep the unexpired entries, in order, at the front.
    std::uint64_t signature = 0;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < busy_; ++i) {
        const Addr line = line_addr_[i];
        const Cycles fill = fill_done_[i];
        line_addr_[kept] = line;
        fill_done_[kept] = fill;
        const bool busy = fill > now;
        signature |= busy ? signatureBit(line) : 0;
        kept += busy;
    }
    busy_ = kept;
    signature_ = signature;
}

Cycles
MshrFile::outstandingFillSlow(Addr line_addr, Cycles now) const
{
    // At most one unexpired entry holds a line: allocate() is asked for
    // a line only when its last fill is done, and then expires it.
    for (std::size_t i = 0; i < busy_; ++i) {
        if (line_addr_[i] == line_addr && fill_done_[i] > now)
            return fill_done_[i];
    }
    return 0;
}

Cycles
MshrFile::allocate(Addr line_addr, Cycles now)
{
    expire(now);
    Cycles start = now;
    if (busy_ == line_addr_.size()) {
        // Every entry is busy: the miss waits for the earliest fill to
        // retire and takes an entry it frees.
        start = *std::min_element(fill_done_.begin(), fill_done_.end());
        expire(start);
    }
    line_addr_[busy_] = line_addr;
    fill_done_[busy_] = 0;
    ++busy_;
    return start;
}

void
MshrFile::clear()
{
    busy_ = 0;
    signature_ = 0;
    last_fill_ = 0;
}

} // namespace memfwd
