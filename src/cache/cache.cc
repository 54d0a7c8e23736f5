#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "mem/main_memory.hh"

namespace memfwd
{

// ---------------------------------------------------------------------
// MemoryLevel
// ---------------------------------------------------------------------

MemLevel::Result
MemoryLevel::access(Addr addr, AccessType type, Cycles now)
{
    (void)addr;
    (void)type;
    const Cycles ready = mem_.access(now, line_bytes_);
    return {ready, MissKind::full, 0};
}

void
MemoryLevel::writeback(Addr line_addr, Cycles now)
{
    (void)line_addr;
    mem_.access(now, line_bytes_);
}

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

Cache::Cache(const CacheConfig &cfg, MemLevel &below)
    : cfg_(cfg), below_(below), mshrs_(cfg.mshrs)
{
    memfwd_assert(cfg_.validGeometry(),
                  "%s: bad geometry (%u B, %u-way, %u B lines): line and "
                  "set count must each be a power of two, line >= %u B",
                  cfg_.name.c_str(), cfg_.size_bytes, cfg_.assoc,
                  cfg_.line_bytes, wordBytes);
    lines_.resize(static_cast<std::size_t>(cfg_.numSets()) * cfg_.assoc);
    line_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.line_bytes));
    set_mask_ = cfg_.numSets() - 1;
}

unsigned
Cache::setIndex(Addr line_addr) const
{
    return static_cast<unsigned>(line_addr >> line_shift_) & set_mask_;
}

Cache::Line *
Cache::findLineSlow(Addr line_addr)
{
    const unsigned set = setIndex(line_addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * cfg_.assoc];
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (base[w].valid && base[w].tag == line_addr) {
            mru_hint_ = &base[w];
            return &base[w];
        }
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(line_addr);
}

Cache::Line &
Cache::chooseVictim(unsigned set)
{
    Line *base = &lines_[static_cast<std::size_t>(set) * cfg_.assoc];
    // Invalid ways first, regardless of policy.
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (!base[w].valid)
            return base[w];
    }
    switch (cfg_.replacement) {
      case ReplacementPolicy::random: {
        // Deterministic xorshift over the victim stream.
        victim_seed_ ^= victim_seed_ << 13;
        victim_seed_ ^= victim_seed_ >> 7;
        victim_seed_ ^= victim_seed_ << 17;
        return base[victim_seed_ % cfg_.assoc];
      }
      case ReplacementPolicy::fifo: {
        Line *victim = base;
        for (unsigned w = 1; w < cfg_.assoc; ++w) {
            if (base[w].filled < victim->filled)
                victim = &base[w];
        }
        return *victim;
      }
      case ReplacementPolicy::lru:
      default: {
        Line *victim = base;
        for (unsigned w = 1; w < cfg_.assoc; ++w) {
            if (base[w].lru < victim->lru)
                victim = &base[w];
        }
        return *victim;
      }
    }
}

void
Cache::recordAccess(Line &line)
{
    line.lru = ++lru_clock_;
}

bool
Cache::contains(Addr addr) const
{
    return findLine(lineAlign(addr)) != nullptr;
}

void
Cache::flush()
{
    for (auto &l : lines_)
        l = Line();
}

MemLevel::Result
Cache::access(Addr addr, AccessType type, Cycles now)
{
    const Addr line_addr = lineAlign(addr);

    if (Line *line = findLine(line_addr)) {
        recordAccess(*line);
        if (type == AccessType::store)
            line->dirty = true;
        if (line->prefetched && type != AccessType::prefetch) {
            line->prefetched = false;
            ++stats_.useful_prefetches;
        }

        // The line is installed eagerly at miss time, so a "hit" may be
        // to a line whose fill is still in flight: that is the paper's
        // *partial miss* — it combines with the outstanding miss and
        // waits only the remaining latency.
        if (Cycles fill = mshrs_.outstandingFill(line_addr, now)) {
            switch (type) {
              case AccessType::load:
                ++stats_.load_partial_misses;
                break;
              case AccessType::store:
                ++stats_.store_partial_misses;
                break;
              case AccessType::prefetch:
                ++stats_.prefetch_hits;
                break;
            }
            const Cycles ready = std::max(fill, now + cfg_.hit_latency);
            return {ready, MissKind::partial, 0};
        }

        switch (type) {
          case AccessType::load:
            ++stats_.load_hits;
            break;
          case AccessType::store:
            ++stats_.store_hits;
            break;
          case AccessType::prefetch:
            ++stats_.prefetch_hits;
            break;
        }
        return {now + cfg_.hit_latency, MissKind::hit, 0};
    }

    // Miss.  First see whether a fill for this line is already in
    // flight — if so, combine with it (a "partial miss").
    if (Cycles fill = mshrs_.outstandingFill(line_addr, now)) {
        switch (type) {
          case AccessType::load:
            ++stats_.load_partial_misses;
            break;
          case AccessType::store:
            ++stats_.store_partial_misses;
            break;
          case AccessType::prefetch:
            ++stats_.prefetch_hits; // combined; no new traffic
            break;
        }
        // The line will be resident when the fill completes; a store
        // combining with the fill dirties it then.
        const Cycles ready = std::max(fill, now + cfg_.hit_latency);
        if (type == AccessType::store) {
            if (Line *line = findLine(line_addr))
                line->dirty = true;
        }
        return {ready, MissKind::partial, 1};
    }

    // Full miss: allocate an MSHR (possibly waiting for a free one) and
    // fetch the line from below.
    const Cycles start = mshrs_.allocate(line_addr, now);
    const Result below = below_.access(line_addr, type,
                                       start + cfg_.hit_latency);
    mshrs_.complete(line_addr, below.ready);

    switch (type) {
      case AccessType::load:
        ++stats_.load_full_misses;
        break;
      case AccessType::store:
        ++stats_.store_full_misses;
        break;
      case AccessType::prefetch:
        ++stats_.prefetch_misses;
        break;
    }
    stats_.bytes_in += cfg_.line_bytes;

    // Install the line now (simulation state is eager; timing is carried
    // by the returned ready cycle and the MSHR entry).
    const unsigned set = setIndex(line_addr);
    Line &victim = chooseVictim(set);
    if (victim.valid && victim.dirty) {
        ++stats_.writebacks;
        stats_.bytes_out += cfg_.line_bytes;
        below_.writeback(victim.tag, below.ready);
    }
    victim.valid = true;
    victim.tag = line_addr;
    victim.dirty = (type == AccessType::store);
    victim.prefetched = (type == AccessType::prefetch);
    recordAccess(victim);
    victim.filled = victim.lru;
    mru_hint_ = &victim;

    return {below.ready, MissKind::full, below.depth + 1};
}

void
Cache::writeback(Addr line_addr, Cycles now)
{
    // A dirty line arrives from the level above.  If we hold the line,
    // just mark it dirty; otherwise allocate it without fetching from
    // below (the incoming data is the whole line).
    if (Line *line = findLine(line_addr)) {
        line->dirty = true;
        recordAccess(*line);
        return;
    }
    const unsigned set = setIndex(line_addr);
    Line &victim = chooseVictim(set);
    if (victim.valid && victim.dirty) {
        ++stats_.writebacks;
        stats_.bytes_out += cfg_.line_bytes;
        below_.writeback(victim.tag, now);
    }
    victim.valid = true;
    victim.tag = line_addr;
    victim.dirty = true;
    victim.prefetched = false;
    recordAccess(victim);
    victim.filled = victim.lru;
    mru_hint_ = &victim;
}

void
Cache::fillMetrics(obs::MetricsNode &into) const
{
    into.counter("load_hits", stats_.load_hits);
    into.counter("load_partial_misses", stats_.load_partial_misses);
    into.counter("load_full_misses", stats_.load_full_misses);
    into.counter("store_hits", stats_.store_hits);
    into.counter("store_partial_misses", stats_.store_partial_misses);
    into.counter("store_full_misses", stats_.store_full_misses);
    into.counter("prefetch_hits", stats_.prefetch_hits);
    into.counter("prefetch_misses", stats_.prefetch_misses);
    into.counter("writebacks", stats_.writebacks);
    into.counter("bytes_in", stats_.bytes_in);
    into.counter("bytes_out", stats_.bytes_out);
    into.counter("useful_prefetches", stats_.useful_prefetches);
    const std::uint64_t demand = stats_.demandAccesses();
    if (demand) {
        into.gauge("miss_rate",
                   double(stats_.loadMisses() + stats_.storeMisses()) /
                       double(demand));
    }
}

} // namespace memfwd
