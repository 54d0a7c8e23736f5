#include "core/forwarding_engine.hh"

#include <algorithm>

#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "core/fault_injector.hh"
#include "mem/tagged_memory.hh"

namespace memfwd
{

const char *
cyclePolicyName(CyclePolicy policy)
{
    switch (policy) {
      case CyclePolicy::abort:
        return "abort";
      case CyclePolicy::trap:
        return "trap";
      case CyclePolicy::quarantine:
        return "quarantine";
    }
    return "?";
}

// ----- TranslationCache ----------------------------------------------

namespace
{

unsigned
roundUpPow2(unsigned v)
{
    unsigned p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

void
TranslationCache::configure(unsigned sets, unsigned ways)
{
    sets_ = roundUpPow2(sets ? sets : 1);
    ways_ = ways ? ways : 1;
    tick_ = 0;
    entries_.assign(std::size_t(sets_) * ways_, Entry{});
}

TranslationCache::Entry *
TranslationCache::set(Addr word)
{
    const std::size_t idx = (word >> wordShift) & (sets_ - 1);
    return entries_.data() + idx * ways_;
}

const TranslationCache::Entry *
TranslationCache::lookup(Addr word)
{
    if (entries_.empty())
        return nullptr;
    Entry *row = set(word);
    for (unsigned w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].start == word) {
            row[w].lru = ++tick_;
            return &row[w];
        }
    }
    return nullptr;
}

void
TranslationCache::insert(Addr start, Addr final_word, unsigned hops)
{
    if (entries_.empty())
        return;
    Entry *row = set(start);
    Entry *victim = row;
    for (unsigned w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].start == start) {
            victim = &row[w];
            break;
        }
        if (!row[w].valid)
            victim = &row[w];
        else if (victim->valid && row[w].lru < victim->lru)
            victim = &row[w];
    }
    *victim = {start, final_word, hops, ++tick_, true};
}

Addr
TranslationCache::peek(Addr word) const
{
    if (entries_.empty())
        return 0;
    const std::size_t idx = (word >> wordShift) & (sets_ - 1);
    const Entry *row = entries_.data() + idx * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].start == word)
            return row[w].final_word;
    }
    return 0;
}

std::uint64_t
TranslationCache::invalidateStart(Addr word)
{
    if (entries_.empty())
        return 0;
    Entry *row = set(word);
    for (unsigned w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].start == word) {
            row[w] = Entry{};
            return 1;
        }
    }
    return 0;
}

std::uint64_t
TranslationCache::invalidateFinal(Addr word)
{
    std::uint64_t dropped = 0;
    for (Entry &e : entries_) {
        if (e.valid && e.final_word == word) {
            e = Entry{};
            ++dropped;
        }
    }
    return dropped;
}

std::uint64_t
TranslationCache::flush()
{
    std::uint64_t dropped = 0;
    for (Entry &e : entries_) {
        if (e.valid) {
            e = Entry{};
            ++dropped;
        }
    }
    return dropped;
}

std::uint64_t
TranslationCache::entryCount() const
{
    std::uint64_t n = 0;
    for (const Entry &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

// ----- ForwardingEngine ----------------------------------------------

ForwardingEngine::ForwardingEngine(TaggedMemory &mem,
                                   MemoryHierarchy &hierarchy,
                                   const ForwardingConfig &cfg)
    : mem_(mem), hierarchy_(hierarchy), cfg_(cfg),
      limits_{cfg.hop_limit, cfg.mode == ForwardingConfig::Mode::exception
                                 ? cfg.max_handler_retries
                                 : ~0u}
{
    memfwd_assert(cfg_.hop_limit >= 1, "hop limit must be at least 1");
    if (cfg_.ftc_enabled) {
        ftc_.configure(cfg_.ftc_sets, cfg_.ftc_ways);
        // Cached translations are derived chain state: the memory must
        // report every mutation that could stale them.
        mem_.setFwdStateListener(this);
    }
}

ForwardingEngine::~ForwardingEngine()
{
    if (mem_.fwdStateListener() == this)
        mem_.setFwdStateListener(nullptr);
}

void
ForwardingEngine::fwdStateChanged(Addr word, bool was_fbit)
{
    if (self_write_)
        return; // the collapse rewrite preserves every cached resolution
    if (!was_fbit) {
        // The word just became forwarded.  It was a chain tail (or plain
        // data), so only entries that resolved *to* it are stale.
        stats_.ftc_invalidations += ftc_.invalidateFinal(word);
    } else {
        // An existing forwarding word was redirected or severed; it may
        // sit in the middle of any cached chain, so drop everything.
        stats_.ftc_invalidations += ftc_.flush();
    }
}

Addr
ForwardingEngine::ftcPeek(Addr addr) const
{
    return ftc_.peek(wordAlign(addr));
}

Addr
ForwardingEngine::quarantinePin(Addr word) const
{
    auto it = quarantined_.find(wordAlign(word));
    return it == quarantined_.end() ? 0 : it->second;
}

void
ForwardingEngine::temporalCheck(Addr addr, Addr final_addr, unsigned hops,
                                AccessType type, Cycles t, SiteId site,
                                Addr pointer_slot, std::uint32_t object_id)
{
    if (type == AccessType::prefetch)
        return;
    const MetadataPlane::Meta meta = plane_->get(wordAlign(final_addr));
    if (!MetadataPlane::isQuarantined(meta))
        return;
    // The reference resolved into the quarantined remains of a freed
    // object.  Provenance classifies it: a pointer derived from the
    // dead object itself is a use-after-free; anything else strayed in
    // from outside (out-of-bounds into a freed slot).
    const bool uaf =
        object_id != 0 && MetadataPlane::objectId(meta) == object_id;
    if (uaf)
        ++stats_.temporal_uaf;
    else
        ++stats_.temporal_oob;
    traps_.deliver({site, addr, final_addr, hops, pointer_slot,
                    TrapKind::TemporalViolation});
    if (tracer_ && tracer_->active()) {
        tracer_->emit({obs::EventKind::temporal_violation, type, t, addr,
                       final_addr, uaf ? 1u : 0u, 0});
    }
}

Addr
ForwardingEngine::condemn(Addr word, const ChainWalk &w, SiteId site)
{
    // A cycle pins at the pre-cycle address; corruption at the corrupt
    // word itself, the last address still trustworthy as a location.
    const bool cycle = w.end == ChainEnd::cycle;
    const Addr pin = cycle ? w.check.pre_cycle : w.word;
    ++(cycle ? stats_.cycles_detected : stats_.corrupt_forwards);
    const CyclePolicy policy = cfg_.cycle_policy;
    if (policy == CyclePolicy::abort
        || (policy == CyclePolicy::trap && !traps_.armed())) {
        if (cycle)
            throw ForwardingCycleError(word, w.check.length, site,
                                       cyclePolicyName(policy));
        throw ForwardingIntegrityError(w.word, w.payload, site);
    }
    // The trap handler learns the context through the ordinary trap
    // channel: initial address, the pin it will resolve to, and the
    // chain length walked.
    if (policy == CyclePolicy::trap)
        traps_.deliver({site, word, pin, cycle ? w.check.length : 0, 0});
    stats_.cycles_quarantined += cycle ? 1 : 0;
    quarantined_[word] = pin;
    return pin;
}

namespace
{

/** resolve(): each hop is a load through the hierarchy; all costs count. */
struct TimedHops
{
    static constexpr bool timed = true;

    MemoryHierarchy &hierarchy;
    const ForwardingConfig &cfg;
    ForwardingStats &stats;
    Cycles t;
    bool missed = false; ///< any hop access missed in L1

    void
    operator()(Addr word)
    {
        // The hop reads the forwarding word through the cache — the
        // pollution effect Section 5.4 measures.
        const HierarchyResult r = hierarchy.access(word, AccessType::load, t);
        missed |= r.kind != MissKind::hit;
        t = r.ready + cfg.hop_cost;
    }

    void overflow() { t += cfg.cycle_check_cost; }

    void
    falseAlarm(unsigned retries)
    {
        // The exception handler re-walks with exponential backoff.
        if (cfg.mode != ForwardingConfig::Mode::exception)
            return;
        const Cycles backoff =
            cfg.retry_backoff_base << std::min(retries - 1, 16u);
        t += backoff;
        stats.backoff_cycles += backoff;
    }
};

/** resolveFunctional() and perfect mode: no cache access, no cycles. */
struct UntimedHops
{
    static constexpr bool timed = false;

    Cycles t = 0;
    bool missed = false;

    void operator()(Addr) {}
};

} // namespace

const TranslationCache::Entry *
ForwardingEngine::ftcHit(Addr word)
{
    if (const TranslationCache::Entry *e = ftc_.lookup(word)) {
        // Invalidation keeps entries whose final word regrew a chain out
        // of the cache; re-check defensively and re-walk rather than
        // serve a non-terminal address.
        if (!mem_.fbit(e->final_word)) {
            ++stats_.ftc_hits;
            return e;
        }
        stats_.ftc_invalidations += ftc_.invalidateStart(word);
    }
    ++stats_.ftc_misses;
    return nullptr;
}

template <class Timing>
WalkResult
ForwardingEngine::walk(Addr addr, AccessType type, Timing &timing,
                       SiteId site, Addr pointer_slot,
                       std::uint32_t object_id)
{
    const Addr word = wordAlign(addr);
    const unsigned offset = wordOffset(addr);
    const Cycles start = timing.t;

    if (!mem_.fbit(word)) {
        // Common case: not forwarded.  The forwarding bit travels with
        // the line, so the test itself costs nothing extra (it is part
        // of the eventual data access).
        stats_.recordHops(0);
        return {addr, 0, start, 0, false, false};
    }

    // A chain already proven unresolvable serves its pin directly: the
    // quarantine entry exists precisely so execution can continue
    // without re-walking a poisoned chain.
    if (auto it = quarantined_.find(word); it != quarantined_.end()) {
        ++stats_.quarantine_hits;
        stats_.recordHops(0);
        return {it->second + offset, 0, start, 0, false, true};
    }

    if (faults_)
        faults_->corruptChain(mem_, word, FaultSite::resolve);

    // Perfect forwarding is the idealized bound (Figure 10's Perf): the
    // chain resolves with no time or cache effects and no reference is
    // ever "forwarded", as if every pointer had been updated in advance.
    const bool perfect = cfg_.mode == ForwardingConfig::Mode::perfect;

    // Translation-cache shortcut: a hit serves the final address for
    // ftc_hit_cost cycles with no hop accesses (hence no pollution) and,
    // in exception mode, no exception.  Looked up after the fault hook
    // so an injected corruption invalidates the cache (through the
    // mutation listener) before it could be served stale.
    const TranslationCache::Entry *hit = nullptr;
    if (Timing::timed && !perfect && cfg_.ftc_enabled)
        hit = ftcHit(word);

    Addr final_word = word;
    unsigned hops = 0;      // hops walked (0 on an FTC hit)
    unsigned trap_hops = 0; // chain length the trap reports
    Cycles t = start;
    if (hit) {
        final_word = hit->final_word;
        trap_hops = hit->hops; // measured by the fill-time walk
        t = start + cfg_.ftc_hit_cost;
        if (tracer_ && tracer_->active()) {
            tracer_->emit({obs::EventKind::ftc, type, t, addr,
                           final_word + offset, trap_hops, 0});
        }
    } else {
        if (Timing::timed && cfg_.mode == ForwardingConfig::Mode::exception)
            timing.t += cfg_.exception_cost;
        UntimedHops uncharged;
        const ChainWalk w = perfect ? walkChain(mem_, word, limits_, uncharged)
                                    : walkChain(mem_, word, limits_, timing);
        stats_.false_alarms += w.false_alarms;
        if (cfg_.mode == ForwardingConfig::Mode::exception)
            stats_.handler_retries += w.false_alarms;
        t = timing.t;
        if (w.end != ChainEnd::tail) {
            const Addr pin = condemn(word, w, site);
            return {pin + offset, perfect ? 0 : w.hops, t, t - start,
                    timing.missed, !perfect};
        }
        final_word = w.word;
        trap_hops = w.hops;
        if (!perfect) {
            hops = w.hops;
            ++stats_.walks;
            stats_.hops += hops;
            stats_.hop_l1_misses += timing.missed ? 1 : 0;
        }

        if (Timing::timed && !perfect) {
            // Lazy chain collapsing: a long-enough walk earns a rewrite
            // of the chain head straight at the final word, so later
            // references pay at most one hop.  The rewrite is one store
            // to the head word (which the walk's first hop just pulled
            // into the cache) and preserves the resolution of every
            // pointer into the chain.
            if (cfg_.collapse_enabled && collapse_suspend_ == 0
                && hops >= cfg_.collapse_threshold && final_word != word) {
                self_write_ = true;
                mem_.unforwardedWrite(word, final_word, true);
                self_write_ = false;
                t = hierarchy_.access(word, AccessType::store, t).ready;
                ++stats_.chains_collapsed;
            }
            // The freshly-walked translation is the best possible fill.
            if (cfg_.ftc_enabled)
                ftc_.insert(word, final_word, hops);
        }
    }

    stats_.recordHops(hops);
    const Addr final_addr = final_word + offset;
    // The user-level trap fires on FTC hits too: stale-pointer tracking
    // must see the same events with and without the cache.  Under
    // perfect forwarding no reference is forwarded, so none traps.
    if (!perfect && traps_.armed() && type != AccessType::prefetch) {
        traps_.deliver({site, addr, final_addr, trap_hops, pointer_slot});
        if (Timing::timed && tracer_ && tracer_->active()) {
            tracer_->emit({obs::EventKind::trap, type, t, addr,
                           final_addr, trap_hops, 0});
        }
    }
    if (plane_)
        temporalCheck(addr, final_addr, trap_hops, type, t, site,
                      pointer_slot, object_id);
    return {final_addr, hops, t, t - start, timing.missed, !perfect};
}

WalkResult
ForwardingEngine::resolve(Addr addr, AccessType type, Cycles start,
                          SiteId site, Addr pointer_slot,
                          std::uint32_t object_id)
{
    TimedHops timing{hierarchy_, cfg_, stats_, start};
    return walk(addr, type, timing, site, pointer_slot, object_id);
}

WalkResult
ForwardingEngine::resolveFunctional(Addr addr, AccessType type,
                                    SiteId site, Addr pointer_slot,
                                    std::uint32_t object_id)
{
    UntimedHops timing;
    return walk(addr, type, timing, site, pointer_slot, object_id);
}

void
ForwardingEngine::fillMetrics(obs::MetricsNode &into) const
{
    into.counter("walks", stats_.walks);
    into.counter("hops", stats_.hops);
    into.counter("hop_l1_misses", stats_.hop_l1_misses);
    into.counter("false_alarms", stats_.false_alarms);
    into.counter("cycles_detected", stats_.cycles_detected);
    into.counter("cycles_quarantined", stats_.cycles_quarantined);
    into.counter("corrupt_forwards", stats_.corrupt_forwards);
    into.counter("quarantine_hits", stats_.quarantine_hits);
    into.counter("handler_retries", stats_.handler_retries);
    into.counter("backoff_cycles", stats_.backoff_cycles);
    into.counter("ftc_hits", stats_.ftc_hits);
    into.counter("ftc_misses", stats_.ftc_misses);
    into.counter("ftc_invalidations", stats_.ftc_invalidations);
    into.counter("chains_collapsed", stats_.chains_collapsed);
    if (stats_.walks)
        into.gauge("hops_per_walk",
                   double(stats_.hops) / double(stats_.walks));
    if (stats_.ftc_hits + stats_.ftc_misses)
        into.gauge("ftc_hit_rate",
                   double(stats_.ftc_hits)
                       / double(stats_.ftc_hits + stats_.ftc_misses));

    auto &hist = into.distribution("hop_hist");
    for (std::size_t h = 0; h < stats_.hop_histogram.size(); ++h)
        hist.record(h, stats_.hop_histogram[h]);
}

void
ForwardingEngine::forwardWord(Addr src, Addr tgt)
{
    memfwd_assert(isWordAligned(src) && isWordAligned(tgt),
                  "relocation endpoints must be word-aligned "
                  "(src=%#llx tgt=%#llx)",
                  static_cast<unsigned long long>(src),
                  static_cast<unsigned long long>(tgt));
    // Copy the payload, then atomically install the forwarding address
    // and set the bit (Figure 1(b)).
    const Word value = mem_.rawReadWord(src);
    mem_.rawWriteWord(tgt, value);
    mem_.unforwardedWrite(src, tgt, true);
}

} // namespace memfwd
