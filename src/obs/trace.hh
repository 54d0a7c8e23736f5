/**
 * @file
 * Bounded event tracing for the forwarding runtime.
 *
 * The Machine (and the subsystems it drives) emits typed TraceEvents —
 * demand references, chain walks, relocations, user-level traps, L1
 * misses, transaction rollbacks — to every registered TraceSink.  The
 * fast path is one branch: when no sink is registered
 * (`Tracer::active()` is false) nothing is constructed and nothing is
 * called, so tracing costs nothing unless somebody is listening.
 *
 * `RingBufferSink` is the standard collector: a fixed-capacity ring
 * that keeps the newest events and counts what it dropped.  Collected
 * events export as one document, `chromeTrace()`: the Trace Event
 * Format that chrome://tracing / about:tracing loads directly, one
 * track per event kind, timestamps in simulated cycles.
 */

#ifndef MEMFWD_OBS_TRACE_HH
#define MEMFWD_OBS_TRACE_HH

#include <cstdint>
#include <vector>

#include "cache/cache_config.hh"
#include "common/types.hh"

namespace memfwd::obs
{

class Json;

/** What happened. */
enum class EventKind : std::uint8_t
{
    reference,  ///< demand load/store with its final address
    chain_walk, ///< a reference took >= 1 forwarding hop
    relocation, ///< relocate() moved words and installed a chain
    trap,       ///< user-level forwarding trap delivered
    cache_miss, ///< demand reference missed L1
    rollback,   ///< transactional relocation rolled back
    ftc,        ///< reference served by the forwarding translation cache
    plan,       ///< relocation plan submitted to the analysis gate
    temporal_violation ///< reference resolved into quarantined memory
};

const char *eventKindName(EventKind kind);
const char *accessTypeName(AccessType type);

/** One traced event.  Field meaning varies slightly by kind:
 *  addr/addr2 are initial/final address for references and walks,
 *  source/target for relocations; arg is hops, words moved, or the
 *  trap site; size is the access size in bytes where applicable. */
struct TraceEvent
{
    EventKind kind = EventKind::reference;
    AccessType access = AccessType::load;
    Cycles ts = 0;
    Addr addr = 0;
    Addr addr2 = 0;
    std::uint64_t arg = 0;
    std::uint32_t size = 0;

    bool operator==(const TraceEvent &) const = default;
};

/** Receives every event while registered with a Tracer.  Not owned. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void emit(const TraceEvent &event) = 0;
};

/** Fixed-capacity ring: keeps the newest events, counts the rest. */
class RingBufferSink : public TraceSink
{
  public:
    explicit RingBufferSink(std::size_t capacity = std::size_t(1) << 16);

    void emit(const TraceEvent &event) override;

    std::size_t capacity() const { return capacity_; }

    /** Events currently held (<= capacity). */
    std::size_t size() const;

    /** Events evicted because the ring was full. */
    std::uint64_t dropped() const;

    /** Events ever emitted at this sink. */
    std::uint64_t total() const { return total_; }

    /** Held events, oldest first. */
    std::vector<TraceEvent> events() const;

    void clear();

  private:
    std::vector<TraceEvent> buf_;
    std::size_t capacity_;
    std::size_t next_ = 0; ///< slot the next event lands in
    std::uint64_t total_ = 0;
};

/** Multi-sink registration point; one per Machine. */
class Tracer
{
  public:
    /** Register @p sink (not owned; must outlive its registration). */
    void addSink(TraceSink *sink);

    /** Unregister; unknown sinks are ignored. */
    void removeSink(TraceSink *sink);

    /** True if any sink is registered — the emit guard. */
    bool active() const { return !sinks_.empty(); }

    void
    emit(const TraceEvent &event)
    {
        for (TraceSink *s : sinks_)
            s->emit(event);
    }

  private:
    std::vector<TraceSink *> sinks_;
};

// ----- exporter ------------------------------------------------------

/**
 * Trace Event Format document for about:tracing.  Events are sorted by
 * timestamp (the viewer requires monotonic input) and grouped into one
 * named track per kind; 1 "us" in the viewer is 1 simulated cycle.
 */
Json chromeTrace(const std::vector<TraceEvent> &events);

} // namespace memfwd::obs

#endif // MEMFWD_OBS_TRACE_HH
