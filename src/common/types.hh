/**
 * @file
 * Fundamental scalar types shared by every memfwd subsystem.
 *
 * The simulated machine is a 64-bit architecture, matching the paper's
 * assumption that a pointer (and therefore the minimum relocatable unit,
 * a "word") is 64 bits wide.  One forwarding bit is attached to each
 * 64-bit word, giving the 1.5% space overhead quoted in Section 2.1.
 */

#ifndef MEMFWD_COMMON_TYPES_HH
#define MEMFWD_COMMON_TYPES_HH

#include <cstdint>

namespace memfwd
{

/** A simulated virtual address. */
using Addr = std::uint64_t;

/** A 64-bit memory word: the minimum unit of relocation. */
using Word = std::uint64_t;

/** A point in simulated time, measured in CPU cycles. */
using Cycles = std::uint64_t;

/** Number of bytes in a relocatable word. */
constexpr unsigned wordBytes = 8;

/** log2(wordBytes), for cheap shifts. */
constexpr unsigned wordShift = 3;

/** Round an address down to its containing word. */
constexpr Addr
wordAlign(Addr a)
{
    return a & ~Addr(wordBytes - 1);
}

/** Byte offset of an address within its word. */
constexpr unsigned
wordOffset(Addr a)
{
    return static_cast<unsigned>(a & Addr(wordBytes - 1));
}

/** True if the address is word-aligned. */
constexpr bool
isWordAligned(Addr a)
{
    return wordOffset(a) == 0;
}

/** Round a size up to a whole number of words. */
constexpr Addr
roundUpToWord(Addr n)
{
    return (n + wordBytes - 1) & ~Addr(wordBytes - 1);
}

/**
 * Which layout backend mediates allocation and relocation
 * (runtime/layout_backend.hh).  Lives here, with LayoutBackendStats, so
 * MachineConfig can carry the selection and Machine the counters
 * without pulling the backend headers into every translation unit.
 */
enum class BackendKind : std::uint8_t
{
    /** The paper's mechanism: relocation forwards stale pointers. */
    forwarding,
    /** Handle-indirection table: every access pays a dependent load. */
    handles,
    /** No relocation permitted: compaction refuses, fragmentation accrues. */
    none,
};

/**
 * Mediation counters of the layout backends (metrics "backend.*").  The
 * Machine holds one record that every backend built on it counts into.
 */
struct LayoutBackendStats
{
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    /** Successful relocations (raw-range or object compactions). */
    std::uint64_t relocations = 0;
    /** Relocation/compaction requests the backend refused. */
    std::uint64_t refusals = 0;
    std::uint64_t relocated_words = 0;
    /** resolve() calls (one per mediated pointer dereference). */
    std::uint64_t resolves = 0;
    /** Timed handle-table loads (handles backend only). */
    std::uint64_t handle_derefs = 0;
    /** compactObject() calls that moved an object. */
    std::uint64_t compactions = 0;
};

} // namespace memfwd

#endif // MEMFWD_COMMON_TYPES_HH
