/**
 * @file
 * kv_server implementation — see kv_server.hh for the design.
 *
 * Every simulated pointer in this workload is a BackendRef resolved
 * through LayoutBackend::resolve(), never a raw address held by the
 * program, which is what lets the identical kernel run under
 * forwarding, handle indirection and no-relocation.  The host-side
 * directory (key -> refs) stands in for the server's index structure;
 * the timed work is the record traversals, fills and relocations.
 */

#include "workloads/kv_server.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "runtime/layout_backend.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/workload_util.hh"

namespace memfwd
{

namespace
{

// Header layout (4 words): key, block count, head BackendRef, pad.
constexpr unsigned hdr_key = 0;
constexpr unsigned hdr_nblocks = 8;
constexpr unsigned hdr_head = 16;
constexpr unsigned hdr_bytes = 32;

// Value block: one link word (BackendRef of the next block, 0 at the
// tail) followed by the data words.
constexpr unsigned blk_link = 0;

/** Blocks per session: 1..3, a pure function of the key. */
constexpr unsigned
nblocksFor(std::uint64_t key)
{
    return 1 + static_cast<unsigned>(key % 3);
}

/** Data words per block: 2..6, a pure function of the key. */
constexpr unsigned
dataWordsFor(std::uint64_t key)
{
    return 2 + static_cast<unsigned>(key % 5);
}

/** The value stored at block @p b, word @p j — pure f(key). */
constexpr std::uint64_t
valueWord(std::uint64_t key, unsigned b, unsigned j)
{
    return mix64(key, (std::uint64_t(b) << 8) | j);
}

/** Host-side directory entry: the refs the program owns for a key. */
struct Session
{
    BackendRef header = 0;
    std::vector<BackendRef> blocks;
    std::uint64_t gen = 0; ///< matches the FIFO entry that owns it
};

/** Compaction epoch length and trigger (Section: online compaction). */
constexpr std::uint64_t epoch_ops = 512;
constexpr double frag_threshold = 0.25;
constexpr std::size_t compact_batch = 32;

} // namespace

void
KvServer::run(Machine &machine, const WorkloadVariant &variant)
{
    const auto K = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(4096 * params_.scale));
    const auto n_ops = std::max<std::uint64_t>(
        2000, static_cast<std::uint64_t>(60000 * params_.scale));
    const std::size_t max_resident =
        std::max<std::size_t>(32, static_cast<std::size_t>(K / 2));

    // A bounded arena sized to ~70% occupancy at full residency, so
    // capacity pressure (evictions) and external fragmentation are real.
    const Addr span = std::min<Addr>(
        machine.config().heap_span,
        std::max<Addr>(Addr(16) << 10, Addr(max_resident) * 160));
    SimAllocator alloc(machine, machine.config().heap_base, span,
                       params_.seed);
    const std::unique_ptr<LayoutBackend> backend =
        makeLayoutBackend(machine, alloc);

    // Zipf(s=0.99) CDF over ranks 0..K-1 (rank == key id).
    std::vector<double> cdf(K);
    double harmonic = 0.0;
    for (std::uint64_t i = 0; i < K; ++i) {
        harmonic += 1.0 / std::pow(static_cast<double>(i + 1), 0.99);
        cdf[i] = harmonic;
    }
    for (double &c : cdf)
        c /= harmonic;
    auto zipfKey = [&](std::uint64_t r) -> std::uint64_t {
        const double u =
            static_cast<double>(mix64(r, 0x5a5a) >> 11) * 0x1.0p-53;
        const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
        return static_cast<std::uint64_t>(it - cdf.begin());
    };

    std::unordered_map<std::uint64_t, Session> directory;
    // FIFO of (key, generation); entries whose generation no longer
    // matches the directory's are stale (key re-put) and skipped.
    std::deque<std::pair<std::uint64_t, std::uint64_t>> fifo;
    std::uint64_t next_gen = 1;


    auto freeSession = [&](const Session &s) {
        for (const BackendRef b : s.blocks)
            backend->free(b);
        backend->free(s.header);
    };

    // Drop the oldest live session; false if nothing was resident.
    auto dropOldest = [&]() -> bool {
        while (!fifo.empty()) {
            const auto [key, gen] = fifo.front();
            fifo.pop_front();
            const auto it = directory.find(key);
            if (it == directory.end() || it->second.gen != gen)
                continue; // stale entry: the key was re-put or expired
            freeSession(it->second);
            directory.erase(it);
            return true;
        }
        return false;
    };

    auto allocOrEvict = [&](Addr bytes) -> BackendRef {
        for (;;) {
            if (const std::optional<BackendRef> ref =
                    backend->tryAllocate(bytes, Placement::scattered))
                return *ref;
            if (!dropOldest()) {
                memfwd_fatal("kv_server: arena exhausted with no "
                             "sessions left to evict");
            }
            ++kv_.evictions;
        }
    };

    // Build the record for @p key: blocks tail-first so each link word
    // is written at creation, then the header.
    auto buildSession = [&](std::uint64_t key) {
        while (directory.size() >= max_resident) {
            if (!dropOldest())
                break;
            ++kv_.evictions;
        }
        Session s;
        const unsigned nb = nblocksFor(key);
        const unsigned dw = dataWordsFor(key);
        const Addr blk_bytes = Addr(1 + dw) * wordBytes;
        s.blocks.resize(nb);
        BackendRef next = 0;
        for (unsigned bi = nb; bi-- > 0;) {
            const BackendRef ref = allocOrEvict(blk_bytes);
            s.blocks[bi] = ref;
            const ResolvedRef r = backend->resolve(ref);
            machine.access(
                Access::store(r.addr + blk_link, wordBytes, next, r.ready));
            for (unsigned j = 0; j < dw; ++j) {
                machine.access(Access::store(r.addr + (1 + j) * wordBytes,
                                             wordBytes, valueWord(key, bi, j),
                                             r.ready));
            }
            next = ref;
        }
        s.header = allocOrEvict(hdr_bytes);
        const ResolvedRef h = backend->resolve(s.header);
        machine.access(
            Access::store(h.addr + hdr_key, wordBytes, key, h.ready));
        machine.access(
            Access::store(h.addr + hdr_nblocks, wordBytes, nb, h.ready));
        machine.access(
            Access::store(h.addr + hdr_head, wordBytes, next, h.ready));
        machine.access(Access::store(h.addr + 24, wordBytes, 0, h.ready));
        s.gen = next_gen++;
        fifo.emplace_back(key, s.gen);
        directory[key] = std::move(s);
    };

    // Timed traversal of @p key's record, folding every value word into
    // the checksum.  Each pointer chase is a loaded BackendRef resolved
    // through the backend: forwarding pays hops on refs made stale by
    // compaction, handles pays one dependent table load per resolve.
    auto readSession = [&](std::uint64_t key) {
        const Session &s = directory.at(key);
        const ResolvedRef h = backend->resolve(s.header);
        const AccessResult nb_r = machine.access(
            Access::load(h.addr + hdr_nblocks, wordBytes, h.ready));
        const AccessResult head = machine.access(
            Access::load(h.addr + hdr_head, wordBytes, nb_r.ready));
        kv_.get_refs += 2;
        kv_.hops_total += nb_r.hops + head.hops;

        const unsigned nb = static_cast<unsigned>(nb_r.value);
        const unsigned dw = dataWordsFor(key);
        std::uint64_t ref = head.value;
        Cycles ready = head.ready;
        for (unsigned bi = 0; bi < nb; ++bi) {
            const ResolvedRef r =
                backend->resolve(static_cast<BackendRef>(ref), ready);
            const AccessResult link = machine.access(
                Access::load(r.addr + blk_link, wordBytes, r.ready));
            ++kv_.get_refs;
            kv_.hops_total += link.hops;
            if (variant.prefetch && link.value != 0) {
                machine.access(
                    Access::prefetch(static_cast<Addr>(link.value),
                                     variant.prefetch_block, link.ready));
            }
            for (unsigned j = 0; j < dw; ++j) {
                const AccessResult v = machine.access(Access::load(
                    r.addr + (1 + j) * wordBytes, wordBytes, r.ready));
                ++kv_.get_refs;
                kv_.hops_total += v.hops;
                memfwd_assert(v.value == valueWord(key, bi, j),
                              "kv_server: corrupted value (key %llu "
                              "block %u word %u)",
                              static_cast<unsigned long long>(key), bi, j);
                checksum_ = mix64(checksum_, v.value);
            }
            ref = link.value;
            ready = link.ready;
        }
    };

    // Online compaction: move the highest-addressed sessions into
    // first-fit holes.  Refs stay valid — forwarding leaves chains
    // behind them (later gets pay hops), handles rewrites table slots.
    // The directory holds exactly the live sessions (the FIFO also
    // holds stale entries).  Live headers have distinct addresses, so
    // the batch and its order are those of a full descending sort.
    auto compactEpoch = [&]() {
        std::vector<std::pair<Addr, const Session *>> live;
        live.reserve(directory.size());
        for (const auto &[key, s] : directory)
            live.emplace_back(backend->peekAddr(s.header), &s);
        const std::size_t batch = std::min(live.size(), compact_batch);
        std::partial_sort(live.begin(), live.begin() + batch, live.end(),
                          [](const auto &a, const auto &b) {
                              return a.first > b.first;
                          });
        live.resize(batch);
        for (const auto &[hdr_addr, s] : live) {
            for (const BackendRef b : s->blocks) {
                if (backend->compactObject(b))
                    ++kv_.compacted_objects;
            }
            if (backend->compactObject(s->header))
                ++kv_.compacted_objects;
        }
        ++kv_.compaction_epochs;
    };

    auto fragNow = [&]() -> double {
        const Addr extent = alloc.highestLiveEnd() - alloc.base();
        if (extent == 0)
            return 0.0;
        return 1.0 -
               static_cast<double>(alloc.bytesLive()) /
                   static_cast<double>(extent);
    };

    // ----- warm fill ------------------------------------------------------
    // Prefill the hottest half of the resident set so the kernel starts
    // against a populated cache.
    machine.enterRegion("build");
    for (std::uint64_t key = 0; key < std::min<std::uint64_t>(
                                    K, max_resident / 2);
         ++key) {
        buildSession(key);
    }
    machine.exitRegion("build");

    // ----- serving loop ---------------------------------------------------
    machine.enterRegion("kernel");
    for (std::uint64_t op = 0; op < n_ops; ++op) {
        const std::uint64_t r = mix64(params_.seed ^ 0x6b76ULL, op);
        const std::uint64_t key = zipfKey(r);
        const std::uint64_t pick = r % 100;
        ++kv_.ops;

        if (pick < 70) {
            // get: read-through — a miss fills the record first, so the
            // fold sees identical data either way (checksum invariance).
            ++kv_.gets;
            if (directory.count(key) != 0) {
                ++kv_.hits;
            } else {
                ++kv_.misses;
                buildSession(key);
            }
            readSession(key);
        } else if (pick < 95) {
            // put: delete + rebuild — the churn that ages the heap.
            ++kv_.puts;
            if (const auto it = directory.find(key);
                it != directory.end()) {
                freeSession(it->second);
                directory.erase(it);
            }
            buildSession(key);
        } else {
            ++kv_.expires;
            if (const auto it = directory.find(key);
                it != directory.end()) {
                freeSession(it->second);
                directory.erase(it);
            }
        }

        // Background churn: the oldest session times out periodically.
        if ((op + 1) % 64 == 0 && dropOldest())
            ++kv_.expires;

        if ((op + 1) % epoch_ops == 0) {
            const double frag = fragNow();
            kv_.frag_sum += frag;
            ++kv_.frag_samples;
            if (variant.layout_opt && backend->canRelocate() &&
                frag > frag_threshold) {
                compactEpoch();
            }
        }
    }
    machine.exitRegion("kernel");

    kv_.frag_final = fragNow();
    kv_.bytes_live_final = alloc.bytesLive();
    kv_.extent_final = alloc.highestLiveEnd() - alloc.base();
    space_overhead_ =
        backend->stats().relocated_words * wordBytes;
}

std::unique_ptr<Workload>
makeKvServer(const WorkloadParams &params)
{
    return std::make_unique<KvServer>(params);
}

} // namespace memfwd
