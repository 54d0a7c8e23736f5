/**
 * @file
 * Compress (SPEC): LZW compression.  The relevant structures are two
 * parallel tables indexed by the same hash probe: `htab` (8-byte
 * fcodes) and `codetab` (2-byte codes).  Every probe of the
 * compression loop touches htab[i] and usually codetab[i] — two
 * different cache lines in the original layout (Section 5.3).
 *
 * Optimization (L, one-shot): relocate both tables into a single
 * merged table where htab[i] and codetab[i] are adjacent.  Because the
 * minimum relocation unit is a word (Section 2.1), codetab entries can
 * only move four at a time, so the merged layout is built from 40-byte
 * groups: htab[4g..4g+3] (32B) followed by the codetab word holding
 * codetab[4g..4g+3] (8B).
 *
 * This reproduces the paper's signature result for Compress: at 32B
 * and 64B lines the optimized layout is *worse* — the dense 2-byte
 * codetab loses its high cache residency when spread across the
 * merged table, and a 40B group still straddles short lines — while at
 * 128B lines a whole group (three of them) fits in one line and the
 * pairing wins.
 *
 * Prefetching (P): block prefetch ahead of the sequential cl_hash()
 * reset scans.
 */

#include "workloads/workload.hh"

#include "common/logging.hh"
#include "runtime/layout_backend.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/workload_util.hh"

#include <memory>

namespace memfwd
{

namespace
{

class Compress final : public Workload
{
  public:
    explicit Compress(const WorkloadParams &params) : params_(params) {}

    std::string name() const override { return "compress"; }

    std::string
    description() const override
    {
        return "SPEC compress: LZW with parallel hash tables htab "
               "(8B fcodes) / codetab (2B codes) probed by one index";
    }

    std::string
    optimization() const override
    {
        return "one-shot relocation merging htab and codetab into "
               "40-byte groups so paired entries are adjacent";
    }

    void run(Machine &machine, const WorkloadVariant &variant) override;

    std::uint64_t checksum() const override { return checksum_; }
    Addr spaceOverheadBytes() const override { return space_overhead_; }

  private:
    WorkloadParams params_;
    std::uint64_t checksum_ = 0;
    Addr space_overhead_ = 0;
};

void
Compress::run(Machine &machine, const WorkloadVariant &variant)
{
    // 69001 in the original (kept odd for secondary probing); capacity
    // is rounded up to a multiple of 4 for group relocation.
    const unsigned hsize = std::max(
        1024u, static_cast<unsigned>(69001 * params_.scale)) | 1;
    const unsigned cap = (hsize + 3) & ~3u;
    const unsigned n_symbols =
        std::max(4096u, static_cast<unsigned>(1200000 * params_.scale));
    const unsigned reset_interval = 30000; // symbols between cl_hash()
    const unsigned group_bytes = 40;       // 4 htab words + 1 codetab word

    SimAllocator alloc(machine, params_.seed);
    std::unique_ptr<RelocationPool> pool;
    if (variant.layout_opt)
        pool = std::make_unique<RelocationPool>(alloc, Addr(8) << 20);

    // ----- allocate the two parallel tables -----------------------------
    machine.enterRegion("build");
    const Addr htab0 = alloc.alloc(Addr(cap) * wordBytes);
    const Addr codetab0 = alloc.alloc(Addr(cap) * 2);
    machine.exitRegion("build");

    bool merged_layout = false;
    Addr merged = 0;

    auto htabAddr = [&](std::uint64_t i) {
        if (!merged_layout)
            return htab0 + i * wordBytes;
        return merged + (i / 4) * group_bytes + (i % 4) * wordBytes;
    };
    auto codetabAddr = [&](std::uint64_t i) {
        if (!merged_layout)
            return codetab0 + i * 2;
        return merged + (i / 4) * group_bytes + 32 + (i % 4) * 2;
    };

    // ----- layout optimization (invoked once, up front) -----------------
    // Runs through the machine-selected LayoutBackend: a backend that
    // refuses relocation (none) leaves merged_layout false, so the
    // kernel keeps addressing the split tables.
    if (variant.layout_opt) {
        machine.enterRegion("opt");
        const auto backend = makeLayoutBackend(machine, alloc);
        if (backend->canRelocate()) {
            const Addr bytes = Addr(cap / 4) * group_bytes;
            merged = pool->take(bytes);
            space_overhead_ += bytes;
            for (unsigned g = 0; g < cap / 4; ++g) {
                const Addr grp = merged + Addr(g) * group_bytes;
                backend->relocate(htab0 + Addr(g) * 4 * wordBytes, grp,
                                  4);
                backend->relocate(codetab0 + Addr(g) * wordBytes,
                                  grp + 32, 1);
            }
            merged_layout = true;
        }
        machine.exitRegion("opt");
    }

    // cl_hash(): sequential reset of htab alone — the htab-only scan
    // whose locality the merged layout dilutes.
    const unsigned line_bytes = machine.config().hierarchy.l1d.line_bytes;
    auto clHash = [&] {
        for (unsigned i = 0; i < hsize; ++i) {
            if (variant.prefetch && (i & 7) == 0) {
                machine.access(Access::prefetch(htabAddr(i) + line_bytes,
                                                variant.prefetch_block));
            }
            machine.access(
                Access::store(htabAddr(i), wordBytes, ~std::uint64_t(0)));
        }
    };
    machine.enterRegion("build");
    clHash();
    machine.exitRegion("build");

    // ----- the LZW loop ---------------------------------------------------
    std::uint64_t free_ent = 257;
    std::uint64_t ent = 0;
    checksum_ = 0;

    machine.enterRegion("kernel");
    for (unsigned s = 0; s < n_symbols; ++s) {
        // Markov-ish deterministic input: small alphabet with locality.
        const std::uint64_t c =
            mix64(params_.seed, (std::uint64_t(s) >> 3)) % 61;
        const std::uint64_t fcode = (c << 16) | ent;
        std::uint64_t i = ((c << 8) ^ ent) % hsize;
        machine.access(Access::compute(8));

        bool found = false;
        // Probe: read htab[i]; on collision, secondary probing with a
        // fixed displacement, as in compress.
        const std::uint64_t disp = (i == 0) ? 1 : hsize - i;
        for (unsigned probes = 0; probes < 8; ++probes) {
            const AccessResult h = machine.access(Access::load(htabAddr(i), wordBytes));
            if (h.value == fcode) {
                const AccessResult code =
                    machine.access(Access::load(codetabAddr(i), 2, h.ready));
                ent = code.value;
                found = true;
                break;
            }
            if (h.value == ~std::uint64_t(0))
                break; // empty slot: not in table
            machine.access(Access::compute(3));
            i = (i + disp) % hsize;
        }

        if (!found) {
            // Emit code, insert the new entry (touches both tables).
            checksum_ += ent * 2654435761u + c;
            machine.access(Access::store(codetabAddr(i), 2, free_ent & 0xffff));
            machine.access(Access::store(htabAddr(i), wordBytes, fcode));
            ++free_ent;
            ent = c;
        }

        if (s != 0 && s % reset_interval == 0) {
            clHash();
            free_ent = 257;
        }
    }
    machine.exitRegion("kernel");
    checksum_ += free_ent;
}

} // namespace

std::unique_ptr<Workload>
makeCompress(const WorkloadParams &params)
{
    return std::make_unique<Compress>(params);
}

} // namespace memfwd
