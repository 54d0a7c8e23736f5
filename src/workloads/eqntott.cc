/**
 * @file
 * Eqntott (SPEC): boolean-equation-to-truth-table conversion.  Its most
 * interesting data structure is a hash table whose entries point to
 * PTERM records, each of which in turn points to a separately-allocated
 * array of short integers (Section 5.3, Figure 8).  The dominant kernel
 * is cmppt-style pairwise comparisons that walk the short arrays of
 * PTERMs in hash-index order.
 *
 * Optimization (L, one-shot after the table is built): (i) relocate
 * each PTERM record and its short array into one contiguous chunk, and
 * (ii) place those chunks at contiguous addresses in increasing hash
 * order (Figure 8(b)).  The record's internal array pointer and the
 * hash-table entry are updated by the optimizer; any other stale
 * pointer is covered by forwarding.
 *
 * Prefetching (P): in the comparison loop, block prefetch of the next
 * hash entry's record as soon as its pointer is loaded.
 */

#include "workloads/workload.hh"

#include "common/logging.hh"
#include "runtime/layout_backend.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/workload_util.hh"

#include <memory>
#include <vector>

namespace memfwd
{

namespace
{

// PTERM record (32 bytes): pointer to short array, nvars, index, pad.
constexpr unsigned pt_array = 0;
constexpr unsigned pt_nvars = 8;
constexpr unsigned pt_index = 16;
constexpr unsigned pt_bytes = 32;

class Eqntott final : public Workload
{
  public:
    explicit Eqntott(const WorkloadParams &params) : params_(params) {}

    std::string name() const override { return "eqntott"; }

    std::string
    description() const override
    {
        return "SPEC eqntott: hash table of PTERM records, each "
               "pointing to a separate short-integer array; cmppt "
               "comparison kernel";
    }

    std::string
    optimization() const override
    {
        return "one-shot relocation packing each PTERM with its short "
               "array, chunks laid out in hash order (Figure 8)";
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
Eqntott::run(Machine &machine, const WorkloadVariant &variant)
{
    const unsigned n_pterms =
        std::max(64u, static_cast<unsigned>(6144 * params_.scale));
    const unsigned n_vars = 24;      // shorts per PTERM array
    const unsigned n_sweeps = 16;    // comparison passes

    const unsigned array_bytes = roundUpToWord(n_vars * 2);
    const unsigned line_bytes = machine.config().hierarchy.l1d.line_bytes;

    SimAllocator alloc(machine, params_.seed);
    std::unique_ptr<RelocationPool> pool;
    if (variant.layout_opt)
        pool = std::make_unique<RelocationPool>(alloc, Addr(16) << 20);

    // ----- build: hash table of PTERM pointers -------------------------
    // The table itself is a dense array of pointers (that part is
    // already contiguous); the records and arrays it points to are
    // scattered, interleaved by construction order.
    machine.enterRegion("build");
    const Addr table = alloc.alloc(Addr(n_pterms) * wordBytes);

    for (unsigned i = 0; i < n_pterms; ++i) {
        const Addr rec = alloc.alloc(pt_bytes, Placement::scattered);
        const Addr arr = alloc.alloc(array_bytes, Placement::scattered);
        machine.access(Access::store(rec + pt_array, wordBytes, arr));
        machine.access(Access::store(rec + pt_nvars, wordBytes, n_vars));
        machine.access(Access::store(rec + pt_index, wordBytes, i));
        for (unsigned v = 0; v < n_vars; ++v) {
            // 2-bit literal values packed in shorts, as in eqntott.
            // Mostly a shared pattern with sparse per-PTERM
            // deviations, so comparisons walk deep into the arrays
            // (as cmppt does on the mostly-similar PTERMs of real
            // inputs).
            std::uint64_t val = mix64(params_.seed, v) % 3;
            if (hashChance(mix64(i, v ^ params_.seed), 50, 1000))
                val = (val + 1) % 3;
            machine.access(Access::store(arr + v * 2, 2, val));
        }
        machine.access(
            Access::store(table + Addr(i) * wordBytes, wordBytes, rec));
    }
    machine.exitRegion("build");

    // ----- layout optimization (invoked once, Figure 8(b)) -------------
    // The whole pass runs through the machine-selected LayoutBackend:
    // under --backend=none relocation is refused, so the pass (and its
    // pointer rewrites) is skipped and the kernel runs on the original
    // scattered layout.
    if (variant.layout_opt) {
        machine.enterRegion("opt");
        const auto backend = makeLayoutBackend(machine, alloc);
        const unsigned chunk_bytes = pt_bytes + array_bytes;
        for (unsigned i = 0; backend->canRelocate() && i < n_pterms;
             ++i) {
            const AccessResult rec =
                machine.access(Access::load(table + Addr(i) * wordBytes, wordBytes));
            const Addr old_rec = static_cast<Addr>(rec.value);
            const AccessResult arr =
                machine.access(Access::load(old_rec + pt_array, wordBytes, rec.ready));
            const Addr old_arr = static_cast<Addr>(arr.value);

            const Addr chunk = pool->take(chunk_bytes);
            space_overhead_ += chunk_bytes;

            // Record first, its short array right behind it.
            backend->relocate(old_rec, chunk, pt_bytes / wordBytes);
            backend->relocate(old_arr, chunk + pt_bytes,
                              array_bytes / wordBytes);

            // The optimizer updates the pointers it knows about: the
            // record's array pointer and the hash-table entry.
            machine.access(Access::store(chunk + pt_array, wordBytes, chunk + pt_bytes));
            machine.access(Access::store(table + Addr(i) * wordBytes, wordBytes, chunk));
        }
        machine.exitRegion("opt");
    }

    // ----- cmppt kernel: hash-order pairwise comparisons ----------------
    checksum_ = 0;
    machine.enterRegion("kernel");
    for (unsigned sweep = 0; sweep < n_sweeps; ++sweep) {
        AccessResult prev_rec =
            machine.access(Access::load(table + 0 * wordBytes, wordBytes));
        AccessResult prev_arr = machine.access(Access::load(
            static_cast<Addr>(prev_rec.value) + pt_array, wordBytes,
            prev_rec.ready));

        for (unsigned i = 1; i < n_pterms; ++i) {
            const AccessResult rec =
                machine.access(Access::load(table + Addr(i) * wordBytes, wordBytes));
            if (variant.prefetch) {
                machine.access(Access::prefetch(static_cast<Addr>(rec.value),
                                 variant.prefetch_block, rec.ready));
            }
            const AccessResult arr = machine.access(Access::load(
                static_cast<Addr>(rec.value) + pt_array, wordBytes,
                rec.ready));

            // cmppt: compare the two short arrays.
            int cmp = 0;
            for (unsigned v = 0; v < n_vars; ++v) {
                const AccessResult a = machine.access(Access::load(
                    static_cast<Addr>(prev_arr.value) + v * 2, 2,
                    prev_arr.ready));
                const AccessResult b = machine.access(Access::load(
                    static_cast<Addr>(arr.value) + v * 2, 2, arr.ready));
                machine.access(Access::compute(3));
                if (a.value != b.value) {
                    cmp = a.value < b.value ? -1 : 1;
                    break;
                }
            }
            checksum_ += static_cast<std::uint64_t>(cmp + 2) * 31 +
                         sweep;

            prev_rec = rec;
            prev_arr = arr;
        }
    }
    machine.exitRegion("kernel");
    (void)line_bytes;
}

} // namespace

std::unique_ptr<Workload>
makeEqntott(const WorkloadParams &params)
{
    return std::make_unique<Eqntott>(params);
}

} // namespace memfwd
