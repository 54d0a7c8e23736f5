/**
 * @file
 * Radiosity: hierarchical radiosity energy gathering over interaction
 * lists (after the program by Meneveaux used in the paper).
 *
 * Each surface element keeps a linked list of *interactions*; each
 * interaction names a partner element and a form factor.  An iteration
 * gathers energy: for every element, walk its interaction list and pull
 * energy from each partner (a data-dependent access into the partner's
 * record).  Between iterations the solver refines: some interactions
 * are removed and new ones inserted, churning the lists — the paper's
 * reason to re-linearize periodically.
 *
 * Optimization (L): per-element churn counter, periodic linearization
 * of interaction lists.
 *
 * Prefetching (P): prefetch the next interaction node as soon as its
 * address is known; also prefetch the partner record.
 */

#include "workloads/workload.hh"

#include "common/logging.hh"
#include "runtime/layout_backend.hh"
#include "runtime/list_linearize.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/workload_util.hh"

#include <memory>
#include <vector>

namespace memfwd
{

namespace
{

// Interaction node (24 bytes): next, partner element, and one packed
// word of scalar fields (2-byte form factor, 4-byte id) accessed as
// subwords.
constexpr unsigned int_next = 0;
constexpr unsigned int_partner = 8;
constexpr unsigned int_ff = 16; // 2-byte field
constexpr unsigned int_id = 20; // 4-byte field
constexpr unsigned int_bytes = 24;

// Element record (32 bytes): radiosity, gathered, id, interaction head.
constexpr unsigned elem_rad = 0;
constexpr unsigned elem_gather = 8;
constexpr unsigned elem_id = 16;
constexpr unsigned elem_ilist = 24;
constexpr unsigned elem_bytes = 32;

// Refinement churns each list by roughly ten nodes per iteration, so
// this threshold re-linearizes a list about once per iteration once it
// has drifted (the paper re-linearizes "periodically").
constexpr unsigned linearize_threshold = 20;

class Radiosity final : public Workload
{
  public:
    explicit Radiosity(const WorkloadParams &params) : params_(params) {}

    std::string name() const override { return "radiosity"; }

    std::string
    description() const override
    {
        return "hierarchical radiosity: energy gathering over "
               "per-element interaction lists with refinement churn";
    }

    std::string
    optimization() const override
    {
        return "periodic list linearization of interaction lists";
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
Radiosity::run(Machine &machine, const WorkloadVariant &variant)
{
    const unsigned n_elems =
        std::max(64u, static_cast<unsigned>(2048 * params_.scale));
    const unsigned init_interactions = 24;
    const unsigned n_iters = 6;
    const unsigned gathers_per_iter = 2;

    SimAllocator alloc(machine, params_.seed);
    std::unique_ptr<RelocationPool> pool;
    if (variant.layout_opt)
        pool = std::make_unique<RelocationPool>(alloc, Addr(128) << 20);
    std::unique_ptr<LayoutBackend> backend;
    if (variant.layout_opt)
        backend = makeLayoutBackend(machine, alloc);

    // ----- build elements and initial interaction lists ----------------
    machine.enterRegion("build");
    std::vector<Addr> elems(n_elems);
    std::vector<std::uint64_t> churn(n_elems, 0);
    for (unsigned i = 0; i < n_elems; ++i) {
        const Addr e = alloc.alloc(elem_bytes, Placement::scattered);
        elems[i] = e;
        machine.access(
            Access::store(e + elem_rad, wordBytes,
                          1000 + mix64(params_.seed, i) % 1000));
        machine.access(Access::store(e + elem_gather, wordBytes, 0));
        machine.access(Access::store(e + elem_id, wordBytes, i));
        machine.access(Access::store(e + elem_ilist, wordBytes, 0));
    }

    std::uint64_t interaction_id = 1;
    auto addInteraction = [&](unsigned elem_idx, unsigned partner_idx) {
        const Addr e = elems[elem_idx];
        const Addr node = alloc.alloc(int_bytes, Placement::scattered);
        const AccessResult head =
            machine.access(Access::load(e + elem_ilist, wordBytes));
        machine.access(Access::store(node + int_next, wordBytes, head.value));
        machine.access(Access::store(node + int_partner, wordBytes, elems[partner_idx]));
        machine.access(Access::store(node + int_ff, 2,
                      1 + mix64(elem_idx, partner_idx) % 256));
        machine.access(Access::store(node + int_id, 4, interaction_id++));
        machine.access(Access::store(e + elem_ilist, wordBytes, node));
        ++churn[elem_idx];
    };

    for (unsigned i = 0; i < n_elems; ++i) {
        for (unsigned k = 0; k < init_interactions; ++k) {
            const unsigned partner = static_cast<unsigned>(
                mix64(params_.seed, (std::uint64_t(i) << 20) | k) %
                n_elems);
            if (partner != i)
                addInteraction(i, partner);
        }
    }
    machine.exitRegion("build");

    // ----- iterate: gather, then refine --------------------------------
    checksum_ = 0;
    machine.enterRegion("kernel");
    for (unsigned iter = 0; iter < n_iters; ++iter) {
        // Gather phase: the hot loop (solvers sweep the interaction
        // lists several times per refinement step).
        for (unsigned g = 0; g < gathers_per_iter; ++g)
        for (unsigned i = 0; i < n_elems; ++i) {
            const Addr e = elems[i];
            std::uint64_t gathered = 0;
            AccessResult cur = machine.access(Access::load(e + elem_ilist, wordBytes));
            while (cur.value != 0) {
                const Addr node = static_cast<Addr>(cur.value);
                const AccessResult next =
                    machine.access(Access::load(node + int_next, wordBytes, cur.ready));
                if (variant.prefetch && next.value != 0) {
                    machine.access(Access::prefetch(static_cast<Addr>(next.value),
                                     variant.prefetch_block, next.ready));
                }
                const AccessResult partner = machine.access(Access::load(
                    node + int_partner, wordBytes, cur.ready));
                const AccessResult ff =
                    machine.access(Access::load(node + int_ff, 2, cur.ready));
                // Data-dependent partner access.
                const AccessResult prad = machine.access(Access::load(
                    static_cast<Addr>(partner.value) + elem_rad,
                    wordBytes, partner.ready));
                gathered += prad.value * ff.value / 256;
                machine.access(Access::compute(6));
                cur = AccessResult{next.value, next.ready, 0,
                                 next.final_addr};
            }
            machine.access(Access::store(e + elem_gather, wordBytes, gathered));
        }

        // Update radiosities from gathered energy.
        for (unsigned i = 0; i < n_elems; ++i) {
            const Addr e = elems[i];
            const AccessResult g =
                machine.access(Access::load(e + elem_gather, wordBytes));
            const AccessResult r =
                machine.access(Access::load(e + elem_rad, wordBytes));
            const std::uint64_t nr =
                (r.value * 3 + g.value / 16) / 4 + 1;
            machine.access(Access::store(e + elem_rad, wordBytes, nr));
            machine.access(Access::compute(4));
            checksum_ += nr;
        }

        // Refinement: churn the interaction lists.
        for (unsigned i = 0; i < n_elems; ++i) {
            const std::uint64_t key =
                mix64(params_.seed, (std::uint64_t(iter) << 32) | i);
            // Remove interactions whose id hashes "refined".
            const Addr e = elems[i];
            Addr prev_slot = e + elem_ilist;
            AccessResult cur = machine.access(Access::load(prev_slot, wordBytes));
            while (cur.value != 0) {
                const Addr node = static_cast<Addr>(cur.value);
                const AccessResult next =
                    machine.access(Access::load(node + int_next, wordBytes, cur.ready));
                const AccessResult nid =
                    machine.access(Access::load(node + int_id, 4, cur.ready));
                if (hashChance(mix64(key, nid.value), 150, 1000)) {
                    machine.access(Access::store(prev_slot, wordBytes, next.value));
                    ++churn[i];
                } else {
                    prev_slot = node + int_next;
                }
                cur = AccessResult{next.value, next.ready, 0,
                                 next.final_addr};
            }
            // Insert a few new (finer) interactions.
            const unsigned inserts =
                static_cast<unsigned>(mix64(key, 777) % 5);
            for (unsigned k = 0; k < inserts; ++k) {
                const unsigned partner = static_cast<unsigned>(
                    mix64(key, k) % n_elems);
                if (partner != i)
                    addInteraction(i, partner);
            }

            // Layout optimization: linearize churned lists.
            if (variant.layout_opt && churn[i] > linearize_threshold) {
                const LinearizeResult lr = listLinearize(
                    *backend, e + elem_ilist, {int_bytes, int_next, 0},
                    *pool);
                space_overhead_ += lr.pool_bytes;
                churn[i] = 0;
            }
        }
    }
    machine.exitRegion("kernel");
}

} // namespace

std::unique_ptr<Workload>
makeRadiosity(const WorkloadParams &params)
{
    return std::make_unique<Radiosity>(params);
}

} // namespace memfwd
