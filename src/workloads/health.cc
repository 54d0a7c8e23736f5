/**
 * @file
 * Health (Olden): hierarchical health-care simulation.
 *
 * A 4-ary tree of villages; each village's hospital keeps a linked
 * list of waiting patients.  Every time step, new patients arrive at
 * leaf villages, every village's waiting list is traversed (the hot
 * loop), and patients probabilistically move up to their parent
 * village or are discharged at the root.  Constant insertion/removal
 * churn scatters the lists, which is exactly the behaviour the paper
 * attacks with periodic list linearization (Section 5.3: "The
 * structure of the linked lists ... is modified throughout the
 * program execution, and therefore list linearization is invoked
 * periodically").
 *
 * Optimization (L): per-village churn counter; when it exceeds a
 * threshold, the village's waiting list is linearized into a
 * relocation pool.
 *
 * Prefetching (P): in the traversal loop, as soon as a node's next
 * pointer is loaded, a block prefetch is issued at that address — the
 * earliest point the address is known.  After linearization the same
 * prefetch covers several upcoming nodes per instruction.
 */

#include "workloads/workload.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "runtime/layout_backend.hh"
#include "runtime/list_linearize.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/workload_util.hh"

#include <algorithm>
#include <memory>
#include <vector>

namespace memfwd
{

namespace
{

// Patient record layout (16 bytes, like Olden's compact struct):
// one pointer word plus one word of packed scalar fields accessed as
// subwords — byte-offset-preserving forwarding (Section 2.1) is
// exercised by every one of these accesses after relocation.
constexpr unsigned pat_next = 0;
constexpr unsigned pat_time = 8;    // 2-byte field
constexpr unsigned pat_visits = 10; // 2-byte field
constexpr unsigned pat_id = 12;     // 4-byte field
constexpr unsigned pat_bytes = 16;

// Village record layout (8 words = 64 bytes): children[4], parent,
// waiting-list head, label, pad.
constexpr unsigned vil_child0 = 0;
constexpr unsigned vil_parent = 32;
constexpr unsigned vil_waiting = 40;
constexpr unsigned vil_label = 48;
constexpr unsigned vil_bytes = 64;

constexpr unsigned branching = 4;

class Health final : public Workload
{
  public:
    explicit Health(const WorkloadParams &params) : params_(params) {}

    std::string name() const override { return "health"; }

    std::string
    description() const override
    {
        return "Olden: hierarchical health-care simulation over a "
               "4-ary village tree with per-hospital patient lists";
    }

    std::string
    optimization() const override
    {
        return "periodic list linearization of patient lists";
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
Health::run(Machine &machine, const WorkloadVariant &variant)
{
    const unsigned depth = 5; // 1+4+16+64+256 = 341 villages
    const unsigned steps =
        std::max(1u, static_cast<unsigned>(64 * params_.scale));
    const unsigned arrivals_per_leaf_permille = 700;

    SimAllocator alloc(machine, params_.seed);
    std::unique_ptr<RelocationPool> pool;
    std::unique_ptr<LayoutBackend> backend;
    if (variant.layout_opt) {
        pool = std::make_unique<RelocationPool>(alloc, Addr(192) << 20);
        backend = makeLayoutBackend(machine, alloc);
    }

    const unsigned line_bytes = machine.config().hierarchy.l1d.line_bytes;

    // ----- build the village tree (scattered, like an aged heap) ------
    struct VillageInfo
    {
        Addr addr;
        unsigned level; // 0 = root
        std::size_t parent_idx = 0;
        std::uint64_t churn = 0;
        std::uint64_t list_len = 0;
    };
    std::vector<VillageInfo> villages;

    // Breadth-first construction so the leaf range is easy to track.
    machine.enterRegion("build");
    std::size_t leaf_count = 0;
    {
        const Addr root = alloc.alloc(vil_bytes, Placement::scattered);
        machine.access(Access::store(root + vil_parent, wordBytes, 0));
        machine.access(Access::store(root + vil_waiting, wordBytes, 0));
        machine.access(Access::store(root + vil_label, wordBytes, 0));
        villages.push_back({root, 0, 0});

        std::uint64_t label = 1;
        std::vector<std::size_t> current_idx{0};
        for (unsigned level = 1; level < depth; ++level) {
            std::vector<std::size_t> next_level;
            for (std::size_t pi : current_idx) {
                const Addr parent = villages[pi].addr;
                for (unsigned c = 0; c < branching; ++c) {
                    const Addr v =
                        alloc.alloc(vil_bytes, Placement::scattered);
                    machine.access(
                        Access::store(v + vil_parent, wordBytes, parent));
                    machine.access(
                        Access::store(v + vil_waiting, wordBytes, 0));
                    machine.access(
                        Access::store(v + vil_label, wordBytes, label++));
                    machine.access(Access::store(
                        parent + vil_child0 + c * wordBytes, wordBytes, v));
                    next_level.push_back(villages.size());
                    villages.push_back({v, level, pi});
                }
            }
            current_idx = std::move(next_level);
        }
        leaf_count = current_idx.size();
    }
    machine.exitRegion("build");
    const std::size_t first_leaf = villages.size() - leaf_count;

    // Iterate villages leaves-first so patients climb one level per
    // step at most (deterministic order).
    std::vector<std::size_t> order;
    for (std::size_t i = villages.size(); i-- > 0;)
        order.push_back(i);

    std::uint64_t next_patient_id = 1;
    checksum_ = 0;

    // ----- simulation ---------------------------------------------------
    machine.enterRegion("kernel");
    for (unsigned step = 0; step < steps; ++step) {
        // Arrivals at leaves.
        for (std::size_t vi = first_leaf; vi < villages.size(); ++vi) {
            VillageInfo &v = villages[vi];
            if (!hashChance(mix64(params_.seed, (step << 20) ^ vi),
                            arrivals_per_leaf_permille, 1000)) {
                continue;
            }
            const Addr p = alloc.alloc(pat_bytes, Placement::scattered);
            const std::uint64_t id = next_patient_id++;
            // Prepend to the waiting list.
            const AccessResult head =
                machine.access(Access::load(v.addr + vil_waiting, wordBytes));
            machine.access(Access::store(p + pat_next, wordBytes, head.value));
            machine.access(Access::store(p + pat_time, 2, 0));
            machine.access(Access::store(p + pat_visits, 2, 0));
            machine.access(Access::store(p + pat_id, 4, id));
            machine.access(Access::store(v.addr + vil_waiting, wordBytes, p));
            ++v.churn;
            ++v.list_len;
        }

        // Process every village's waiting list, leaves first.
        for (std::size_t oi : order) {
            VillageInfo &v = villages[oi];
            const bool is_root = (v.level == 0);
            const AccessResult parent =
                machine.access(Access::load(v.addr + vil_parent, wordBytes));

            Addr prev_slot = v.addr + vil_waiting;
            AccessResult cur = machine.access(Access::load(prev_slot, wordBytes));
            while (cur.value != 0) {
                const Addr p = static_cast<Addr>(cur.value);

                // Touch the patient: advance treatment time.
                const AccessResult t =
                    machine.access(Access::load(p + pat_time, 2, cur.ready));
                machine.access(Access::store(p + pat_time, 2, t.value + 1,
                              t.ready));
                const AccessResult id =
                    machine.access(Access::load(p + pat_id, 4, cur.ready));
                machine.access(Access::compute(6));

                const AccessResult next =
                    machine.access(Access::load(p + pat_next, wordBytes, cur.ready));
                if (variant.prefetch && next.value != 0) {
                    machine.access(Access::prefetch(static_cast<Addr>(next.value),
                                     variant.prefetch_block, next.ready));
                }

                // Move up after enough treatment, probabilistically.
                const bool done =
                    t.value + 1 >= 3 &&
                    hashChance(mix64(id.value, (step << 8) ^ v.level),
                               110, 1000);
                if (done) {
                    // Unlink from this list.
                    machine.access(Access::store(prev_slot, wordBytes, next.value));
                    ++v.churn;
                    --v.list_len;
                    if (is_root) {
                        checksum_ += id.value * 2654435761u +
                                     (t.value + 1);
                        // Olden-style: discharged patients are not
                        // freed; the heap only grows.
                    } else {
                        // Prepend to the parent's waiting list.
                        const AccessResult ph = machine.access(Access::load(
                            static_cast<Addr>(parent.value) + vil_waiting,
                            wordBytes, parent.ready));
                        machine.access(Access::store(p + pat_next, wordBytes, ph.value));
                        machine.access(Access::store(p + pat_visits, 2, v.level));
                        machine.access(Access::store(static_cast<Addr>(parent.value) +
                                          vil_waiting,
                                      wordBytes, p));
                        ++villages[v.parent_idx].churn;
                        ++villages[v.parent_idx].list_len;
                    }
                } else {
                    prev_slot = p + pat_next;
                }
                cur = AccessResult{next.value, next.ready, 0,
                                 next.final_addr};
            }

            // Layout optimization: re-linearize a list once churn has
            // disordered a meaningful fraction of it.
            if (variant.layout_opt &&
                v.churn * 2 > std::max<std::uint64_t>(v.list_len, 60)) {
                const LinearizeResult r = listLinearize(
                    *backend, v.addr + vil_waiting,
                    {pat_bytes, pat_next, 0}, *pool);
                space_overhead_ += r.pool_bytes;
                v.churn = 0;
            }
        }
    }

    // Final sweep: fold every remaining patient into the checksum so
    // the full lists' contents are verified N-vs-L.
    for (const VillageInfo &v : villages) {
        AccessResult cur = machine.access(Access::load(v.addr + vil_waiting, wordBytes));
        while (cur.value != 0) {
            const Addr p = static_cast<Addr>(cur.value);
            const AccessResult id =
                machine.access(Access::load(p + pat_id, 4, cur.ready));
            const AccessResult t =
                machine.access(Access::load(p + pat_time, 2, cur.ready));
            checksum_ += mix64(id.value, t.value);
            if (variant.prefetch) {
                machine.access(Access::prefetch(p + line_bytes, variant.prefetch_block,
                                 cur.ready));
            }
            cur = machine.access(
                Access::load(p + pat_next, wordBytes, cur.ready));
        }
    }
    machine.exitRegion("kernel");
}

} // namespace

std::unique_ptr<Workload>
makeHealth(const WorkloadParams &params)
{
    return std::make_unique<Health>(params);
}

} // namespace memfwd
