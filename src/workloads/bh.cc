/**
 * @file
 * BH (Olden): Barnes-Hut N-body force calculation over an octree.
 *
 * The octree is built in depth-first insertion order, but the force
 * walk visits cells "fairly randomly" (Section 5.3), so consecutive
 * visits touch unrelated cache lines.  Leaf bodies are linked on a
 * list and traversed via that list, so only non-leaf cells are
 * clustered — exactly the paper's choice.
 *
 * Optimization (L): subtree clustering of non-leaf cells (Figure 9).
 * A cell is 80 bytes (the paper's is 78B), so meaningful clustering
 * needs 256B or longer lines — the paper makes this exact point.
 *
 * Prefetching (P): in the body list walk, prefetch the next body once
 * its address is known; in the tree walk, prefetch a child cell as
 * soon as its pointer is loaded.
 */

#include "workloads/workload.hh"

#include "common/logging.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"
#include "runtime/layout_backend.hh"
#include "runtime/subtree_cluster.hh"
#include "workloads/workload_util.hh"

#include <cmath>
#include <memory>
#include <vector>

namespace memfwd
{

namespace
{

// Cell (non-leaf) layout: tag, mass, pos, children[8] -> 88 bytes.
// The paper's BH cell is 78B; ours rounds to the same cache-line
// behaviour (one cell spans 3 x 32B lines).
constexpr unsigned cell_tag = 0;   // 0 = internal cell
constexpr unsigned cell_mass = 8;
constexpr unsigned cell_pos = 16;  // quantized position key
constexpr unsigned cell_child0 = 24;
constexpr unsigned cell_children = 8;
constexpr unsigned cell_bytes = 24 + cell_children * wordBytes; // 88

// Body (leaf) layout: tag, mass, pos, acc, list-next -> 40 bytes.
constexpr unsigned body_tag = 0;   // 1 = body
constexpr unsigned body_mass = 8;
constexpr unsigned body_pos = 16;
constexpr unsigned body_acc = 24;
constexpr unsigned body_next = 32;
constexpr unsigned body_bytes = 40;

constexpr std::uint64_t tag_cell = 0;
constexpr std::uint64_t tag_body = 1;

// Positions are 3x10-bit quantized coordinates packed in one word.
constexpr unsigned coord_bits = 10;
constexpr std::uint64_t coord_mask = (1u << coord_bits) - 1;

std::uint64_t
packPos(std::uint64_t x, std::uint64_t y, std::uint64_t z)
{
    return (x & coord_mask) | ((y & coord_mask) << coord_bits) |
           ((z & coord_mask) << (2 * coord_bits));
}

std::uint64_t
coordOf(std::uint64_t pos, unsigned axis)
{
    return (pos >> (axis * coord_bits)) & coord_mask;
}

/** Squared distance between two packed positions. */
std::uint64_t
dist2(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t d2 = 0;
    for (unsigned axis = 0; axis < 3; ++axis) {
        const std::int64_t d =
            static_cast<std::int64_t>(coordOf(a, axis)) -
            static_cast<std::int64_t>(coordOf(b, axis));
        d2 += static_cast<std::uint64_t>(d * d);
    }
    return d2;
}

class Bh final : public Workload
{
  public:
    explicit Bh(const WorkloadParams &params) : params_(params) {}

    std::string name() const override { return "bh"; }

    std::string
    description() const override
    {
        return "Olden: Barnes-Hut N-body force calculation over an "
               "octree built depth-first and walked in random order";
    }

    std::string
    optimization() const override
    {
        return "subtree clustering of non-leaf octree cells "
               "(needs >=256B lines to be meaningful)";
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
Bh::run(Machine &machine, const WorkloadVariant &variant)
{
    const unsigned n_bodies =
        std::max(64u, static_cast<unsigned>(4096 * params_.scale));
    const unsigned n_steps = 2;
    const std::uint64_t theta2 = 160; // opening criterion (d2 * theta2 >
                                      // size2 * 256 -> use aggregate)

    SimAllocator alloc(machine, params_.seed);
    std::unique_ptr<RelocationPool> pool;
    if (variant.layout_opt)
        pool = std::make_unique<RelocationPool>(alloc, Addr(64) << 20);
    std::unique_ptr<LayoutBackend> backend;
    if (variant.layout_opt)
        backend = makeLayoutBackend(machine, alloc);

    // ----- create bodies (scattered) and the body list -----------------
    machine.enterRegion("build");
    const Addr body_list_head = alloc.alloc(wordBytes);

    std::vector<Addr> bodies(n_bodies);
    std::vector<std::uint64_t> body_pos_native(n_bodies);
    machine.access(Access::store(body_list_head, wordBytes, 0));
    for (unsigned i = 0; i < n_bodies; ++i) {
        const Addr b = alloc.alloc(body_bytes, Placement::scattered);
        bodies[i] = b;
        const std::uint64_t pos =
            packPos(mix64(params_.seed, i * 3 + 0) & coord_mask,
                    mix64(params_.seed, i * 3 + 1) & coord_mask,
                    mix64(params_.seed, i * 3 + 2) & coord_mask);
        body_pos_native[i] = pos;
        machine.access(Access::store(b + body_tag, wordBytes, tag_body));
        machine.access(Access::store(b + body_mass, wordBytes,
                                     1 + mix64(i, params_.seed) % 97));
        machine.access(Access::store(b + body_pos, wordBytes, pos));
        machine.access(Access::store(b + body_acc, wordBytes, 0));
        const AccessResult head =
            machine.access(Access::load(body_list_head, wordBytes));
        machine.access(Access::store(b + body_next, wordBytes, head.value));
        machine.access(Access::store(body_list_head, wordBytes, b));
    }

    const Addr root_handle = alloc.alloc(wordBytes);
    machine.exitRegion("build");

    checksum_ = 0;
    for (unsigned step = 0; step < n_steps; ++step) {
        // ----- build the octree depth-first --------------------------
        // Construction and the aggregate pass are bracketed as the
        // "build" fast-forward region.
        machine.enterRegion("build");
        machine.access(Access::store(root_handle, wordBytes, 0));

        // insert(body): descend from the root by octant until an empty
        // slot is found; when a body collides, split the cell.
        auto octant = [](std::uint64_t pos, unsigned level) {
            unsigned o = 0;
            for (unsigned axis = 0; axis < 3; ++axis) {
                const std::uint64_t c = coordOf(pos, axis);
                if (c & (1u << (coord_bits - 1 - level)))
                    o |= 1u << axis;
            }
            return o;
        };

        auto newCell = [&](unsigned level, std::uint64_t anchor) {
            const Addr c = alloc.alloc(cell_bytes, Placement::scattered);
            machine.access(Access::store(c + cell_tag, wordBytes, tag_cell));
            machine.access(Access::store(c + cell_mass, wordBytes, 0));
            machine.access(Access::store(c + cell_pos, wordBytes, anchor));
            for (unsigned k = 0; k < cell_children; ++k) {
                machine.access(Access::store(
                    c + cell_child0 + k * wordBytes, wordBytes, 0));
            }
            (void)level;
            return c;
        };

        for (unsigned i = 0; i < n_bodies; ++i) {
            const std::uint64_t pos = body_pos_native[i];
            Addr slot = root_handle;
            unsigned level = 0;
            AccessResult cur = machine.access(Access::load(slot, wordBytes));
            for (;;) {
                if (cur.value == 0) {
                    machine.access(
                        Access::store(slot, wordBytes, bodies[i]));
                    break;
                }
                const Addr node = static_cast<Addr>(cur.value);
                const AccessResult tag = machine.access(
                    Access::load(node + cell_tag, wordBytes, cur.ready));
                if (tag.value == tag_cell) {
                    // Descend into the matching octant.
                    const unsigned o = octant(pos, level);
                    slot = node + cell_child0 + o * wordBytes;
                    ++level;
                    cur = machine.access(
                        Access::load(slot, wordBytes, tag.ready));
                    continue;
                }
                // Collision with a body: split.
                const AccessResult other_pos = machine.access(
                    Access::load(node + body_pos, wordBytes, tag.ready));
                const Addr cell = newCell(level, pos);
                machine.access(Access::store(slot, wordBytes, cell));
                const unsigned oo = octant(other_pos.value, level);
                machine.access(Access::store(
                    cell + cell_child0 + oo * wordBytes, wordBytes, node));
                slot = cell + cell_child0 +
                       octant(pos, level) * wordBytes;
                ++level;
                memfwd_assert(level < coord_bits + 8,
                              "bh: insertion depth overflow "
                              "(coincident bodies?)");
                cur = machine.access(Access::load(slot, wordBytes));
            }
            machine.access(Access::compute(8));
        }

        // ----- compute cell aggregates (post-order, depth-first) ------
        // Done natively over the structure with timed accesses.
        struct Agg
        {
            std::uint64_t mass;
            std::uint64_t pos_sum[3];
            std::uint64_t count;
        };
        std::vector<std::pair<Addr, Cycles>> stack;
        std::vector<Addr> postorder;
        {
            const AccessResult root =
                machine.access(Access::load(root_handle, wordBytes));
            if (root.value != 0)
                stack.emplace_back(static_cast<Addr>(root.value),
                                   root.ready);
        }
        // First pass: collect internal cells in DFS order.
        while (!stack.empty()) {
            auto [node, dep] = stack.back();
            stack.pop_back();
            const AccessResult tag = machine.access(
                Access::load(node + cell_tag, wordBytes, dep));
            if (tag.value != tag_cell)
                continue;
            postorder.push_back(node);
            for (unsigned k = 0; k < cell_children; ++k) {
                const AccessResult ch = machine.access(Access::load(
                    node + cell_child0 + k * wordBytes, wordBytes,
                    tag.ready));
                if (ch.value != 0)
                    stack.emplace_back(static_cast<Addr>(ch.value),
                                       ch.ready);
            }
        }
        // Children appear after parents in `postorder`; process in
        // reverse so aggregates flow upward.
        for (auto it = postorder.rbegin(); it != postorder.rend(); ++it) {
            const Addr node = *it;
            std::uint64_t mass = 0;
            std::uint64_t pos_sum[3] = {0, 0, 0};
            std::uint64_t count = 0;
            for (unsigned k = 0; k < cell_children; ++k) {
                const AccessResult ch = machine.access(Access::load(
                    node + cell_child0 + k * wordBytes, wordBytes));
                if (ch.value == 0)
                    continue;
                const Addr c = static_cast<Addr>(ch.value);
                const AccessResult m = machine.access(
                    Access::load(c + cell_mass, wordBytes, ch.ready));
                const AccessResult p = machine.access(
                    Access::load(c + cell_pos, wordBytes, ch.ready));
                mass += m.value;
                for (unsigned axis = 0; axis < 3; ++axis)
                    pos_sum[axis] += coordOf(p.value, axis);
                ++count;
            }
            machine.access(Access::compute(16));
            const std::uint64_t com =
                count ? packPos(pos_sum[0] / count, pos_sum[1] / count,
                                pos_sum[2] / count)
                      : 0;
            machine.access(Access::store(node + cell_mass, wordBytes, mass));
            machine.access(Access::store(node + cell_pos, wordBytes, com));
        }
        machine.exitRegion("build");

        // ----- layout optimization ------------------------------------
        if (variant.layout_opt) {
            machine.enterRegion("opt");
            TreeDesc desc;
            desc.node_bytes = cell_bytes;
            for (unsigned k = 0; k < cell_children; ++k)
                desc.child_offsets.push_back(cell_child0 + k * wordBytes);
            desc.null_child = 0;
            desc.leaf_tag_offset = cell_tag; // bodies have tag 1
            desc.leaf_tag_value = tag_body;
            const unsigned cluster_bytes = std::max(
                machine.config().hierarchy.l1d.line_bytes, 256u);
            const ClusterResult r = subtreeCluster(
                *backend, root_handle, desc, *pool, cluster_bytes);
            space_overhead_ += r.pool_bytes;
            machine.exitRegion("opt");
        }

        // ----- force walk over the body list --------------------------
        // Two acceleration evaluations per step (leapfrog half-steps),
        // so the walk dominates the per-step construction work.
        machine.enterRegion("kernel");
        for (unsigned pass = 0; pass < 2; ++pass) {
        AccessResult cur = machine.access(Access::load(body_list_head, wordBytes));
        while (cur.value != 0) {
            const Addr b = static_cast<Addr>(cur.value);
            const AccessResult next =
                machine.access(Access::load(b + body_next, wordBytes, cur.ready));
            if (variant.prefetch && next.value != 0) {
                machine.access(Access::prefetch(static_cast<Addr>(next.value),
                                 variant.prefetch_block, next.ready));
            }

            const AccessResult bpos =
                machine.access(Access::load(b + body_pos, wordBytes, cur.ready));
            std::uint64_t acc = 0;

            // Tree walk with the opening criterion.
            std::vector<std::pair<Addr, std::pair<unsigned, Cycles>>> st;
            {
                const AccessResult root =
                    machine.access(Access::load(root_handle, wordBytes));
                if (root.value != 0)
                    st.push_back({static_cast<Addr>(root.value),
                                  {0, root.ready}});
            }
            while (!st.empty()) {
                auto [node, lvl_dep] = st.back();
                auto [lvl, dep] = lvl_dep;
                st.pop_back();
                const AccessResult tag =
                    machine.access(Access::load(node + cell_tag, wordBytes, dep));
                const AccessResult npos =
                    machine.access(Access::load(node + cell_pos, wordBytes, dep));
                const AccessResult nmass =
                    machine.access(Access::load(node + cell_mass, wordBytes, dep));
                machine.access(Access::compute(12));

                const std::uint64_t d2 = dist2(bpos.value, npos.value);
                const std::uint64_t size =
                    (coord_mask + 1) >> std::min(lvl, coord_bits - 1u);
                const bool far = d2 * theta2 > size * size * 256 &&
                                 node != b;
                if (tag.value == tag_body || far) {
                    if (node != b && d2 != 0)
                        acc += nmass.value * 4096 / d2;
                } else if (tag.value == tag_cell) {
                    for (unsigned k = 0; k < cell_children; ++k) {
                        const AccessResult ch = machine.access(Access::load(
                            node + cell_child0 + k * wordBytes,
                            wordBytes, tag.ready));
                        if (ch.value != 0) {
                            if (variant.prefetch) {
                                machine.access(Access::prefetch(
                                    static_cast<Addr>(ch.value),
                                    variant.prefetch_block, ch.ready));
                            }
                            st.push_back(
                                {static_cast<Addr>(ch.value),
                                 {lvl + 1, ch.ready}});
                        }
                    }
                }
            }

            machine.access(Access::store(b + body_acc, wordBytes, acc));
            checksum_ += acc;
            cur = AccessResult{next.value, next.ready, 0, next.final_addr};
        }
        }
        machine.exitRegion("kernel");
    }
}

} // namespace

std::unique_ptr<Workload>
makeBh(const WorkloadParams &params)
{
    return std::make_unique<Bh>(params);
}

} // namespace memfwd
