/**
 * @file
 * SMV: symbolic model checking over Binary Decision Diagrams
 * (Section 5.4) — the paper's one application where forwarding
 * actually fires after relocation.
 *
 * BDD nodes are reachable two ways: through the unique-table hash
 * chains (`next` pointers) and through the BDD graph itself
 * (`low`/`high` pointers held in *other nodes*).  The optimization
 * linearizes the hash-bucket chains, which updates the bucket heads
 * and chain next pointers — but the low/high pointers scattered across
 * every other node are beyond the optimizer's reach, so graph
 * traversals dereference stale addresses and the forwarding safety net
 * fires (the paper measures 7.7% of loads and 1.7% of stores taking
 * one hop).
 *
 * The run alternates hash-heavy phases (unique-table lookups, which
 * dominate misses, motivating the optimization) with graph-traversal
 * phases (which forward after linearization), and supports the
 * perfect-forwarding bound by machine configuration (Figure 10's
 * "Perf" case).
 */

#include "workloads/workload.hh"

#include "common/logging.hh"
#include "runtime/layout_backend.hh"
#include "runtime/list_linearize.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/smv_hooks.hh"
#include "workloads/workload_util.hh"

#include <memory>
#include <vector>

namespace memfwd
{

std::uint64_t
installSmvPointerFixup(Machine &machine)
{
    return machine.forwarding().traps().install(
        [&machine](const TrapInfo &info) {
            if (info.pointer_slot == 0)
                return TrapAction::resume;
            // BDD nodes move as rigid blocks: shift the stale pointer
            // by the displacement the accessed word experienced.  Skip
            // if another trap already fixed this slot (its pointer no
            // longer targets a forwarded word) so the fixup stays
            // idempotent.
            const std::uint64_t old_ptr =
                machine.peek(info.pointer_slot, wordBytes);
            if (!machine.mem().fbit(wordAlign(old_ptr)))
                return TrapAction::resume;
            const std::uint64_t delta =
                info.final_addr - info.initial_addr;
            machine.poke(info.pointer_slot, wordBytes, old_ptr + delta);
            return TrapAction::pointer_fixed;
        });
}

namespace
{

// BDD node layout (32 bytes): hash-chain next, var, low, high.
constexpr unsigned bdd_next = 0;
constexpr unsigned bdd_var = 8;
constexpr unsigned bdd_low = 16;
constexpr unsigned bdd_high = 24;
constexpr unsigned bdd_bytes = 32;

// Reference-site tags for the forwarding profiler example.
constexpr SiteId site_hash_walk = 1;
constexpr SiteId site_tree_low = 2;
constexpr SiteId site_tree_high = 3;

class Smv final : public Workload
{
  public:
    explicit Smv(const WorkloadParams &params) : params_(params) {}

    std::string name() const override { return "smv"; }

    std::string
    description() const override
    {
        return "SMV: BDD-based model checking; nodes shared between "
               "unique-table hash chains and the BDD graph";
    }

    std::string
    optimization() const override
    {
        return "linearization of unique-table hash chains; graph "
               "(low/high) pointers stay stale and rely on forwarding";
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
Smv::run(Machine &machine, const WorkloadVariant &variant)
{
    const unsigned n_vars = 24;
    const unsigned n_buckets =
        std::max(1024u, static_cast<unsigned>(16384 * params_.scale));
    const unsigned n_nodes =
        std::max(1024u, static_cast<unsigned>(24000 * params_.scale));
    const unsigned n_rounds = 4;
    const unsigned lookups_per_round =
        std::max(1024u, static_cast<unsigned>(70000 * params_.scale));
    const unsigned traversals_per_round =
        std::max(256u, static_cast<unsigned>(2400 * params_.scale));

    SimAllocator alloc(machine, params_.seed);
    std::unique_ptr<RelocationPool> pool;
    if (variant.layout_opt)
        pool = std::make_unique<RelocationPool>(alloc, Addr(64) << 20);
    std::unique_ptr<LayoutBackend> backend;
    if (variant.layout_opt)
        backend = makeLayoutBackend(machine, alloc);

    // ----- unique table --------------------------------------------------
    machine.enterRegion("build");
    const Addr buckets = alloc.alloc(Addr(n_buckets) * wordBytes);
    for (unsigned b = 0; b < n_buckets; ++b)
        machine.access(
            Access::store(buckets + Addr(b) * wordBytes, wordBytes, 0));

    // Bucket choice hashes functional node ids, never addresses, so
    // the N and L variants populate identical chains.
    auto bucketOf = [&](std::uint64_t var, std::uint64_t lo_id,
                        std::uint64_t hi_id) {
        return mix64(var * 0x9e3779b97f4a7c15ULL ^ lo_id, hi_id) %
               n_buckets;
    };

    // ----- build the BDD graph bottom-up ---------------------------------
    // Terminal nodes (var == n_vars) then layers of internal nodes whose
    // low/high point into earlier layers.  Every node is also threaded
    // into its unique-table bucket chain.
    std::vector<Addr> nodes;
    nodes.reserve(n_nodes);

    auto addNode = [&](std::uint64_t var, std::uint64_t lo_id,
                       std::uint64_t hi_id) {
        const Addr n = alloc.alloc(bdd_bytes, Placement::scattered);
        machine.access(Access::store(n + bdd_var, wordBytes, var));
        machine.access(Access::store(
            n + bdd_low, wordBytes, lo_id < nodes.size() ? nodes[lo_id] : 0));
        machine.access(Access::store(
            n + bdd_high, wordBytes, hi_id < nodes.size() ? nodes[hi_id] : 0));
        const Addr bslot =
            buckets + bucketOf(var, lo_id, hi_id) * wordBytes;
        const AccessResult head =
            machine.access(Access::load(bslot, wordBytes));
        machine.access(Access::store(n + bdd_next, wordBytes, head.value));
        machine.access(Access::store(bslot, wordBytes, n));
        nodes.push_back(n);
        return n;
    };

    addNode(n_vars, ~0ull, ~0ull); // terminal 0
    addNode(n_vars, ~0ull, ~0ull); // terminal 1

    while (nodes.size() < n_nodes) {
        const std::uint64_t var =
            n_vars - 1 -
            (mix64(params_.seed, nodes.size()) % n_vars);
        // Children drawn from already-built nodes (acyclic).
        const std::uint64_t lo_id =
            mix64(nodes.size(), 0xabcdef) % nodes.size();
        const std::uint64_t hi_id =
            mix64(nodes.size(), 0x123456) % nodes.size();
        addNode(var, lo_id, hi_id);
    }
    machine.exitRegion("build");

    checksum_ = 0;
    for (unsigned round = 0; round < n_rounds; ++round) {
        // ----- hash-heavy phase: unique-table lookups ------------------
        // (These dominate cache misses, which is why the paper chose to
        // linearize the hash chains.)
        machine.enterRegion("kernel");
        for (unsigned l = 0; l < lookups_per_round; ++l) {
            const std::uint64_t key =
                mix64(params_.seed,
                      (std::uint64_t(round) << 32) | l);
            const Addr bslot =
                buckets + (key % n_buckets) * wordBytes;
            AccessResult cur = machine.access(Access::load(bslot, wordBytes));
            std::uint64_t walked = 0;
            while (cur.value != 0) {
                const Addr n = static_cast<Addr>(cur.value);
                const AccessResult var = machine.access(Access::load(
                    n + bdd_var, wordBytes, cur.ready, site_hash_walk));
                walked += var.value;
                machine.access(Access::compute(3));
                const AccessResult nx = machine.access(Access::load(
                    n + bdd_next, wordBytes, cur.ready, site_hash_walk));
                if (variant.prefetch && nx.value != 0) {
                    machine.access(Access::prefetch(static_cast<Addr>(nx.value),
                                     variant.prefetch_block, nx.ready));
                }
                cur = AccessResult{nx.value, nx.ready, 0, nx.final_addr};
            }
            checksum_ += walked & 0xff;
        }
        machine.exitRegion("kernel");

        // ----- layout optimization: linearize the hash chains ----------
        // Invoked once, after the first hash-heavy phase has shown
        // where the misses are: chains become one-hop stale for graph
        // pointers, matching the paper's "one forwarding hop" profile.
        if (variant.layout_opt && round == 0) {
            machine.enterRegion("opt");
            for (unsigned b = 0; b < n_buckets; ++b) {
                const LinearizeResult lr = listLinearize(
                    *backend, buckets + Addr(b) * wordBytes,
                    {bdd_bytes, bdd_next, 0}, *pool);
                space_overhead_ += lr.pool_bytes;
            }
            machine.exitRegion("opt");
        }

        // ----- graph-traversal phase: walks via low/high ----------------
        // After linearization these pointers are stale: every node
        // dereference forwards (one hop per linearization round).
        machine.enterRegion("kernel");
        for (unsigned t = 0; t < traversals_per_round; ++t) {
            const std::uint64_t key =
                mix64(0x5eed ^ params_.seed,
                      (std::uint64_t(round) << 32) | t);
            // Start from a deterministic node index; descend to a
            // terminal following var-indexed branch decisions.
            Addr cur = nodes[key % nodes.size()];
            Addr cur_slot = 0; // word the stale pointer came from
            Cycles dep = 0;
            std::uint64_t path = 0;
            for (unsigned d = 0; d < 24; ++d) {
                const AccessResult var = machine.access(Access::load(
                    cur + bdd_var, wordBytes, dep, site_tree_low,
                    cur_slot));
                if (var.value >= n_vars)
                    break; // terminal
                const bool go_high = (key >> (d & 63)) & 1;
                const unsigned off = go_high ? bdd_high : bdd_low;
                const SiteId site =
                    go_high ? site_tree_high : site_tree_low;
                const AccessResult child =
                    machine.access(Access::load(cur + off, wordBytes, var.ready, site,
                                 cur_slot));
                path = path * 2 + go_high;
                machine.access(Access::compute(4));
                if (child.value == 0)
                    break;
                cur_slot = cur + off;
                cur = static_cast<Addr>(child.value);
                dep = child.ready;
            }
            checksum_ += mix64(path);

            // Occasionally memoize: store a result tag into the node
            // via the (possibly stale) graph pointer — the forwarded
            // *stores* of Figure 10(c).
            if (hashChance(key, 600, 1000)) {
                machine.access(Access::store(cur + bdd_var, wordBytes,
                              machine.peek(cur + bdd_var, wordBytes),
                              dep, site_tree_low, cur_slot));
            }
        }
        machine.exitRegion("kernel");
    }
}

} // namespace

std::unique_ptr<Workload>
makeSmv(const WorkloadParams &params)
{
    return std::make_unique<Smv>(params);
}

} // namespace memfwd
