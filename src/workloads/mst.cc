/**
 * @file
 * MST (Olden): minimum spanning tree over a graph whose adjacency
 * structure is a per-vertex hash table with chained buckets.
 *
 * The kernel is Bentley's algorithm as in Olden: vertices live on a
 * linked list; each round scans the remaining vertices (list
 * traversal), and for each one performs a hash-table lookup of its
 * distance to the vertex most recently added to the tree (bucket-chain
 * walk).  Both the vertex list and the bucket chains are built from
 * scattered allocations, so the scans have no spatial locality.
 *
 * Optimization (L): after graph construction, linearize the vertex
 * list and every vertex's bucket chains into a relocation pool
 * (Section 5.3 applies "the same locality optimization ... list
 * linearization" to MST).
 *
 * Prefetching (P): block prefetch of the next vertex's record as soon
 * as its address is known in the scan loop.
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

// Hash-entry layout (24 bytes): chain next, neighbour id, weight.
constexpr unsigned ent_next = 0;
constexpr unsigned ent_key = 8;
constexpr unsigned ent_weight = 16;
constexpr unsigned ent_bytes = 24;

// Vertex layout: list next, id, min-dist, bucket heads[n_buckets].
constexpr unsigned vtx_next = 0;
constexpr unsigned vtx_id = 8;
constexpr unsigned vtx_dist = 16;
constexpr unsigned vtx_buckets = 24;
constexpr unsigned n_buckets = 4;
constexpr unsigned vtx_bytes = vtx_buckets + n_buckets * wordBytes;

constexpr std::uint64_t infinite_dist = ~std::uint64_t(0);

class Mst final : public Workload
{
  public:
    explicit Mst(const WorkloadParams &params) : params_(params) {}

    std::string name() const override { return "mst"; }

    std::string
    description() const override
    {
        return "Olden: Bentley's MST over a graph stored as per-vertex "
               "hash tables with chained buckets";
    }

    std::string
    optimization() const override
    {
        return "list linearization of the vertex list and of every "
               "hash-bucket chain";
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
Mst::run(Machine &machine, const WorkloadVariant &variant)
{
    const unsigned n_vertices =
        std::max(16u, static_cast<unsigned>(1024 * params_.scale));
    const unsigned degree = 8; // edges per vertex (to earlier vertices)

    SimAllocator alloc(machine, params_.seed);
    std::unique_ptr<RelocationPool> pool;
    if (variant.layout_opt)
        pool = std::make_unique<RelocationPool>(alloc, Addr(64) << 20);

    // ----- build the graph ---------------------------------------------
    // Vertices go on a list (head kept in simulated memory so the list
    // head handle can be passed to listLinearize).
    machine.enterRegion("build");

    const Addr vlist_head = alloc.alloc(wordBytes);
    machine.access(Access::store(vlist_head, wordBytes, 0));

    std::vector<Addr> vertex_addr(n_vertices);
    for (unsigned i = 0; i < n_vertices; ++i) {
        const Addr v = alloc.alloc(vtx_bytes, Placement::scattered);
        vertex_addr[i] = v;
        machine.access(Access::store(v + vtx_id, wordBytes, i));
        machine.access(Access::store(v + vtx_dist, wordBytes, infinite_dist));
        for (unsigned b = 0; b < n_buckets; ++b) {
            machine.access(
                Access::store(v + vtx_buckets + b * wordBytes, wordBytes, 0));
        }
        // Prepend to the vertex list.
        const AccessResult head =
            machine.access(Access::load(vlist_head, wordBytes));
        machine.access(Access::store(v + vtx_next, wordBytes, head.value));
        machine.access(Access::store(vlist_head, wordBytes, v));
    }

    // Undirected edges: vertex i connects to `degree` earlier vertices;
    // the weight is a deterministic hash.  An edge (a,b) is inserted in
    // both endpoints' hash tables, in allocation order that interleaves
    // all vertices — that is what scatters the chains.
    auto insertEdge = [&](unsigned from, unsigned to,
                          std::uint64_t weight) {
        const Addr v = vertex_addr[from];
        const Addr bucket =
            v + vtx_buckets + (to % n_buckets) * wordBytes;
        const Addr e = alloc.alloc(ent_bytes, Placement::scattered);
        const AccessResult head =
            machine.access(Access::load(bucket, wordBytes));
        machine.access(Access::store(e + ent_next, wordBytes, head.value));
        machine.access(Access::store(e + ent_key, wordBytes, to));
        machine.access(Access::store(e + ent_weight, wordBytes, weight));
        machine.access(Access::store(bucket, wordBytes, e));
    };

    for (unsigned i = 1; i < n_vertices; ++i) {
        for (unsigned d = 0; d < degree; ++d) {
            const unsigned j = static_cast<unsigned>(
                mix64(params_.seed, (std::uint64_t(i) << 16) | d) % i);
            const std::uint64_t w =
                1 + mix64(std::uint64_t(i) * 131071 + j) % 4096;
            insertEdge(i, j, w);
            insertEdge(j, i, w);
        }
    }
    machine.exitRegion("build");
    machine.enterRegion("opt");

    // ----- layout optimization (one-shot, after construction) ----------
    // Relocation goes through the machine-selected LayoutBackend; a
    // backend that refuses it (none) leaves the scattered layout.
    if (variant.layout_opt) {
        const auto backend = makeLayoutBackend(machine, alloc);
        // Linearize the vertex list itself...
        const LinearizeResult lv = listLinearize(
            *backend, vlist_head, {vtx_bytes, vtx_next, 0}, *pool);
        space_overhead_ += lv.pool_bytes;
        // ...then every bucket chain of every vertex, walking the list
        // at its new addresses.
        AccessResult cur =
            machine.access(Access::load(vlist_head, wordBytes));
        while (cur.value != 0) {
            const Addr v = static_cast<Addr>(cur.value);
            for (unsigned b = 0; b < n_buckets; ++b) {
                const LinearizeResult le = listLinearize(
                    *backend, v + vtx_buckets + b * wordBytes,
                    {ent_bytes, ent_next, 0}, *pool);
                space_overhead_ += le.pool_bytes;
            }
            cur = machine.access(
                Access::load(v + vtx_next, wordBytes, cur.ready));
        }
    }
    machine.exitRegion("opt");
    machine.enterRegion("kernel");

    // ----- Bentley's MST -------------------------------------------------
    // hashLookup(v, key): walk the bucket chain for `key`, return the
    // weight (or 0 if absent).
    auto hashLookup = [&](Addr v, std::uint64_t key,
                          Cycles dep) -> std::uint64_t {
        const Addr bucket =
            v + vtx_buckets + (key % n_buckets) * wordBytes;
        AccessResult cur = machine.access(Access::load(bucket, wordBytes, dep));
        while (cur.value != 0) {
            const Addr e = static_cast<Addr>(cur.value);
            const AccessResult k =
                machine.access(Access::load(e + ent_key, wordBytes, cur.ready));
            if (k.value == key) {
                const AccessResult w =
                    machine.access(Access::load(e + ent_weight, wordBytes, cur.ready));
                return w.value;
            }
            cur = machine.access(Access::load(e + ent_next, wordBytes, cur.ready));
        }
        return 0;
    };

    // Remove vertex 0 (the initial tree) from the list.
    {
        Addr prev_slot = vlist_head;
        AccessResult cur = machine.access(Access::load(vlist_head, wordBytes));
        while (cur.value != 0) {
            const Addr v = static_cast<Addr>(cur.value);
            const AccessResult id =
                machine.access(Access::load(v + vtx_id, wordBytes, cur.ready));
            const AccessResult nxt =
                machine.access(Access::load(v + vtx_next, wordBytes, cur.ready));
            if (id.value == 0) {
                machine.access(Access::store(prev_slot, wordBytes, nxt.value));
                break;
            }
            prev_slot = v + vtx_next;
            cur = AccessResult{nxt.value, nxt.ready, 0, nxt.final_addr};
        }
    }

    std::uint64_t total_weight = 0;
    std::uint64_t last_added = 0; // id of the vertex just added

    const unsigned line_bytes = machine.config().hierarchy.l1d.line_bytes;
    (void)line_bytes;

    for (unsigned round = 1; round < n_vertices; ++round) {
        // Scan remaining vertices: update each one's distance with its
        // edge to `last_added`, track the global minimum.
        Addr best_prev_slot = 0;
        Addr best_vertex = 0;
        std::uint64_t best_dist = infinite_dist;
        std::uint64_t best_id = 0;

        Addr prev_slot = vlist_head;
        AccessResult cur = machine.access(Access::load(vlist_head, wordBytes));
        while (cur.value != 0) {
            const Addr v = static_cast<Addr>(cur.value);

            const AccessResult nxt =
                machine.access(Access::load(v + vtx_next, wordBytes, cur.ready));
            if (variant.prefetch && nxt.value != 0) {
                machine.access(Access::prefetch(static_cast<Addr>(nxt.value),
                                 variant.prefetch_block, nxt.ready));
            }

            const std::uint64_t w = hashLookup(v, last_added, cur.ready);
            const AccessResult dist =
                machine.access(Access::load(v + vtx_dist, wordBytes, cur.ready));
            std::uint64_t d = dist.value;
            if (w != 0 && w < d) {
                d = w;
                machine.access(Access::store(v + vtx_dist, wordBytes, d, dist.ready));
            }
            machine.access(Access::compute(4));

            if (d < best_dist) {
                best_dist = d;
                best_vertex = v;
                best_prev_slot = prev_slot;
                const AccessResult id =
                    machine.access(Access::load(v + vtx_id, wordBytes, cur.ready));
                best_id = id.value;
            }

            prev_slot = v + vtx_next;
            cur = AccessResult{nxt.value, nxt.ready, 0, nxt.final_addr};
        }

        memfwd_assert(best_vertex != 0,
                      "mst: graph disconnected (round %u)", round);

        // Add the best vertex to the tree: unlink it from the list.
        const AccessResult bn =
            machine.access(Access::load(best_vertex + vtx_next, wordBytes));
        machine.access(Access::store(best_prev_slot, wordBytes, bn.value));
        total_weight += best_dist;
        last_added = best_id;
    }
    machine.exitRegion("kernel");

    checksum_ = total_weight;
}

} // namespace

std::unique_ptr<Workload>
makeMst(const WorkloadParams &params)
{
    return std::make_unique<Mst>(params);
}

} // namespace memfwd
