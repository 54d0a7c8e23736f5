/**
 * @file
 * Extension: page-level locality for out-of-core data (the closing
 * point of Section 2.2: relocation "is applicable not only to caches
 * but also to the other levels of the memory hierarchy", e.g. pages
 * and disk).
 *
 * A large linked list is scattered across many pages; traversing it
 * with a small resident set faults on nearly every node.  After
 * linearization the same traversal touches the minimum number of
 * pages.  The PageCache model watches the Machine's reference stream
 * through a TraceSink registered with the machine's Tracer.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/logging.hh"
#include "mem/page_cache.hh"
#include "runtime/layout_backend.hh"
#include "runtime/list_linearize.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"

using namespace memfwd;
using namespace memfwd::bench;

namespace
{

constexpr unsigned node_bytes = 32;
constexpr unsigned off_next = 0;
constexpr unsigned off_payload = 8;

/** Feeds each demand reference's final address to the page model. */
class PagingSink : public obs::TraceSink
{
  public:
    explicit PagingSink(PageCache &paging) : paging_(paging) {}

    void
    emit(const obs::TraceEvent &e) override
    {
        if (e.kind == obs::EventKind::reference)
            paging_.access(e.addr2);
    }

  private:
    PageCache &paging_;
};

std::uint64_t
traverse(Machine &m, Addr head)
{
    std::uint64_t sum = 0;
    AccessResult cur = m.access(Access::load(head, 8));
    while (cur.value != 0) {
        sum += m.access(Access::load(cur.value + off_payload, 8, cur.ready)).value;
        cur = m.access(Access::load(cur.value + off_next, 8, cur.ready));
    }
    return sum;
}

} // namespace

int
main()
{
    memfwd::bench::Report report("ext_out_of_core");
    setVerbose(false);
    header("Extension: out-of-core page locality "
           "(4KB pages, 64-page resident set)",
           "page faults for a full list traversal, before and after "
           "linearization");

    const Stopwatch clock;
    Machine m;
    SimAllocator alloc(m);
    RelocationPool pool(alloc, 64 << 20);

    const unsigned n =
        std::max(1000u, static_cast<unsigned>(30000 * benchScale()));
    const Addr head = alloc.alloc(8);
    m.access(Access::store(head, 8, 0));
    Addr prev = 0;
    for (unsigned i = 0; i < n; ++i) {
        const Addr node = alloc.alloc(node_bytes, Placement::scattered);
        m.access(Access::store(node + off_next, 8, 0));
        m.access(Access::store(node + off_payload, 8, i));
        if (prev == 0)
            m.access(Access::store(head, 8, node));
        else
            m.access(Access::store(prev + off_next, 8, node));
        prev = node;
    }

    PageCache paging(4096, 64);
    PagingSink sink(paging);
    m.tracer().addSink(&sink);

    const std::uint64_t sum_before = traverse(m, head);
    const std::uint64_t faults_before = paging.faults();
    const std::uint64_t pages_before = paging.pagesTouched();

    // The optimizer's own work is not metered.
    m.tracer().removeSink(&sink);
    ForwardingBackend fwd(m);
    listLinearize(fwd, head, {node_bytes, off_next, 0}, pool);

    paging.clearStats();
    m.tracer().addSink(&sink);
    const std::uint64_t sum_after = traverse(m, head);
    const double wall_ms = clock.ms();
    const std::uint64_t faults_after = paging.faults();
    const std::uint64_t pages_after = paging.pagesTouched();
    m.tracer().removeSink(&sink);

    if (sum_before != sum_after) {
        std::printf("CHECKSUM MISMATCH\n");
        return 1;
    }

    report.addCase("scattered/page_faults", faults_before, 0, sum_before,
                   obs::MetricsNode{});
    report.addCase("linearized/page_faults", faults_after, 0, sum_after,
                   m.metrics(), wall_ms);

    std::printf("\n%u-node list, %s bytes of payload data\n", n,
                withCommas(std::uint64_t(n) * node_bytes).c_str());
    std::printf("%-12s %14s %16s %18s\n", "layout", "page faults",
                "pages touched", "fault cycles");
    std::printf("%-12s %14s %16s %18s\n", "scattered",
                withCommas(faults_before).c_str(),
                withCommas(pages_before).c_str(),
                withCommas(faults_before * 100000).c_str());
    std::printf("%-12s %14s %16s %18s\n", "linearized",
                withCommas(faults_after).c_str(),
                withCommas(pages_after).c_str(),
                withCommas(faults_after * 100000).c_str());
    std::printf("\nfault reduction %.1fx; pages touched %.1fx fewer; "
                "traversal sums identical\n",
                double(faults_before) / double(faults_after),
                double(pages_before) / double(pages_after));
    std::printf("\ntakeaway: the same linearization that fixes cache "
                "lines compresses the page working set — the paper's "
                "claim that forwarding-enabled relocation helps every "
                "level of the hierarchy, including disk.\n");
    return 0;
}
