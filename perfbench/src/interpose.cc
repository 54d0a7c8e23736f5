/**
 * @file
 * Link-time interposers that time calls into each simulator layer.
 *
 * Every WRAP line below names one out-of-line entry point by its
 * mangled symbol.  The build (CMakeLists.txt) reads those lines and
 * links the traced driver with `-Wl,--wrap=<symbol>`, so every call to
 * the symbol from another translation unit lands in `__wrap_<symbol>`,
 * which opens a span and calls `__real_<symbol>`.  Calls inside the
 * defining translation unit and virtual calls are not redirected: that
 * is why `Cache::access`, reached only through `MemLevel::access`, has
 * no span of its own and counts as `cache` self time.  A wrapped symbol
 * that no longer exists fails the link, because `__real_<symbol>`
 * stays undefined.
 *
 * Member functions are declared here as free functions taking the
 * object pointer first, which is how the x86-64 System V ABI passes
 * `this`.  Spans are timed with the time-stamp counter, converted to
 * nanoseconds against steady_clock over the recording window.
 */

#include <x86intrin.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/mshr.hh"
#include "common/logging.hh"
#include "core/forwarding_engine.hh"
#include "cpu/lsq.hh"
#include "cpu/ooo_cpu.hh"
#include "cpu/rob.hh"
#include "runtime/machine.hh"
#include "runtime/ref_stream.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"
#include "spans.hh"

using namespace memfwd;
using memfwd::obs::Json;

namespace perfbench
{
namespace
{

enum Layer : std::uint8_t
{
    machine,
    fwd,
    cache,
    cache_mshr,
    cpu,
    cpu_alu,
    cpu_lsq,
    cpu_rob,
    alloc,
    relocate,
    n_layers,
    calib = n_layers, ///< empty spans timed by calibrate()
    top,              ///< parent index of spans with no parent
};

constexpr const char *layer_names[n_layers] = {
    "machine", "fwd",     "cache",   "cache.mshr", "cpu",
    "cpu.alu", "cpu.lsq", "cpu.rob", "alloc",      "relocate"};

/** Totals, in ticks, over every span of one (layer, parent) pair. */
struct Agg
{
    std::uint64_t count = 0;
    std::uint64_t ticks = 0;
    std::uint64_t child_ticks = 0;
    std::uint64_t children = 0;
};

struct Frame
{
    Layer layer;
    std::uint64_t start;
    std::uint64_t child_ticks;
    std::uint64_t children;
};

struct RawSpan
{
    std::uint64_t start;
    std::uint64_t ticks;
    Layer layer;
    Layer parent;
};

constexpr unsigned max_depth = 64;
constexpr std::size_t ring_size = 1u << 14;

// The driver is single-threaded, so plain globals keep the wrappers to
// a few stores each.
std::array<Frame, max_depth> stack;
unsigned depth = 0;
Agg agg[calib + 1][top + 1];
std::vector<RawSpan> ring(ring_size);
std::uint64_t ring_next = 0;

/** Boundary counters, recorded where the calls cross into a layer. */
std::uint64_t access_calls = 0;
std::uint64_t batched_refs = 0;
std::uint64_t alloc_allocs = 0;
std::uint64_t relocate_words = 0;

std::string window_id;
std::uint64_t window_start = 0;
std::chrono::steady_clock::time_point window_start_clock;

/** Calibrated wrapper cost, in ticks: inside an empty span, and left in
 *  its parent. */
double empty_self_ticks = 0.0;
double parent_cost_ticks = 0.0;

inline std::uint64_t
now()
{
    return __rdtsc();
}

class Span
{
  public:
    explicit Span(Layer layer)
    {
        if (depth == max_depth)
            memfwd_fatal("perfbench: span stack deeper than %u", max_depth);
        Frame &f = stack[depth++];
        f.layer = layer;
        f.child_ticks = 0;
        f.children = 0;
        f.start = now();
    }

    ~Span()
    {
        const std::uint64_t end = now();
        const Frame &f = stack[--depth];
        const std::uint64_t ticks = end - f.start;
        const Layer parent = depth ? stack[depth - 1].layer : top;
        Agg &a = agg[f.layer][parent];
        ++a.count;
        a.ticks += ticks;
        a.child_ticks += f.child_ticks;
        a.children += f.children;
        if (depth) {
            stack[depth - 1].child_ticks += ticks;
            ++stack[depth - 1].children;
        }
        ring[ring_next++ % ring_size] = {f.start, ticks, f.layer, parent};
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
};

/** Adds the references a batched Machine::run executed. */
class RefsDelta
{
  public:
    explicit RefsDelta(const Machine *m) : m_(m), before_(m->refsExecuted())
    {}
    ~RefsDelta() { batched_refs += m_->refsExecuted() - before_; }

    RefsDelta(const RefsDelta &) = delete;
    RefsDelta &operator=(const RefsDelta &) = delete;

  private:
    const Machine *m_;
    std::uint64_t before_;
};

void
resetWindow()
{
    for (auto &row : agg)
        for (Agg &a : row)
            a = Agg{};
    ring_next = 0;
    access_calls = batched_refs = alloc_allocs = relocate_words = 0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * Time batches of empty spans nested in one parent.  Per batch, the
 * parent's time not covered by its children, per child, is what each
 * span costs its parent; the mean child duration is what an empty span
 * reports as its own self time.
 */
void
calibrate()
{
    constexpr unsigned batches = 9;
    constexpr unsigned per_batch = 20000;
    std::vector<double> parent_cost, empty_self;
    for (unsigned b = 0; b < batches; ++b) {
        resetWindow();
        {
            Span outer(calib);
            for (unsigned i = 0; i < per_batch; ++i)
                Span inner(calib);
        }
        const Agg &in = agg[calib][calib];
        const Agg &out = agg[calib][top];
        parent_cost.push_back(double(out.ticks - out.child_ticks) /
                              per_batch);
        empty_self.push_back(double(in.ticks) / per_batch);
    }
    parent_cost_ticks = median(parent_cost);
    empty_self_ticks = median(empty_self);
}

const char *
parentName(unsigned p)
{
    return p == top ? "workload" : layer_names[p];
}

void
writeChromeTrace(const std::string &path, const Json &report,
                 double ns_per_tick)
{
    std::ofstream os(path);
    if (!os)
        memfwd_fatal("perfbench: cannot write %s", path.c_str());
    const std::uint64_t n = std::min<std::uint64_t>(ring_next, ring_size);
    Json events = Json::array();
    for (std::uint64_t i = ring_next - n; i < ring_next; ++i) {
        const RawSpan &s = ring[i % ring_size];
        Json e = Json::object();
        e["name"] = Json::string(layer_names[s.layer]);
        e["cat"] = Json::string("perfbench");
        e["ph"] = Json::string("X");
        e["ts"] = Json::real(double(s.start - window_start) * ns_per_tick /
                             1e3);
        e["dur"] = Json::real(double(s.ticks) * ns_per_tick / 1e3);
        e["pid"] = Json::number(1);
        e["tid"] = Json::number(1);
        Json args = Json::object();
        args["run_id"] = Json::string(window_id);
        args["parent"] = Json::string(parentName(s.parent));
        e["args"] = std::move(args);
        events.push(std::move(e));
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = Json::string("ns");
    doc["otherData"] = report;
    doc.write(os);
    os << '\n';
}

} // namespace

void
spansBegin(const std::string &run_id)
{
    calibrate();
    resetWindow();
    window_id = run_id;
    window_start_clock = std::chrono::steady_clock::now();
    window_start = now();
}

Json
spansEnd(const std::string &trace_path)
{
    const double window_ticks = double(now() - window_start);
    const double window_ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - window_start_clock)
            .count();
    const double ns_per_tick = window_ns / window_ticks;
    memfwd_assert(depth == 0, "perfbench: spans still open at window end");

    // Self time: span time minus child spans, minus the calibrated cost
    // each child's wrapper left in it and the cost inside the span's own
    // wrapper.  What no top-level span covers is the workload kernel.
    double self[n_layers + 1] = {};
    std::uint64_t calls[n_layers] = {};
    double top_ticks = 0.0;
    std::uint64_t top_count = 0;
    Json pairs = Json::array();
    for (unsigned l = 0; l < n_layers; ++l) {
        for (unsigned p = 0; p <= top; ++p) {
            const Agg &a = agg[l][p];
            if (!a.count)
                continue;
            calls[l] += a.count;
            self[l] += double(a.ticks - a.child_ticks) -
                       double(a.children) * parent_cost_ticks -
                       double(a.count) * empty_self_ticks;
            if (p == top) {
                top_ticks += double(a.ticks);
                top_count += a.count;
            }
            Json pair = Json::object();
            pair["layer"] = Json::string(layer_names[l]);
            pair["parent"] = Json::string(parentName(p));
            pair["calls"] = Json::number(a.count);
            pair["ns"] = Json::real(double(a.ticks) * ns_per_tick);
            pair["child_ns"] = Json::real(double(a.child_ticks) * ns_per_tick);
            pairs.push(std::move(pair));
        }
    }
    self[n_layers] =
        window_ticks - top_ticks - double(top_count) * parent_cost_ticks;
    double total_self = 0.0;
    for (double &s : self) {
        s = std::max(s, 0.0);
        total_self += s;
    }

    // Shares are of the traced run less the calibrated span cost, so
    // they sum to one and estimate the untraced split.
    Json layers = Json::object();
    for (unsigned l = 0; l <= n_layers; ++l) {
        Json layer = Json::object();
        layer["self_frac"] = Json::real(self[l] / total_self);
        if (l < n_layers) {
            layer["calls"] = Json::number(calls[l]);
            layer["self_ns_per_call"] = Json::real(
                calls[l] ? self[l] * ns_per_tick / double(calls[l]) : 0.0);
        }
        layers[l < n_layers ? layer_names[l] : "workload"] = std::move(layer);
    }

    Json counters = Json::object();
    counters["machine_access_calls"] = Json::number(access_calls);
    counters["batched_refs"] = Json::number(batched_refs);
    counters["alloc_allocs"] = Json::number(alloc_allocs);
    counters["relocate_words"] = Json::number(relocate_words);

    Json report = Json::object();
    report["run_id"] = Json::string(window_id);
    report["window_s"] = Json::real(window_ns / 1e9);
    report["self_total_s"] = Json::real(total_self * ns_per_tick / 1e9);
    report["empty_span_ns"] = Json::real(empty_self_ticks * ns_per_tick);
    report["span_parent_cost_ns"] =
        Json::real(parent_cost_ticks * ns_per_tick);
    report["layers"] = std::move(layers);
    report["pairs"] = std::move(pairs);
    report["counters"] = std::move(counters);
    if (!trace_path.empty())
        writeChromeTrace(trace_path, report, ns_per_tick);
    return report;
}

} // namespace perfbench

// ---------------------------------------------------------------------
// The wrappers.  WRAP(symbol, layer, note, ret, (params), (args)) runs
// `note` (a boundary counter) and then the real call inside a span.
// The asm labels give them their link names, so the namespace only
// keeps the layer names ahead of memfwd's in lookup.
// ---------------------------------------------------------------------

namespace perfbench
{

#define WRAP(sym, layer, note, ret, params, args)                         \
    ret real_##sym params asm("__real_" #sym);                            \
    ret wrap_##sym params asm("__wrap_" #sym);                            \
    ret wrap_##sym params                                                 \
    {                                                                     \
        note;                                                             \
        Span span(layer);                                                 \
        return real_##sym args;                                           \
    }

#define NOTHING (void)0

// clang-format off
WRAP(_ZN6memfwd7Machine6accessERKNS_6AccessE, machine, ++access_calls,
     AccessResult, (Machine *m, const Access &a), (m, a))
WRAP(_ZN6memfwd7Machine3runERNS_11AccessBatchE, machine, RefsDelta d(m),
     void, (Machine *m, AccessBatch &b), (m, b))
WRAP(_ZN6memfwd7Machine3runERNS_9RefStreamE, machine, RefsDelta d(m),
     void, (Machine *m, RefStream &s), (m, s))
WRAP(_ZN6memfwd16ForwardingEngine7resolveEmNS_10AccessTypeEmjmj, fwd, NOTHING,
     WalkResult, (ForwardingEngine *e, Addr addr, AccessType type, Cycles start, SiteId site, Addr slot, std::uint32_t id),
     (e, addr, type, start, site, slot, id))
WRAP(_ZN6memfwd16ForwardingEngine17resolveFunctionalEmNS_10AccessTypeEjmj, fwd, NOTHING,
     WalkResult, (ForwardingEngine *e, Addr addr, AccessType type, SiteId site, Addr slot, std::uint32_t id),
     (e, addr, type, site, slot, id))
WRAP(_ZN6memfwd15MemoryHierarchy6accessEmNS_10AccessTypeEm, cache, NOTHING,
     HierarchyResult, (MemoryHierarchy *h, Addr addr, AccessType type, Cycles now),
     (h, addr, type, now))
WRAP(_ZN6memfwd8MshrFile8allocateEmm, cache_mshr, NOTHING,
     Cycles, (MshrFile *f, Addr line, Cycles now), (f, line, now))
WRAP(_ZN6memfwd6OooCpu8issueMemEmb, cpu, NOTHING,
     MemIssue, (OooCpu *c, Cycles ready, bool is_load), (c, ready, is_load))
WRAP(_ZN6memfwd6OooCpu10finishLoadERKNS_8MemIssueEmmbmmj, cpu, NOTHING,
     Cycles, (OooCpu *c, const MemIssue &mi, Cycles done, Cycles fwd_cycles, bool missed, Addr w0, Addr w1, unsigned n),
     (c, mi, done, fwd_cycles, missed, w0, w1, n))
WRAP(_ZN6memfwd6OooCpu11finishStoreERKNS_8MemIssueEmmbmmj, cpu, NOTHING,
     Cycles, (OooCpu *c, const MemIssue &mi, Cycles done, Cycles fwd_cycles, bool missed, Addr w0, Addr w1, unsigned n),
     (c, mi, done, fwd_cycles, missed, w0, w1, n))
WRAP(_ZN6memfwd6OooCpu17finishNonBlockingERKNS_8MemIssueE, cpu, NOTHING,
     void, (OooCpu *c, const MemIssue &mi), (c, mi))
WRAP(_ZN6memfwd6OooCpu3aluEm, cpu_alu, NOTHING,
     void, (OooCpu *c, std::uint64_t n), (c, n))
WRAP(_ZN6memfwd3Lsq9checkLoadEmmmmj, cpu_lsq, NOTHING,
     Cycles, (Lsq *q, std::uint64_t seq, Cycles issue, Addr w0, Addr w1, unsigned n),
     (q, seq, issue, w0, w1, n))
WRAP(_ZN6memfwd3Lsq11recordStoreEmmmjm, cpu_lsq, NOTHING,
     void, (Lsq *q, std::uint64_t seq, Addr w0, Addr w1, unsigned n, Cycles resolved),
     (q, seq, w0, w1, n, resolved))
WRAP(_ZN6memfwd3Rob8dispatchEv, cpu_rob, NOTHING,
     Cycles, (Rob *r), (r))
WRAP(_ZN6memfwd3Rob8graduateEmNS_8WaitKindE, cpu_rob, NOTHING,
     Cycles, (Rob *r, Cycles done, WaitKind kind), (r, done, kind))
WRAP(_ZN6memfwd3Rob8aluBurstEm, cpu_rob, NOTHING,
     void, (Rob *r, std::uint64_t n), (r, n))
WRAP(_ZN6memfwd12SimAllocator5allocEmNS_9PlacementEm, alloc, ++alloc_allocs,
     Addr, (SimAllocator *s, Addr bytes, Placement placement, Addr align),
     (s, bytes, placement, align))
WRAP(_ZN6memfwd12SimAllocator4freeEm, alloc, NOTHING,
     void, (SimAllocator *s, Addr addr), (s, addr))
WRAP(_ZN6memfwd8relocateERNS_7MachineEmmj, relocate, relocate_words += n,
     void, (Machine &m, Addr src, Addr tgt, unsigned n), (m, src, tgt, n))
// clang-format on

} // namespace perfbench
