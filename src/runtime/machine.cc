#include "runtime/machine.hh"

#include <algorithm>

#include "analysis/gate.hh"
#include "common/logging.hh"
#include "core/fault_injector.hh"
#include "runtime/quarantine_allocator.hh"
#include "runtime/ref_stream.hh"

namespace memfwd
{

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg),
      tlb_(cfg.tlb.page_bytes, cfg.tlb.entries, cfg.tlb.miss_penalty)
{
    hierarchy_ = std::make_unique<MemoryHierarchy>(cfg_.hierarchy);
    cpu_ = std::make_unique<OooCpu>(cfg_.cpu);
    fwd_ = std::make_unique<ForwardingEngine>(mem_, *hierarchy_,
                                              cfg_.forwarding);
    fwd_->setTracer(&tracer_);
    if (cfg_.metadata_plane)
        fwd_->setMetadataPlane(&mem_.enableMetadataPlane());
    prefetcher_ = std::make_unique<Prefetcher>(*hierarchy_);

    for (const std::string &r : cfg_.fast_forward_regions)
        ff_all_ = ff_all_ || r == "all";
    ff_active_ = ff_all_;
}

void
Machine::enterRegion(std::string_view name)
{
    if (regionFastForwarded(name))
        ++ff_depth_;
    ff_active_ = ff_all_ || ff_depth_ > 0;
}

void
Machine::exitRegion(std::string_view name)
{
    if (regionFastForwarded(name)) {
        memfwd_assert(ff_depth_ > 0, "exitRegion() without enterRegion()");
        --ff_depth_;
    }
    ff_active_ = ff_all_ || ff_depth_ > 0;
}

Machine::~Machine() = default;

void
Machine::setFaultInjector(FaultInjector *faults)
{
    faults_ = faults;
    fwd_->setFaultInjector(faults);
}

void
Machine::setAnalysisGate(AnalysisGate *gate)
{
    gate_ = gate;
    if (gate_)
        gate_->setTrace(&tracer_, [this] { return cycles(); });
}

Cycles
Machine::translate(Addr addr, Cycles now)
{
    if (cfg_.tlb.enabled && tlb_.access(addr))
        return now + cfg_.tlb.miss_penalty;
    return now;
}

void
Machine::traceRef(const Access &a, AccessType type, Cycles issue,
                  const WalkResult &w, bool l1_missed)
{
    tracer_.emit({obs::EventKind::reference, type, issue, a.addr,
                  w.final_addr, w.hops, a.size});
    if (w.hops > 0)
        tracer_.emit({obs::EventKind::chain_walk, type, issue, a.addr,
                      w.final_addr, w.hops, a.size});
    if (l1_missed)
        tracer_.emit({obs::EventKind::cache_miss, type, issue, a.addr,
                      w.final_addr, 0, a.size});
}

template <Machine::Exec E>
Cycles
Machine::rawAccess(const Access &a, bool is_load)
{
    if constexpr (E == Exec::functional) {
        return 0;
    } else {
        // The ISA extensions never follow forwarding; the forwarding bit
        // cannot be tested until the word is in the primary cache
        // (Section 3.2), so each is a timed access of the word itself.
        const Addr word = wordAlign(a.addr);
        const MemIssue mi = cpu_->issueMem(a.addr_ready, is_load);
        const HierarchyResult r = hierarchy_->access(
            word, is_load ? AccessType::load : AccessType::store, mi.issue);
        const bool missed = r.l1 != MissKind::hit;
        return is_load
                   ? cpu_->finishLoad(mi, r.ready, 0, missed, word, word, 1)
                   : cpu_->finishStore(mi, r.ready, 0, missed, word, word, 1);
    }
}

template <Machine::Exec E>
AccessResult
Machine::exec(const Access &a)
{
    ++refs_;
    switch (a.kind) {
      case RefKind::load:
      case RefKind::store: {
        const bool is_load = a.kind == RefKind::load;
        const AccessType type = is_load ? AccessType::load : AccessType::store;
        const std::uint64_t traps_before = fwd_->traps().delivered();
        [[maybe_unused]] MemIssue mi{};
        WalkResult w{};
        if constexpr (E == Exec::functional) {
            w = fwd_->resolveFunctional(a.addr, type, a.site,
                                        a.pointer_slot, a.object_id);
        } else {
            mi = cpu_->issueMem(a.addr_ready, is_load);
            w = fwd_->resolve(a.addr, type, mi.issue, a.site,
                              a.pointer_slot, a.object_id);
        }

        std::uint64_t value = a.value;
        if (is_load) {
            value = mem_.readBytes(w.final_addr, a.size);
            ++loads_;
            loads_forwarded_ += w.forwarded ? 1 : 0;
        } else {
            mem_.writeBytes(w.final_addr, a.size, a.value);
            ++stores_;
            stores_forwarded_ += w.forwarded ? 1 : 0;
        }

        Cycles done = 0;
        if constexpr (E == Exec::timed) {
            const HierarchyResult r = hierarchy_->access(
                w.final_addr, type, translate(w.final_addr, w.ready));
            if (tracer_.active()) [[unlikely]]
                traceRef(a, type, mi.issue, w, r.l1 != MissKind::hit);
            const bool missed = (r.l1 != MissKind::hit) || w.hop_missed_l1;
            const Addr w0 = wordAlign(a.addr);
            const Addr w1 = wordAlign(w.final_addr);
            done = is_load ? cpu_->finishLoad(mi, r.ready, w.forward_cycles,
                                              missed, w0, w1, 1)
                           : cpu_->finishStore(mi, r.ready,
                                               w.forward_cycles, missed, w0,
                                               w1, 1);
        }
        return {value, done, w.hops, w.final_addr,
                fwd_->traps().delivered() != traps_before};
      }

      case RefKind::read_fbit: {
        const Cycles done = rawAccess<E>(a, true);
        return {mem_.fbit(a.addr) ? 1u : 0u, done, 0, a.addr, false};
      }

      case RefKind::unforwarded_read: {
        if (gate_ && gate_->enforcing())
            gate_->checkUnforwardedRead(a.addr, mem_);
        const Cycles done = rawAccess<E>(a, true);
        return {mem_.rawReadWord(a.addr), done, 0, a.addr, false};
      }

      case RefKind::unforwarded_write: {
        if (gate_ && gate_->enforcing())
            gate_->checkUnforwardedWrite(a.addr, a.fbit, mem_);
        const Cycles done = rawAccess<E>(a, false);
        mem_.unforwardedWrite(a.addr, a.value, a.fbit);
        return {a.value, done, 0, a.addr, false};
      }

      case RefKind::prefetch:
        // Prefetches are non-binding: they do not follow forwarding (a
        // prefetch of a forwarded word harmlessly pulls in the forwarding
        // word itself), never block graduation, and are timing-only — a
        // no-op when timing is skipped.
        if constexpr (E == Exec::timed) {
            const MemIssue mi = cpu_->issueMem(a.addr_ready, true);
            prefetcher_->issue(a.addr, static_cast<unsigned>(a.value),
                               mi.issue);
            cpu_->finishNonBlocking(mi);
        }
        return {0, 0, 0, a.addr, false};

      case RefKind::compute:
        if constexpr (E == Exec::timed)
            cpu_->alu(a.value);
        return {0, 0, 0, 0, false};
    }
    memfwd_panic("bad RefKind %u", static_cast<unsigned>(a.kind));
}

AccessResult
Machine::accessFast(const Access &a)
{
    const AccessResult r = exec<Exec::functional>(a);
    cpu_->alu(a.kind == RefKind::compute ? a.value : 1);
    return r;
}

AccessResult
Machine::access(const Access &a)
{
    if (ff_active_)
        return accessFast(a);
    return exec<Exec::timed>(a);
}

void
Machine::run(AccessBatch &batch)
{
    for (const Access &a : batch)
        access(a);
}

void
Machine::run(RefStream &stream)
{
    AccessBatch batch;
    for (;;) {
        batch.clear();
        if (!stream.fill(batch))
            break;
        run(batch);
    }
}

Addr
Machine::untimedFinal(Addr addr) const
{
    // The walk access() would take, minus timing and statistics: a
    // pinned chain serves its pin, and an unresolvable one throws.
    const Addr word = wordAlign(addr);
    if (!mem_.fbit(word))
        return addr;
    Addr tail = fwd_->quarantinePin(word);
    if (tail == 0)
        tail = chainTail(mem_, word, fwd_->limits(), [](Addr) {});
    return tail + wordOffset(addr);
}

std::uint64_t
Machine::peek(Addr addr, unsigned size) const
{
    return mem_.readBytes(untimedFinal(addr), size);
}

void
Machine::poke(Addr addr, unsigned size, std::uint64_t value)
{
    mem_.writeBytes(untimedFinal(addr), size, value);
}

obs::MetricsNode
Machine::metrics() const
{
    obs::MetricsNode root;

    // The CPU and hierarchy fill the machine root directly so the
    // legacy dotted names ("cycles", "slots.busy", "l1d.load_hits", ...)
    // stay the paths counterAt() reads.
    cpu_->fillMetrics(root);
    hierarchy_->fillMetrics(root);
    fwd_->fillMetrics(root.child("fwd"));
    prefetcher_->fillMetrics(root.child("prefetch"));

    auto &refs = root.child("refs");
    refs.counter("executed", refs_);
    refs.counter("loads", loads_);
    refs.counter("stores", stores_);
    refs.counter("loads_forwarded", loads_forwarded_);
    refs.counter("stores_forwarded", stores_forwarded_);
    if (loads_)
        refs.gauge("load_forwarded_fraction",
                   double(loads_forwarded_) / double(loads_));
    if (stores_)
        refs.gauge("store_forwarded_fraction",
                   double(stores_forwarded_) / double(stores_));

    if (cfg_.tlb.enabled) {
        const std::uint64_t lookups = tlb_.accesses();
        const std::uint64_t walks = tlb_.faults();
        auto &tlb = root.child("tlb");
        tlb.counter("hits", lookups - walks);
        tlb.counter("misses", walks);
        tlb.gauge("miss_rate",
                  lookups ? double(walks) / double(lookups) : 0.0);
    }

    if (gate_)
        gate_->fillMetrics(root.child("analysis"));

    if (backend_kind_) {
        auto &b = root.child("backend");
        b.gauge("kind", static_cast<double>(*backend_kind_));
        const LayoutBackendStats &bs = backend_stats_;
        b.counter("allocs", bs.allocs);
        b.counter("frees", bs.frees);
        b.counter("relocations", bs.relocations);
        b.counter("refusals", bs.refusals);
        b.counter("relocated_words", bs.relocated_words);
        b.counter("resolves", bs.resolves);
        b.counter("handle_derefs", bs.handle_derefs);
        b.counter("compactions", bs.compactions);
        if (bs.resolves)
            b.gauge("derefs_per_resolve",
                    double(bs.handle_derefs) / double(bs.resolves));
    }

    if (cfg_.metadata_plane || quarantine_) {
        // Temporal-safety family: violation classification comes from
        // the engine's check; arena accounting from the allocator (all
        // zero when only the plane is enabled).
        auto &q = root.child("quarantine");
        q.counter("violations_uaf", fwd_->stats().temporal_uaf);
        q.counter("violations_oob", fwd_->stats().temporal_oob);
        if (quarantine_)
            quarantine_->fillMetrics(q);
        else {
            q.counter("live_bytes", 0);
            q.counter("quarantined_frees", 0);
            q.counter("reclaims", 0);
            q.counter("degraded_frees", 0);
        }
    }

    return root;
}

} // namespace memfwd
