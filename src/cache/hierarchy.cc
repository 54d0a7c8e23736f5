#include "cache/hierarchy.hh"

#include "common/logging.hh"

namespace memfwd
{

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &cfg)
    : cfg_(cfg), mem_(cfg_.memory), l2_(cfg_.l2, mem_),
      l1d_(cfg_.l1d, mem_, &l2_)
{
    memfwd_assert(cfg_.l1d.line_bytes == cfg_.l2.line_bytes,
                  "mixed line sizes between levels are not supported");
}

HierarchyResult
MemoryHierarchy::access(Addr addr, AccessType type, Cycles now)
{
    return l1d_.access(addr, type, now);
}

void
MemoryHierarchy::fillMetrics(obs::MetricsNode &into) const
{
    l1d_.fillMetrics(into.child("l1d"));
    l2_.fillMetrics(into.child("l2"));
    auto &traffic = into.child("traffic");
    traffic.counter("l1_l2_bytes", l1L2Bytes());
    traffic.counter("l2_mem_bytes", l2MemBytes());
}

void
MemoryHierarchy::clearStats()
{
    l1d_.clearStats();
    l2_.clearStats();
    mem_.clearStats();
}

void
MemoryHierarchy::reset()
{
    l1d_.flush();
    l2_.flush();
    clearStats();
}

} // namespace memfwd
