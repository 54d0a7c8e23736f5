#include "core/traps.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memfwd
{

std::uint64_t
TrapRegistry::install(TrapHandler handler)
{
    const std::uint64_t token = next_token_++;
    handlers_.emplace(token, std::move(handler));
    return token;
}

void
TrapRegistry::remove(std::uint64_t token)
{
    handlers_.erase(token);
}

bool
TrapRegistry::deliver(const TrapInfo &info)
{
    ++delivered_;
    bool fixed = false;
    for (auto &[token, handler] : handlers_) {
        (void)token;
        if (handler(info) == TrapAction::pointer_fixed)
            fixed = true;
    }
    if (fixed)
        ++pointers_fixed_;
    return fixed;
}

ForwardingProfiler::ForwardingProfiler(TrapRegistry &registry)
    : registry_(registry)
{
    token_ = registry_.install([this](const TrapInfo &info) {
        auto &s = sites_[info.site];
        ++s.count;
        s.hops += info.hops;
        return TrapAction::resume;
    });
}

ForwardingProfiler::~ForwardingProfiler()
{
    registry_.remove(token_);
}

std::uint64_t
ForwardingProfiler::count(SiteId site) const
{
    auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.count;
}

std::uint64_t
ForwardingProfiler::hops(SiteId site) const
{
    auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.hops;
}

std::vector<std::pair<SiteId, std::uint64_t>>
ForwardingProfiler::hottest() const
{
    std::vector<std::pair<SiteId, std::uint64_t>> out;
    out.reserve(sites_.size());
    for (const auto &[site, stats] : sites_)
        out.emplace_back(site, stats.count);
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    return out;
}

} // namespace memfwd
