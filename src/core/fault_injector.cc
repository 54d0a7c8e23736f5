#include "core/fault_injector.hh"

#include <stdexcept>
#include <unordered_set>

#include "common/logging.hh"
#include "core/chain_walk.hh"
#include "mem/tagged_memory.hh"

namespace memfwd
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::bit_flip:
        return "bitflip";
      case FaultKind::truncate:
        return "truncate";
      case FaultKind::cycle:
        return "cycle";
      case FaultKind::alloc_fail:
        return "allocfail";
      case FaultKind::use_after_free:
        return "uaf";
      case FaultKind::oob:
        return "oob";
    }
    return "?";
}

namespace
{

/** Marker kinds select buggy operations; they never corrupt memory. */
bool
isMarkerKind(FaultKind kind)
{
    return kind == FaultKind::use_after_free || kind == FaultKind::oob;
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::resolve:
        return "resolve";
      case FaultSite::relocate:
        return "relocate";
      case FaultSite::alloc:
        return "alloc";
      case FaultSite::free:
        return "free";
    }
    return "?";
}

FaultInjector::FaultInjector(std::uint64_t seed) : rng_(seed)
{
}

void
FaultInjector::arm(const FaultSpec &spec)
{
    if (spec.kind == FaultKind::alloc_fail || isMarkerKind(spec.kind)) {
        // alloc_fail makes sense wherever an operation can be failed,
        // and marker kinds fire anywhere an operation can be selected.
    } else if (spec.site == FaultSite::alloc ||
               spec.site == FaultSite::free) {
        throw std::invalid_argument(
            "chain faults cannot be armed at the " +
            std::string(faultSiteName(spec.site)) + " site");
    }
    armed_.push_back({spec, 0, 0});
}

std::vector<FaultSpec>
FaultInjector::parse(const std::string &spec)
{
    std::vector<FaultSpec> out;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(';', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string fault = spec.substr(pos, end - pos);
        pos = end + 1;
        if (fault.empty())
            continue;

        const std::size_t at = fault.find('@');
        if (at == std::string::npos) {
            throw std::invalid_argument("fault spec '" + fault +
                                        "' is missing '@site'");
        }
        const std::size_t colon = fault.find(':', at);
        const std::string kind_s = fault.substr(0, at);
        const std::string site_s =
            fault.substr(at + 1, (colon == std::string::npos
                                      ? fault.size()
                                      : colon) - at - 1);

        FaultSpec fs;
        if (kind_s == "bitflip")
            fs.kind = FaultKind::bit_flip;
        else if (kind_s == "truncate")
            fs.kind = FaultKind::truncate;
        else if (kind_s == "cycle")
            fs.kind = FaultKind::cycle;
        else if (kind_s == "allocfail")
            fs.kind = FaultKind::alloc_fail;
        else if (kind_s == "uaf")
            fs.kind = FaultKind::use_after_free;
        else if (kind_s == "oob")
            fs.kind = FaultKind::oob;
        else
            throw std::invalid_argument("unknown fault kind '" + kind_s +
                                        "'");

        if (site_s == "resolve")
            fs.site = FaultSite::resolve;
        else if (site_s == "relocate")
            fs.site = FaultSite::relocate;
        else if (site_s == "alloc")
            fs.site = FaultSite::alloc;
        else if (site_s == "free")
            fs.site = FaultSite::free;
        else
            throw std::invalid_argument("unknown fault site '" + site_s +
                                        "'");

        std::size_t p = colon == std::string::npos ? fault.size()
                                                   : colon + 1;
        while (p < fault.size()) {
            std::size_t pe = fault.find(',', p);
            if (pe == std::string::npos)
                pe = fault.size();
            const std::string param = fault.substr(p, pe - p);
            p = pe + 1;
            const std::size_t eq = param.find('=');
            if (eq == std::string::npos) {
                throw std::invalid_argument("fault param '" + param +
                                            "' is not key=value");
            }
            const std::string key = param.substr(0, eq);
            const std::uint64_t value =
                std::stoull(param.substr(eq + 1), nullptr, 0);
            if (key == "nth") {
                if (value == 0) {
                    throw std::invalid_argument(
                        "fault param nth must be >= 1");
                }
                fs.nth = value;
            } else if (key == "count") {
                fs.count = value;
            } else if (key == "hop") {
                fs.hop = static_cast<unsigned>(value);
            } else {
                throw std::invalid_argument("unknown fault param '" + key +
                                            "'");
            }
        }
        out.push_back(fs);
    }
    return out;
}

void
FaultInjector::armSpec(const std::string &spec)
{
    for (const FaultSpec &fs : parse(spec))
        arm(fs);
}

bool
FaultInjector::armedAt(FaultSite site) const
{
    for (const Armed &a : armed_) {
        if (a.spec.site != site)
            continue;
        if (a.spec.count == 0 || a.fires < a.spec.count)
            return true;
    }
    return false;
}

bool
FaultInjector::due(Armed &a)
{
    if (a.spec.count != 0 && a.fires >= a.spec.count)
        return false;
    ++a.events;
    if (a.events < a.spec.nth)
        return false;
    ++a.fires;
    return true;
}

bool
FaultInjector::shouldFail(FaultSite site)
{
    bool fail = false;
    for (Armed &a : armed_) {
        if (a.spec.site != site || a.spec.kind != FaultKind::alloc_fail)
            continue;
        if (due(a)) {
            record(FaultKind::alloc_fail, site, 0, a.events, 0, false);
            fail = true;
        }
    }
    return fail;
}

bool
FaultInjector::triggers(FaultSite site, FaultKind kind)
{
    memfwd_assert(isMarkerKind(kind),
                  "triggers() is only for marker fault kinds");
    bool fire = false;
    for (Armed &a : armed_) {
        if (a.spec.site != site || a.spec.kind != kind)
            continue;
        if (due(a)) {
            record(kind, site, 0, a.events, 0, false);
            fire = true;
        }
    }
    return fire;
}

void
FaultInjector::corruptChain(TaggedMemory &mem, Addr chain_start,
                            FaultSite site)
{
    for (Armed &a : armed_) {
        if (a.spec.site != site || a.spec.kind == FaultKind::alloc_fail ||
            isMarkerKind(a.spec.kind))
            continue;
        if (!due(a))
            continue;
        switch (a.spec.kind) {
          case FaultKind::bit_flip:
            injectBitFlip(mem, chain_start, site);
            break;
          case FaultKind::truncate:
            injectTruncation(mem, chain_start, a.spec.hop, site);
            break;
          case FaultKind::cycle:
            injectCycle(mem, chain_start, site);
            break;
          case FaultKind::alloc_fail:
          case FaultKind::use_after_free:
          case FaultKind::oob:
            break;
        }
    }
}

std::vector<Addr>
FaultInjector::chainMembers(const TaggedMemory &mem, Addr start)
{
    std::vector<Addr> members;
    std::unordered_set<Addr> seen;
    bool repeated = false;
    auto hop = [&](Addr word) {
        repeated = repeated || !seen.insert(word).second;
        if (!repeated)
            members.push_back(word);
    };
    ChainWalk w = walkChain(mem, wordAlign(start), {}, hop);
    // The accurate check ends a cyclic walk after hop_limit + 1 hops,
    // which may be short of the loop's first repeat: walk on from there.
    while (w.end == ChainEnd::cycle && !repeated)
        w = walkChain(mem, w.word, {}, hop);
    if (w.end == ChainEnd::tail)
        members.push_back(w.word);
    return members;
}

void
FaultInjector::record(FaultKind kind, FaultSite site, Addr addr,
                      std::uint64_t event, Word old_payload, bool old_fbit)
{
    log_.push_back({kind, site, addr, event, old_payload, old_fbit});
    ++fired_;
}

Addr
FaultInjector::injectBitFlip(TaggedMemory &mem, Addr chain_start,
                             FaultSite site)
{
    const std::vector<Addr> members = chainMembers(mem, chain_start);
    // The terminal word holds data; setting its fbit forges a
    // forwarding word whose "target" is whatever the data happens to
    // be — the corrupted-forwarding-word failure mode.
    const Addr victim = members.back();
    record(FaultKind::bit_flip, site, victim, 0,
           mem.rawReadWord(victim), mem.fbit(victim));
    mem.setFBit(victim, !mem.fbit(victim));
    return victim;
}

Addr
FaultInjector::injectTruncation(TaggedMemory &mem, Addr chain_start,
                                unsigned hop, FaultSite site)
{
    const std::vector<Addr> members = chainMembers(mem, chain_start);
    // Forwarding members are all but the terminal; clearing one's fbit
    // cuts the chain there (its payload silently becomes "data").
    const std::size_t forwarding =
        members.size() > 1 ? members.size() - 1 : members.size();
    std::size_t idx;
    if (hop >= 1 && hop <= forwarding)
        idx = hop - 1;
    else
        idx = static_cast<std::size_t>(rng_.below(forwarding));
    const Addr victim = members[idx];
    record(FaultKind::truncate, site, victim, 0,
           mem.rawReadWord(victim), mem.fbit(victim));
    mem.setFBit(victim, false);
    return victim;
}

Addr
FaultInjector::injectCycle(TaggedMemory &mem, Addr chain_start,
                           FaultSite site)
{
    const std::vector<Addr> members = chainMembers(mem, chain_start);
    // Redirect the last *forwarding* member back at the chain start.
    // A single-member chain (unforwarded word) self-loops.
    const Addr victim =
        members.size() > 1 ? members[members.size() - 2] : members[0];
    record(FaultKind::cycle, site, victim, 0,
           mem.rawReadWord(victim), mem.fbit(victim));
    mem.unforwardedWrite(victim, wordAlign(chain_start), true);
    return victim;
}

void
FaultInjector::repair(TaggedMemory &mem)
{
    for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
        if (it->kind == FaultKind::alloc_fail || isMarkerKind(it->kind))
            continue;
        mem.unforwardedWrite(it->addr, it->old_payload, it->old_fbit);
    }
    log_.clear();
}

} // namespace memfwd
