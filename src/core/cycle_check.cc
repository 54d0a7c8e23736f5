#include "core/cycle_check.hh"

#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "mem/tagged_memory.hh"

namespace memfwd
{

ForwardingCycleError::ForwardingCycleError(Addr start, unsigned length,
                                           SiteId site, const char *policy)
    : std::runtime_error(strfmt(
          "forwarding cycle detected: start=%#llx length=%u site=%u "
          "policy=%s",
          static_cast<unsigned long long>(start), length, site, policy)),
      start_(start), length_(length), site_(site), policy_(policy)
{
}

ForwardingIntegrityError::ForwardingIntegrityError(Addr word, Word payload,
                                                   SiteId site)
    : std::runtime_error(strfmt(
          "corrupt forwarding word: addr=%#llx payload=%#llx site=%u",
          static_cast<unsigned long long>(word),
          static_cast<unsigned long long>(payload), site)),
      word_(word), payload_(payload), site_(site)
{
}

CycleCheckResult
accurateCycleCheck(const TaggedMemory &mem, Addr addr)
{
    std::unordered_set<Addr> visited;
    std::vector<Addr> order;
    Addr word = wordAlign(addr);
    unsigned length = 0;
    while (mem.fbit(word)) {
        if (!visited.insert(word).second) {
            // `word` repeats: it is the loop entry.  The pin point is
            // the address visited immediately before it the first time
            // around (the start itself if the loop begins there).
            Addr pre = order.front();
            for (std::size_t i = 0; i < order.size(); ++i) {
                if (order[i] == word) {
                    pre = i == 0 ? word : order[i - 1];
                    break;
                }
            }
            return {true, length, word, pre};
        }
        order.push_back(word);
        const Word payload = mem.rawReadWord(word);
        if (!isWordAligned(payload))
            break; // the chain ends in corruption, which walkChain reports
        word = payload;
        ++length;
    }
    return {false, length, 0, 0};
}

} // namespace memfwd
