#include "cpu/lsq.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memfwd
{

namespace
{

/** Word-range overlap test, without branches: its halves are coin
 *  flips for unrelated addresses. */
bool
overlaps(Addr a, unsigned a_words, Addr b, unsigned b_words)
{
    const Addr a_end = a + static_cast<Addr>(a_words) * wordBytes;
    const Addr b_end = b + static_cast<Addr>(b_words) * wordBytes;
    return (a < b_end) & (b < a_end);
}

} // namespace

void
Lsq::prune(std::uint64_t seq)
{
    // Only stores within the instruction window can interact with a
    // load; older records are dead.
    const auto dead = [&](std::uint64_t s) {
        return s + params_.window < seq;
    };
    while (!stores_.empty() && dead(stores_.front().seq))
        stores_.pop_front();
    while (!moved_.empty() && dead(moved_.front().seq))
        moved_.pop_front();
    while (!latest_.empty() && dead(latest_.front().seq))
        latest_.pop_front();
}

Cycles
Lsq::latestResolved(std::uint64_t seq) const
{
    if (stores_.empty())
        return 0;
    if (stores_.back().seq < seq) {
        // Every recorded store is older than the load: the first entry
        // of the sliding maximum still in the window is the latest.
        for (const Resolve &r : latest_) {
            if (r.seq + params_.window >= seq)
                return r.resolved;
        }
        return 0;
    }
    // A load older than a recorded store (the CPU never asks this).
    Cycles latest = 0;
    for (const StoreRec &s : stores_) {
        if (s.seq < seq && s.seq + params_.window >= seq)
            latest = std::max(latest, s.resolved);
    }
    return latest;
}

void
Lsq::recordStore(std::uint64_t seq, Addr initial_word, Addr final_word,
                 unsigned words, Cycles resolved)
{
    memfwd_assert(stores_.empty() || stores_.back().seq < seq,
                  "store %llu recorded after store %llu",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(stores_.back().seq));
    prune(seq);
    const StoreRec rec{seq, initial_word, final_word, words, resolved};
    stores_.push_back(rec);
    if (initial_word != final_word)
        moved_.push_back(rec);
    while (!latest_.empty() && latest_.back().resolved <= resolved)
        latest_.pop_back();
    latest_.push_back({seq, resolved});
}

Cycles
Lsq::checkLoad(std::uint64_t seq, Cycles issue, Addr initial_word,
               Addr final_word, unsigned words)
{
    if (!params_.dep_speculation)
        return 0;

    prune(seq);
    if (latestResolved(seq) <= issue)
        return 0; // every older store resolved; no speculation involved
    ++speculations_;
    // The speculation "final == initial" fails only when the initial
    // words are disjoint but the final words overlap, which cannot
    // happen when neither the load's words nor the store's moved.
    const Fifo<StoreRec> &suspects =
        initial_word == final_word ? moved_ : stores_;
    bool violated = false;
    for (const StoreRec &s : suspects) {
        if (s.seq >= seq)
            break;
        violated |= (s.resolved > issue) &
                    !overlaps(initial_word, words, s.initial_word, s.words) &
                    overlaps(final_word, words, s.final_word, s.words);
    }
    if (!violated)
        return 0;
    ++violations_;
    return params_.misspec_penalty;
}

} // namespace memfwd
