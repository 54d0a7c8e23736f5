/**
 * @file
 * Refinement oracle for the load/store queue.
 *
 * Namespace `parent` holds a verbatim copy of an earlier `Lsq`, which
 * walked every in-window store on every load; the current one decides
 * speculation from a sliding maximum of resolve cycles and walks only
 * the stores that can violate.  Both are driven with the same random
 * streams of recordStore, checkLoad and loadIssueCycle calls: store
 * seqs rising, loads now and then older than the youngest store,
 * forwarded and unforwarded words, 1-4 word ranges, windows 1-128,
 * speculation on and off, and issue cycles that sometimes step back.
 * Every return value and both counters must agree after every call.
 * Seeds go through testSeed().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>

#include "common/random.hh"
#include "cpu/lsq.hh"

namespace memfwd
{
namespace parent
{

/** Tracks in-flight stores for dependence speculation. */
class Lsq
{
  public:
    explicit Lsq(const OooParams &params) : params_(params) {}

    /**
     * Record a completed store.  @p seq is its dynamic instruction
     * number, the word ranges are [initial, initial+words) before
     * forwarding and [final, final+words) after.  @p resolved is the
     * cycle its final address became known (its completion).
     */
    void recordStore(std::uint64_t seq, Addr initial_word, Addr final_word,
                     unsigned words, Cycles resolved);

    /**
     * Earliest cycle a load dispatched as instruction @p seq at cycle
     * @p issue may actually issue.  With speculation on, that is just
     * @p issue; with speculation off, the load must additionally wait
     * for every older in-window store to resolve its final address.
     */
    Cycles loadIssueCycle(std::uint64_t seq, Cycles issue) const;

    /**
     * Check a finishing load against older unresolved stores.  Returns
     * the penalty (0 or misspec_penalty) to add to the load's
     * completion.  Counts speculation events and violations.
     */
    Cycles checkLoad(std::uint64_t seq, Cycles issue, Addr initial_word,
                     Addr final_word, unsigned words);

    /** Loads that issued past at least one unresolved older store. */
    std::uint64_t speculations() const { return speculations_; }

    /** Speculations that violated a true dependence via forwarding. */
    std::uint64_t violations() const { return violations_; }

  private:
    struct StoreRec
    {
        std::uint64_t seq;
        Addr initial_word;
        Addr final_word;
        unsigned words;
        Cycles resolved;
    };

    void prune(std::uint64_t seq);

    OooParams params_;
    std::deque<StoreRec> stores_;
    std::uint64_t speculations_ = 0;
    std::uint64_t violations_ = 0;
};

namespace
{

/** Word-range overlap test. */
bool
overlaps(Addr a, unsigned a_words, Addr b, unsigned b_words)
{
    const Addr a_end = a + static_cast<Addr>(a_words) * wordBytes;
    const Addr b_end = b + static_cast<Addr>(b_words) * wordBytes;
    return a < b_end && b < a_end;
}

} // namespace

void
Lsq::prune(std::uint64_t seq)
{
    // Only stores within the instruction window can interact with a
    // load; older records are dead.
    while (!stores_.empty() &&
           stores_.front().seq + params_.window < seq) {
        stores_.pop_front();
    }
}

void
Lsq::recordStore(std::uint64_t seq, Addr initial_word, Addr final_word,
                 unsigned words, Cycles resolved)
{
    prune(seq);
    stores_.push_back({seq, initial_word, final_word, words, resolved});
}

Cycles
Lsq::loadIssueCycle(std::uint64_t seq, Cycles issue) const
{
    if (params_.dep_speculation)
        return issue;
    // Conservative: wait for every older in-window store to resolve.
    Cycles earliest = issue;
    for (const auto &s : stores_) {
        if (s.seq < seq && s.seq + params_.window >= seq)
            earliest = std::max(earliest, s.resolved);
    }
    return earliest;
}

Cycles
Lsq::checkLoad(std::uint64_t seq, Cycles issue, Addr initial_word,
               Addr final_word, unsigned words)
{
    if (!params_.dep_speculation)
        return 0;

    prune(seq);
    bool speculated = false;
    bool violated = false;
    for (const auto &s : stores_) {
        if (s.seq >= seq)
            continue;
        if (s.resolved <= issue)
            continue; // store already resolved; no speculation involved
        speculated = true;
        // The speculation "final == initial" fails only when the
        // initial addresses were disjoint but the final words overlap.
        if (!overlaps(initial_word, words, s.initial_word, s.words) &&
            overlaps(final_word, words, s.final_word, s.words)) {
            violated = true;
        }
    }
    if (speculated)
        ++speculations_;
    if (violated) {
        ++violations_;
        return params_.misspec_penalty;
    }
    return 0;
}

} // namespace parent

namespace
{

/** How often the streams reached the outcomes worth comparing. */
struct Coverage
{
    std::uint64_t speculations = 0;
    std::uint64_t violations = 0;
    std::uint64_t waits = 0; ///< loadIssueCycle later than the issue
    std::uint64_t older_loads = 0;
};

void
runLsqTrial(std::uint64_t seed, Coverage &cov)
{
    Rng rng(seed);
    OooParams params;
    params.window = 1 + static_cast<unsigned>(rng.below(128));
    params.dep_speculation = rng.chance(0.75);
    params.misspec_penalty = 1 + rng.below(20);
    // Few words, so ranges collide; some streams forward a lot.
    const unsigned pool = 4 + static_cast<unsigned>(rng.below(60));
    const double moved = rng.chance(0.5) ? 0.1 : 0.6;
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << ": window " << params.window
                 << ", speculation " << params.dep_speculation << ", "
                 << pool << " words, moved " << moved);

    parent::Lsq want(params);
    Lsq got(params);
    const auto word = [&] { return 0x1000 + rng.below(pool) * wordBytes; };
    std::uint64_t seq = 0;
    Cycles now = 0;
    for (unsigned step = 0; step < 2000; ++step) {
        seq += 1 + rng.below(4);
        if (rng.chance(0.1))
            now -= std::min<Cycles>(now, rng.below(100));
        else
            now += rng.below(6);
        const Addr initial = word();
        const Addr final = rng.chance(moved) ? word() : initial;
        const unsigned words = 1 + static_cast<unsigned>(rng.below(4));

        const unsigned op = static_cast<unsigned>(rng.below(10));
        if (op < 4) {
            const Cycles resolved = now + rng.below(60);
            want.recordStore(seq, initial, final, words, resolved);
            got.recordStore(seq, initial, final, words, resolved);
            continue;
        }
        // A load older than stores already recorded, now and then.
        std::uint64_t load_seq = seq;
        if (rng.chance(0.05)) {
            load_seq -= std::min<std::uint64_t>(seq, 1 + rng.below(8));
            ++cov.older_loads;
        }
        if (op < 7) {
            const Cycles w = want.loadIssueCycle(load_seq, now);
            ASSERT_EQ(w, got.loadIssueCycle(load_seq, now))
                << "step " << step;
            cov.waits += w > now;
        } else {
            ASSERT_EQ(want.checkLoad(load_seq, now, initial, final, words),
                      got.checkLoad(load_seq, now, initial, final, words))
                << "step " << step;
        }
        ASSERT_EQ(want.speculations(), got.speculations()) << "step " << step;
        ASSERT_EQ(want.violations(), got.violations()) << "step " << step;
    }
    cov.speculations += got.speculations();
    cov.violations += got.violations();
}

TEST(LsqOracle, MatchesParentModel)
{
    Coverage cov;
    for (unsigned trial = 0; trial < 300; ++trial) {
        runLsqTrial(testSeed(0x15a0000ULL + trial), cov);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(cov.speculations, 0u);
    EXPECT_GT(cov.violations, 0u);
    EXPECT_GT(cov.waits, 0u);
    EXPECT_GT(cov.older_loads, 0u);
}

} // namespace
} // namespace memfwd
