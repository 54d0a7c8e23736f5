/** @file Unit tests for the deterministic PRNG. */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/random.hh"

namespace memfwd
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, BelowMatchesGoldenStream)
{
    // Scattered placement, the workloads and the allocator's reference
    // model all draw through below(), so a changed stream would shift
    // the model and the allocator together and go unseen there.  These
    // outputs pin it, at bounds where rejection never fires in practice
    // and at 2^64 - 1, where it fires only for a raw draw of 0.
    Rng r(42);
    const std::pair<std::uint64_t, std::vector<std::uint64_t>> golden[] = {
        {10, {2, 2, 9, 3, 6, 4}},
        {1000, {754, 407, 958, 85, 649, 893}},
        {0x8000000000000001ull,
         {5552918176482117301ull, 3895028994966849484ull,
          6968575404259309561ull, 2153870293806673812ull,
          6482002941014721747ull, 3828445903589677686ull}},
        {0xffffffffffffffffull,
         {13057145599690755898ull, 1712965807924549849ull,
          3302387961498557995ull, 8046402334248741309ull,
          11105210739311342615ull, 5792072832420444912ull}},
        {3, {0, 1, 2, 2, 1, 0}},
    };
    for (const auto &[bound, values] : golden) {
        for (const std::uint64_t v : values)
            EXPECT_EQ(r.below(bound), v) << "bound " << bound;
    }
}

TEST(Rng, BelowRejectsTheBiasedLowRange)
{
    // At bound 2^63 + 1 a raw draw below (2^64 - bound) % bound =
    // 2^63 - 1 is rejected, about half of them: these eight outputs
    // take thirteen draws.
    Rng r(7);
    for (const std::uint64_t v :
         {3699983033973700185ull, 6265020869637863829ull,
          8874686607794401855ull, 9054773939583320855ull,
          6876465445380131912ull, 763097503181529494ull,
          4277029006759600087ull, 8097486056669415888ull})
        EXPECT_EQ(r.below(0x8000000000000001ull), v);
    Rng twin(7);
    for (int i = 0; i < 13; ++i)
        twin.next();
    EXPECT_EQ(r.next(), twin.next());
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all 7 values hit in 500 draws
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double x = r.real();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits, 2500, 250);
}

TEST(RngDeathTest, BelowZeroBoundPanics)
{
    Rng r(1);
    EXPECT_DEATH(r.below(0), "below");
}

} // namespace
} // namespace memfwd
