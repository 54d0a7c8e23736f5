#include "common/random.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace memfwd
{

namespace
{

/** splitmix64: expands a single seed into the xoshiro state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    memfwd_assert(bound != 0, "Rng::below(0)");
    // Rejection sampling to avoid modulo bias: reject r below
    // (2^64 - bound) % bound.  That threshold is below bound, so it
    // needs computing only for the rare r < bound.
    for (;;) {
        const std::uint64_t r = next();
        if (r >= bound || r >= (0 - bound) % bound)
            return r % bound;
    }
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    memfwd_assert(lo <= hi, "Rng::range(%lld, %lld)",
                  static_cast<long long>(lo), static_cast<long long>(hi));
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(span == 0 ? next() : below(span));
}

double
Rng::real()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    return real() < p;
}

std::uint64_t
testSeed(std::uint64_t base)
{
    static const std::uint64_t env_seed = [] {
        const char *s = std::getenv("MEMFWD_TEST_SEED");
        return s ? std::strtoull(s, nullptr, 0) : 0ULL;
    }();
    if (env_seed == 0)
        return base;
    // Feed both through splitmix64 so adjacent environment seeds give
    // unrelated streams for every base.
    std::uint64_t x = base ^ (env_seed * 0x9e3779b97f4a7c15ULL);
    return splitmix64(x);
}

} // namespace memfwd
