#include "common/random.hh"

#include <cassert>

namespace uscope
{

namespace
{

/** SplitMix64 used to expand a single seed into full generator state. */
std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // anonymous namespace

std::uint64_t
mix64(std::uint64_t x)
{
    std::uint64_t state = x;
    return splitMix64(state);
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &word : s_)
        word = splitMix64(sm);
    // All-zero state is the one degenerate case for xoshiro.
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0)
        s_[0] = 1;
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
    assert(bound != 0);
    // A power of two divides 2^64: nothing to reject, and the modulo is
    // a mask.  Same value, same single draw as the general path.
    if ((bound & (bound - 1)) == 0)
        return next() & (bound - 1);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t draw = next();
        if (draw >= threshold)
            return draw % bound;
    }
}

std::uint64_t
Rng::range(std::uint64_t lo, std::uint64_t hi)
{
    assert(lo <= hi);
    return lo + below(hi - lo + 1);
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

double
Rng::uniform()
{
    // 53 random mantissa bits, as for std::generate_canonical.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

} // namespace uscope
