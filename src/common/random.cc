#include "common/random.hh"

#include <algorithm>
#include <bit>
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

/**
 * The xoshiro256 state transition T: linear over GF(2), and the one
 * spelling of it that next() and Rng::jump share.
 */
void
advance(std::uint64_t (&s)[4])
{
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
}

using xoshiro::Poly;

/** a += b over GF(2). */
constexpr void
addInto(Poly &a, const Poly &b)
{
    for (int i = 0; i < 4; ++i)
        a[i] ^= b[i];
}

/** a(x) * x mod p(x). */
constexpr Poly
mulX(Poly a)
{
    const bool carry = a[3] >> 63;
    for (int i = 3; i > 0; --i)
        a[i] = (a[i] << 1) | (a[i - 1] >> 63);
    a[0] <<= 1;
    if (carry)
        addInto(a, xoshiro::kCharPoly);
    return a;
}

/**
 * reduceTable[n][v] = (sum of x^(256 + 4n + b) over the set bits b of
 * nibble v) mod p: folds the high half of a 512-bit square back below
 * degree 256 one nibble at a time.  64 x 16 polynomials, 32 KiB.
 */
using ReduceTable = std::array<std::array<Poly, 16>, 64>;

constexpr ReduceTable
buildReduceTable()
{
    ReduceTable table{};
    Poly power = xoshiro::kCharPoly; // x^256 mod p
    for (unsigned i = 0; i < 256; ++i) {
        for (unsigned v = 0; v < 16; ++v) {
            if (v >> (i % 4) & 1)
                addInto(table[i / 4][v], power);
        }
        power = mulX(power);
    }
    return table;
}

constexpr ReduceTable reduceTable = buildReduceTable();

/** Interleave zeros: bit i of @p x moves to bit 2i (squaring in GF(2)). */
std::uint64_t
spreadBits(std::uint32_t x)
{
    std::uint64_t w = x;
    w = (w | (w << 16)) & 0x0000FFFF0000FFFFull;
    w = (w | (w << 8)) & 0x00FF00FF00FF00FFull;
    w = (w | (w << 4)) & 0x0F0F0F0F0F0F0F0Full;
    w = (w | (w << 2)) & 0x3333333333333333ull;
    w = (w | (w << 1)) & 0x5555555555555555ull;
    return w;
}

} // anonymous namespace

namespace xoshiro
{

Poly
squareMod(const Poly &a)
{
    // Squaring is linear in GF(2): a^2 = sum a_i x^(2i), so spread
    // the bits into a 512-bit product, then reduce its high half.
    std::uint64_t wide[8];
    for (int i = 0; i < 4; ++i) {
        wide[2 * i] = spreadBits(static_cast<std::uint32_t>(a[i]));
        wide[2 * i + 1] = spreadBits(static_cast<std::uint32_t>(a[i] >> 32));
    }
    Poly result = {wide[0], wide[1], wide[2], wide[3]};
    for (int w = 0; w < 4; ++w) {
        const std::uint64_t high = wide[4 + w];
        // Unconditional: entry 0 is zero, and a branch on the nibble
        // would mispredict about half the time.
        for (int nibble = 0; nibble < 16; ++nibble) {
            const unsigned v = (high >> (4 * nibble)) & 0xF;
            addInto(result, reduceTable[16 * w + nibble][v]);
        }
    }
    return result;
}

Poly
xPowMod(std::uint64_t k)
{
    // Start from the monomial the leading (up to) 8 bits of k name,
    // then square-and-multiply through the rest, most significant
    // bit first.
    const int rest = std::max(static_cast<int>(std::bit_width(k)) - 8, 0);
    const std::uint64_t lead = k >> rest;
    Poly result{};
    result[lead / 64] = std::uint64_t{1} << (lead % 64);
    for (int b = rest - 1; b >= 0; --b) {
        result = squareMod(result);
        if (k >> b & 1)
            result = mulX(result);
    }
    return result;
}

} // namespace xoshiro

std::uint64_t
mix64(std::uint64_t x)
{
    std::uint64_t state = x;
    return splitMix64(state);
}

std::uint64_t
fnv1a64(const std::string &s)
{
    // Not kFnv1aBasis: this basis is one digit short, and every
    // pinned fingerprint depends on it (see random.hh).
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
    advance(s_);
    return result;
}

void
Rng::discard(std::uint64_t k)
{
    if (k >= kDiscardJumpMin) {
        jump(k);
        return;
    }
    for (; k > 0; --k)
        advance(s_);
}

void
Rng::jump(std::uint64_t k)
{
    // T^k s = sum_i c_i T^i s for x^k mod p = sum_i c_i x^i, evaluated
    // by Horner's rule from the top coefficient down.  Each term is
    // masked in from locals rather than branched on, as the c_i are
    // random bits: BM_RngDiscard measured that ~1.6x faster.
    const Poly c = xoshiro::xPowMod(k);
    const std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
    std::uint64_t acc[4] = {};
    for (int i = 255; i >= 0; --i) {
        advance(acc);
        const std::uint64_t take = 0 - (c[i / 64] >> (i % 64) & 1);
        acc[0] ^= s0 & take;
        acc[1] ^= s1 & take;
        acc[2] ^= s2 & take;
        acc[3] ^= s3 & take;
    }
    for (int w = 0; w < 4; ++w)
        s_[w] = acc[w];
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
    // The full 64-bit span wraps hi - lo + 1 to zero: every raw draw
    // is already uniform over it.
    const std::uint64_t span = hi - lo + 1;
    if (span == 0)
        return next();
    return lo + below(span);
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
