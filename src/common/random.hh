/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the simulation (DRAM access jitter, SMT
 * arbitration tie-breaks, workload generation) draws from an explicitly
 * seeded Xoshiro256** stream, so a given seed reproduces a run
 * bit-for-bit.  Benches sweep seeds explicitly; tests pin them.
 */

#ifndef USCOPE_COMMON_RANDOM_HH
#define USCOPE_COMMON_RANDOM_HH

#include <array>
#include <cstdint>
#include <string>

namespace uscope
{

/**
 * SplitMix64 finalizer (Vigna): a full-avalanche 64-bit mix.  The
 * building block for deriving decorrelated seeds from structured
 * inputs — trial seeds from (masterSeed, index), fault-site streams
 * from (machine seed, site id) — where plain arithmetic would hand
 * adjacent inputs overlapping PRNG expansions.
 */
std::uint64_t mix64(std::uint64_t x);

/**
 * 64-bit FNV-1a of @p s, with an offset basis one digit short of the
 * standard one: 1469598103934665603 (0x14650fb0739d0383) where FNV
 * specifies 14695981039346656037 (0xcbf29ce484222325).  It stays
 * because every pinned campaign fingerprint was derived with it;
 * correcting it would move all of them at once.
 */
std::uint64_t fnv1a64(const std::string &s);

/** The standard 64-bit FNV offset basis: where fnv1aMix chains start. */
constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ull;

/**
 * Fold @p v into the FNV-1a hash @p h one byte at a time, least
 * significant first.  The state digests (Core, Cache, Hierarchy)
 * chain it from kFnv1aBasis over their words.
 */
constexpr std::uint64_t
fnv1aMix(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Xoshiro256** PRNG (Blackman & Vigna).  Small, fast, and good enough
 * for simulation jitter; not cryptographic (the simulated RDRAND draws
 * from a separate, OS-controlled instance on purpose — see §7.2 of the
 * paper, where the attacker biases it).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Re-seed the stream (SplitMix64 expansion of @p seed). */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /**
     * Advance the stream by exactly @p k raw draws, leaving the state
     * k next() calls would (as std:: engines' discard does).  Steps
     * inline below kDiscardJumpMin draws and jump()s from there on.
     */
    void discard(std::uint64_t k);

    /**
     * discard(k) in O(log k) for any @p k: x^k mod the characteristic
     * polynomial (xoshiro::xPowMod), applied to the state with one
     * 256-step Horner pass over the transition.  About 1-1.5 us
     * whatever k is, so discard() uses it only from the break-even
     * on.
     */
    void jump(std::uint64_t k);

    /**
     * The smallest k for which discard(k) jumps rather than steps.
     * BM_RngDiscard (bench/perf_microbench.cc; medians of 5 on a
     * Xeon, in BENCH_fastforward.json) puts the crossover between
     * k = 512 (stepping 0.57 us, jump 0.84 us) and k = 1024 (1.42
     * against 1.24 us); other runs put it just either side of 1024.
     * 2048 keeps a margin past it, where the jump already wins 2x.
     */
    static constexpr std::uint64_t kDiscardJumpMin = 2048;

    /** Uniform draw in [0, bound); bound must be non-zero. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform draw in [lo, hi] inclusive. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p);

    /** Uniform double in [0, 1). */
    double uniform();

  private:
    std::uint64_t s_[4];
};

/**
 * GF(2) polynomial arithmetic modulo xoshiro256's characteristic
 * polynomial p(x): the engine of Rng::jump, exposed for its tests.
 * By Cayley-Hamilton p(T) = 0 for the state transition T, so T^k is
 * (x^k mod p)(T), a polynomial of degree below 256 in T.
 */
namespace xoshiro
{

/** Degree < 256: bit i % 64 of word i / 64 is the x^i coefficient. */
using Poly = std::array<std::uint64_t, 4>;

/** p(x) without its leading x^256 term, i.e. x^256 mod p. */
inline constexpr Poly kCharPoly = {
    0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull,
    0x04b4edcf26259f85ull, 0x0003c03c3f3ecb19ull};

/** a(x)^2 mod p(x). */
Poly squareMod(const Poly &a);

/** x^k mod p(x), by left-to-right square-and-multiply. */
Poly xPowMod(std::uint64_t k);

} // namespace xoshiro

} // namespace uscope

#endif // USCOPE_COMMON_RANDOM_HH
