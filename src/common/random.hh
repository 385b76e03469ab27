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
 * standard one.  Pinned campaign fingerprints are the only reason
 * left for that basis: they were all derived with it, so it stays.
 */
std::uint64_t fnv1a64(const std::string &s);

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

} // namespace uscope

#endif // USCOPE_COMMON_RANDOM_HH
