/**
 * @file
 * Conditional-branch direction predictor: a table of 2-bit saturating
 * counters indexed by (biased) PC.
 *
 * Two properties matter for the paper's control-flow-secret attack
 * (§4.2.3): the adversary can *flush* the predictor into a known state
 * (as SGX enclave-boundary countermeasures do [12]) and can *prime* a
 * given branch toward a chosen direction (as in Spectre [33]).  Either
 * way the predictor state is public, so observing whether the replayed
 * branch re-executes (mispredicts) leaks secret == predicted-direction.
 */

#ifndef USCOPE_CPU_PREDICTOR_HH
#define USCOPE_CPU_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace uscope::cpu
{

/** Predictor hit/update counters. */
struct PredictorStats
{
    std::uint64_t lookups = 0;
    std::uint64_t updates = 0;
    std::uint64_t flushes = 0;
};

/** Bimodal 2-bit-counter direction predictor, shared by SMT contexts. */
class BranchPredictor
{
  public:
    /** @param entries Table size (power of two). */
    explicit BranchPredictor(unsigned entries);

    // Inline: the core's hot loop predicts every conditional branch at
    // dispatch and trains it at completion (DESIGN.md §18).

    /** Predicted direction for the branch at biased PC @p pc. */
    bool
    predict(std::uint64_t pc)
    {
        ++stats_.lookups;
        return table_[indexOf(pc)] >= 2;
    }

    /** Train with the resolved direction. */
    void
    update(std::uint64_t pc, bool taken)
    {
        ++stats_.updates;
        std::uint8_t &counter = table_[indexOf(pc)];
        if (taken) {
            if (counter < 3)
                ++counter;
        } else {
            if (counter > 0)
                --counter;
        }
    }

    /**
     * Reset every counter to weakly-not-taken.  Models the SGX
     * enclave-boundary predictor flush: afterwards the state is
     * *public* (all not-taken), which is what MicroScope exploits.
     */
    void flush();

    /**
     * Adversarial priming: saturate the counter for @p pc toward
     * @p taken (the attacker knows the victim's PC bias).
     */
    void prime(std::uint64_t pc, bool taken);

    /** Raw counter value (tests). */
    unsigned counter(std::uint64_t pc) const;

    const PredictorStats &stats() const { return stats_; }

  private:
    unsigned
    indexOf(std::uint64_t pc) const
    {
        // Cheap mix so nearby PCs spread across the table.
        const std::uint64_t hash = pc * 0x9E3779B97F4A7C15ull;
        return static_cast<unsigned>(hash >> 40) & (table_.size() - 1);
    }

    std::vector<std::uint8_t> table_;  ///< 2-bit counters, 0..3.
    PredictorStats stats_;
};

} // namespace uscope::cpu

#endif // USCOPE_CPU_PREDICTOR_HH
