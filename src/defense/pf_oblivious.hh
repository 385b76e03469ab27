/**
 * @file
 * Page-fault obliviousness defense model (§8, Shinde et al. [51]):
 * the program is transformed so both branch directions touch the same
 * pages (redundant accesses), making the page-fault *sequence*
 * independent of the secret and defeating controlled-channel attacks.
 *
 * The paper's observation, reproduced here: the transformation
 * actually *helps* MicroScope — the redundant memory accesses are
 * additional replay-handle candidates, and the finer-grained channels
 * (execution-port contention) remain secret-dependent.
 */

#ifndef USCOPE_DEFENSE_PF_OBLIVIOUS_HH
#define USCOPE_DEFENSE_PF_OBLIVIOUS_HH

#include <cstdint>

#include "common/types.hh"
#include "os/machine.hh"

namespace uscope::defense
{

/** Configuration of the PF-obliviousness experiment. */
struct PfObliviousConfig
{
    bool secret = true;
    std::uint64_t replays = 40;
    unsigned monitorSamples = 4000;
    unsigned cont = 4;
    Cycles threshold = 120;
    os::MachineConfig machine;
};

/** Outcome. */
struct PfObliviousResult
{
    /**
     * The controlled channel is closed: the set of pages faulted on
     * is the same for both secrets.
     */
    bool pageTraceSecretIndependent = false;
    /**
     * Replay-handle candidates (distinct data pages accessed before
     * the sensitive operations) in the oblivious binary vs the
     * original — the transformation adds handles.
     */
    unsigned obliviousHandleCandidates = 0;
    unsigned originalHandleCandidates = 0;
    /** Port-contention samples above threshold (still leaks). */
    std::uint64_t aboveThreshold = 0;
    bool inferredDivides = false;
    bool inferenceCorrect = false;
};

/** Run the experiment. */
PfObliviousResult runPfObliviousExperiment(const PfObliviousConfig &);

} // namespace uscope::defense

#endif // USCOPE_DEFENSE_PF_OBLIVIOUS_HH
