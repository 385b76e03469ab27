/**
 * @file
 * Branch mispredictions as replay handles (paper §7.1, last part):
 * "any instruction which can squash speculative execution, e.g., a
 * branch that mispredicts, can cause some subsequent code to be
 * replayed...  To maximize replays, the adversary can...  prime the
 * branch predictor to mispredict if there are not already mechanisms
 * to flush the predictors on context switches."
 *
 * The victim executes a run of always-taken branches followed by
 * sensitive code.  The attacker primes every branch toward
 * "not-taken": each one resolves, mispredicts, squashes, and
 * re-fetches — so the sensitive code executes once per mispredicting
 * in-flight branch, plus the final architectural time.  Unlike page
 * faults the replay count is bounded (each branch mispredicts once
 * before the 2-bit counter flips), so this is an amplifier, not an
 * unbounded denoiser — exactly the paper's framing.
 */

#ifndef USCOPE_ATTACK_MISPREDICT_REPLAY_HH
#define USCOPE_ATTACK_MISPREDICT_REPLAY_HH

#include <cstdint>

#include "common/types.hh"
#include "os/machine.hh"

namespace uscope::attack
{

/** Configuration of one mispredict-replay run. */
struct MispredictReplayConfig
{
    /** Number of primable branches before the sensitive code. */
    unsigned branches = 6;
    /** Prime the predictor against the actual direction? */
    bool primeToMispredict = true;
    os::MachineConfig machine;
};

/** Outcome. */
struct MispredictReplayResult
{
    /** Times the sensitive (transmit) load executed. */
    std::uint64_t transmitExecutions = 0;
    std::uint64_t mispredicts = 0;
    /** Attacker-side evidence: was the transmit line hot at the end? */
    bool residueObserved = false;
    bool victimCompleted = false;
    /** cpu::Core::stateDigest() when the run ends (tests pin it). */
    std::uint64_t coreDigest = 0;
};

/** Run the experiment once. */
MispredictReplayResult
runMispredictReplay(const MispredictReplayConfig &);

} // namespace uscope::attack

#endif // USCOPE_ATTACK_MISPREDICT_REPLAY_HH
