/**
 * @file
 * Control-flow-secret attack, cache variant (paper Figure 4c,
 * §4.2.3).
 *
 * The victim branches on an enclave secret; the two sides touch
 * different pages (the Figure-6 mul/div operand pages double as the
 * "different cache lines" of the paper's first variant).  The
 * Replayer primes both transmit lines, replays the window behind the
 * handle, and probes which line came back hot — recovering the branch
 * direction from a single logical run.
 *
 * The Prediction experiment (§4.2.3 "Prediction") is also modelled:
 * with the branch predictor primed to a *known* direction, whether
 * the wrong-path residue appears reveals secret == prediction; with
 * the predictor flushed at the enclave boundary [12] the same
 * reasoning applies against the known reset state.
 */

#ifndef USCOPE_ATTACK_CONTROL_FLOW_HH
#define USCOPE_ATTACK_CONTROL_FLOW_HH

#include <cstdint>
#include <optional>

#include "common/types.hh"
#include "os/machine.hh"

namespace uscope::attack
{

/** Configuration of one control-flow-secret run. */
struct ControlFlowConfig
{
    bool secret = true;       ///< Ground truth branch direction.
    std::uint64_t replays = 20;
    /**
     * Predictor priming: nullopt = flush at enclave entry [12];
     * otherwise prime the victim branch toward the given direction.
     */
    std::optional<bool> primeTaken;
    os::MachineConfig machine;
};

/** Attack outcome. */
struct ControlFlowResult
{
    /** Replays where the mul-side page showed residue. */
    std::uint64_t mulHits = 0;
    /** Replays where the div-side page showed residue. */
    std::uint64_t divHits = 0;
    /** The adversary's verdict for the secret. */
    std::optional<bool> inferredSecret;
    /** Whether both paths showed residue (misprediction signature). */
    bool bothPathsObserved = false;
    bool victimCompleted = false;
    std::uint64_t replaysDone = 0;
    std::uint64_t victimMispredicts = 0;
    /** cpu::Core::stateDigest() when the run ends (tests pin it). */
    std::uint64_t coreDigest = 0;
};

/** Run the cache-variant control-flow attack once. */
ControlFlowResult runControlFlowAttack(const ControlFlowConfig &);

} // namespace uscope::attack

#endif // USCOPE_ATTACK_CONTROL_FLOW_HH
