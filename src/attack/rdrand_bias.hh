/**
 * @file
 * RDRAND integrity attack (paper §7.2).
 *
 * The victim draws hardware entropy in the shadow of a replay handle
 * and transmits bit 0 of the draw through a cache line.  Two
 * configurations are measured:
 *
 *  - RDRAND *without* its serializing fence: the transmit executes
 *    speculatively, so the attacker observes every speculative draw
 *    over the cache channel (the observation component of the
 *    attack works).
 *  - RDRAND *with* the fence (real Intel behaviour): nothing younger
 *    than RDRAND executes in the window, so the attacker observes
 *    nothing — "the attack does not go through".
 *
 * The run also reports the honest limitation of bias-via-page-fault
 * replay: every replay and the final release each re-draw, so the
 * retired value is a fresh sample regardless of what was observed
 * (biasing the committed value needs a replay handle that can abort
 * *after* retirement — TSX, see attack/tsx_replay.hh).
 */

#ifndef USCOPE_ATTACK_RDRAND_BIAS_HH
#define USCOPE_ATTACK_RDRAND_BIAS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "os/machine.hh"

namespace uscope::attack
{

/** Configuration of one RDRAND-observation run. */
struct RdrandConfig
{
    bool serializingRdrand = true;  ///< Intel's actual behaviour.
    std::uint64_t replays = 32;
    os::MachineConfig machine;
};

/** Outcome. */
struct RdrandResult
{
    /** Per-replay observation: -1 none, else the observed bit. */
    std::vector<int> observedBits;
    /** Replays in which a draw was observed over the channel. */
    std::uint64_t observations = 0;
    /** Bit 0 of the value the victim architecturally consumed. */
    int retiredBit = -1;
    bool victimCompleted = false;
    /** cpu::Core::stateDigest() when the run ends (tests pin it). */
    std::uint64_t coreDigest = 0;
};

/** Run the observation experiment once. */
RdrandResult runRdrandObservation(const RdrandConfig &);

} // namespace uscope::attack

#endif // USCOPE_ATTACK_RDRAND_BIAS_HH
