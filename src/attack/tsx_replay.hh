/**
 * @file
 * TSX-abort replay handles (paper §7.1).
 *
 * Entering a transaction is an alternative replay handle: the
 * attacker aborts the transaction at will (Intel TSX aborts when
 * dirty — write-set — data is evicted from the private cache, which
 * a malicious OS controls), rolling architectural state back to
 * TXBEGIN while microarchitectural residue survives.  Two properties
 * distinguish this from page-fault handles:
 *
 *  - the replayed window is the whole transaction body, not the ROB;
 *  - instructions *retire* (transactionally) inside the window, so a
 *    serializing RDRAND no longer hides its value (§7.2's fence "will
 *    no longer be effective") — and, because the attacker can choose
 *    to abort *after observing* a retired draw but *before commit*,
 *    the committed value can actually be biased.
 */

#ifndef USCOPE_ATTACK_TSX_REPLAY_HH
#define USCOPE_ATTACK_TSX_REPLAY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "os/machine.hh"

namespace uscope::attack
{

/** Configuration of the TSX secret-replay experiment. */
struct TsxReplayConfig
{
    bool secret = true;
    /** Times the attacker aborts (= replays obtained). */
    unsigned aborts = 8;
    /** Victim's retry budget (must exceed aborts to succeed). */
    unsigned maxRetries = 16;
    os::MachineConfig machine;
};

/** Outcome of the secret-replay experiment. */
struct TsxReplayResult
{
    /** Replays in which the secret was observed over the channel. */
    std::uint64_t observations = 0;
    std::uint64_t txAborts = 0;
    bool victimSucceeded = false;  ///< Transaction finally committed.
    bool inferredSecret = false;
    bool victimCompleted = false;
    /** cpu::Core::stateDigest() when the run ends (tests pin it). */
    std::uint64_t coreDigest = 0;
};

/** Replay a transaction body @p aborts times, observing each pass. */
TsxReplayResult runTsxSecretReplay(const TsxReplayConfig &);

/** Configuration of the RDRAND-bias-via-TSX experiment. */
struct TsxBiasConfig
{
    int desiredBit = 1;     ///< The attacker wants this bit committed.
    unsigned maxRetries = 256;
    os::MachineConfig machine;   ///< rdrandSerializing stays true!
};

/** Outcome of one bias run. */
struct TsxBiasResult
{
    int committedBit = -1;
    std::uint64_t abortsIssued = 0;
    std::uint64_t drawsObserved = 0;
    bool victimCompleted = false;
    /** True when the committed bit equals the desired bit. */
    bool biased = false;
    /** cpu::Core::stateDigest() when the run ends (tests pin it). */
    std::uint64_t coreDigest = 0;
};

/**
 * Bias a (serializing!) RDRAND: abort the transaction whenever the
 * observed draw has the wrong bit, release it when it is right.
 */
TsxBiasResult runTsxRdrandBias(const TsxBiasConfig &);

} // namespace uscope::attack

#endif // USCOPE_ATTACK_TSX_REPLAY_HH
