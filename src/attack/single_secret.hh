/**
 * @file
 * Single-secret attack (paper Figure 5, §4.2.1): getSecret(id, key).
 *
 * Two channels are denoised from one logical run of the function:
 *
 *  - Subnormal channel: the secrets[id]/key divide's latency reveals
 *    whether secrets[id] is subnormal [7].  The Monitor on the SMT
 *    sibling sees much longer divider-port contention per replay for
 *    the subnormal case.
 *  - Cache channel: the secrets[id] load reveals the cache line of
 *    the accessed element ("extract the cache line address of
 *    secrets[id]"), recovering id to 8-element granularity.
 */

#ifndef USCOPE_ATTACK_SINGLE_SECRET_HH
#define USCOPE_ATTACK_SINGLE_SECRET_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "os/machine.hh"

namespace uscope::attack
{

/** Configuration of one single-secret run. */
struct SingleSecretConfig
{
    unsigned id = 137;        ///< Index into secrets[512].
    bool subnormal = true;    ///< Whether secrets[id] is subnormal.
    std::uint64_t replays = 50;
    unsigned monitorSamples = 2000;
    unsigned cont = 4;
    os::MachineConfig machine;
};

/** Attack outcome. */
struct SingleSecretResult
{
    /** Monitor samples above the subnormal threshold. */
    std::uint64_t slowSamples = 0;
    std::vector<Cycles> samples;
    bool inferredSubnormal = false;
    /** Cache channel: line of the secrets page observed hot. */
    std::optional<unsigned> inferredLine;
    unsigned trueLine = 0;
    bool victimCompleted = false;
    std::uint64_t replaysDone = 0;
    /** cpu::Core::stateDigest() when the run ends (tests pin it). */
    std::uint64_t coreDigest = 0;
};

/** Run the Figure-5 attack once. */
SingleSecretResult runSingleSecretAttack(const SingleSecretConfig &);

} // namespace uscope::attack

#endif // USCOPE_ATTACK_SINGLE_SECRET_HH
