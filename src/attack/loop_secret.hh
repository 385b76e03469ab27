/**
 * @file
 * Loop-secret attack (paper Figure 4b, §4.2.2).
 *
 * Each loop iteration transmits a different secret (here: which cache
 * line of a transmit page gets loaded).  The challenge the paper
 * highlights is disambiguating secret[i] from secret[i+1]; MicroScope
 * solves it with the pivot: after denoising iteration i at the replay
 * handle, the Replayer flips present bits between the handle page and
 * the pivot page to advance exactly one iteration.
 *
 * Because younger iterations' independent loads also execute in the
 * window (up to the ROB limit), the per-iteration secret is resolved
 * by suffix differencing of consecutive episodes' line sets.
 */

#ifndef USCOPE_ATTACK_LOOP_SECRET_HH
#define USCOPE_ATTACK_LOOP_SECRET_HH

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "common/types.hh"
#include "os/machine.hh"

namespace uscope::attack
{

/** Configuration of one loop-secret run. */
struct LoopSecretConfig
{
    /** The secret sequence: one transmit line index per iteration. */
    std::vector<std::uint8_t> secretLines{9, 3, 60, 3, 27, 41, 0, 55};
    os::MachineConfig machine;
};

/** Attack outcome. */
struct LoopSecretResult
{
    /** Observed line sets per episode (iteration). */
    std::vector<std::set<unsigned>> episodeLines;
    /** Recovered per-iteration line (nullopt = ambiguous). */
    std::vector<std::optional<unsigned>> recovered;
    unsigned correct = 0;
    unsigned wrong = 0;
    bool victimCompleted = false;
    std::uint64_t totalReplays = 0;
    /** cpu::Core::stateDigest() when the run ends (tests pin it). */
    std::uint64_t coreDigest = 0;
};

/** Run the loop-secret attack once. */
LoopSecretResult runLoopSecretAttack(const LoopSecretConfig &);

} // namespace uscope::attack

#endif // USCOPE_ATTACK_LOOP_SECRET_HH
