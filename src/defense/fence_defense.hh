/**
 * @file
 * §8 "Fences on Pipeline Flushes": after every pipeline flush the
 * hardware (or OS) inserts a fence, so a replayed window cannot issue
 * anything younger than the faulting instruction — starving
 * MicroScope of speculative side effects.
 *
 * This module evaluates the defense: the port-contention attack under
 * the fence (it should collapse to the mul-path noise floor) and the
 * performance cost on a benign demand-paging workload.
 */

#ifndef USCOPE_DEFENSE_FENCE_DEFENSE_HH
#define USCOPE_DEFENSE_FENCE_DEFENSE_HH

#include <cstdint>

#include "attack/port_contention.hh"

namespace uscope::defense
{

/** Outcome of the fence-on-flush ablation. */
struct FenceAblationResult
{
    /** Attack on the div victim, fence off / on. */
    attack::PortContentionResult baselineDiv;
    attack::PortContentionResult fencedDiv;
    /** Attack on the mul victim with the fence (noise floor). */
    attack::PortContentionResult fencedMul;
    /** True when the fence reduced the div case to the noise floor. */
    bool attackDefeated = false;

    /** Benign demand-paging workload cycles, fence off / on. */
    Cycles benignBaselineCycles = 0;
    Cycles benignFencedCycles = 0;
    double benignOverhead = 0.0;
};

/** Run the full ablation at the default machine seed. */
FenceAblationResult runFenceAblation(unsigned samples = 4000);

} // namespace uscope::defense

#endif // USCOPE_DEFENSE_FENCE_DEFENSE_HH
