/**
 * @file
 * Déjà Vu defense model (§8, [13]): the victim measures, with a
 * reference clock, whether its code took abnormally long, inferring
 * compromise.
 *
 * The model makes the paper's two critiques measurable:
 *
 *  1. Masking: a replay costs about as much victim-visible time as an
 *     ordinary minor page fault, so the detection threshold must
 *     tolerate a few genuine faults — and the attacker gets that many
 *     replays for free.
 *  2. Clock starvation / late detection: the closing clock read is
 *     younger than the replay handle, so it cannot retire until the
 *     attacker releases the victim: detection — if any — fires only
 *     after the secret has already been extracted.
 */

#ifndef USCOPE_DEFENSE_DEJAVU_HH
#define USCOPE_DEFENSE_DEJAVU_HH

#include <cstdint>

#include "common/types.hh"
#include "os/machine.hh"

namespace uscope::defense
{

/**
 * Victim's detection threshold in cycles for the guarded region;
 * calibrated as a multiple of a benign minor-fault cost.
 */
constexpr Cycles kDejavuDetectionThreshold = 12000;

/** Configuration of one Déjà Vu experiment. */
struct DejavuConfig
{
    bool secret = true;
    /** Replays the attacker takes. */
    std::uint64_t replays = 10;
    os::MachineConfig machine;
};

/** Outcome. */
struct DejavuResult
{
    /** Victim-measured elapsed cycles for the guarded region. */
    Cycles measuredElapsed = 0;
    /** Did the victim's check fire? */
    bool detected = false;
    /** Replays the attacker completed before any detection. */
    std::uint64_t replaysCompleted = 0;
    /** Did the attacker read the secret (cache channel)? */
    bool secretExtracted = false;
    bool inferredSecret = false;
    /** Cost of one benign minor fault (threshold calibration aid). */
    Cycles benignFaultCost = 0;
};

/** Run the experiment. */
DejavuResult runDejavuExperiment(const DejavuConfig &);

} // namespace uscope::defense

#endif // USCOPE_DEFENSE_DEJAVU_HH
