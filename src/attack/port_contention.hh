/**
 * @file
 * The paper's main attack (§4.3, Figure 10): denoising the execution-
 * unit port-contention channel with microarchitectural replay.
 *
 * A Victim executes the Figure-6 control-flow-secret snippet once —
 * two multiplies or two divides, no loop.  MicroScope replays the
 * window behind a page-faulting handle while a Monitor on the SMT
 * sibling times bursts of divides (Figure 7).  The distribution of
 * Monitor latencies separates the two victim paths cleanly after a
 * modest number of replays, revealing the branch direction (and with
 * it, e.g., subnormal operands of individual FP instructions) from a
 * single logical run.
 */

#ifndef USCOPE_ATTACK_PORT_CONTENTION_HH
#define USCOPE_ATTACK_PORT_CONTENTION_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "obs/event.hh"
#include "obs/metrics.hh"
#include "os/machine.hh"

namespace uscope::attack
{

/** Configuration of one port-contention attack run. */
struct PortContentionConfig
{
    /** True: victim takes the two-divide path (Figure 6b). */
    bool victimDivides = true;
    /** Monitor measurements (paper: 10,000). */
    unsigned samples = 10000;
    /** Divides per Monitor measurement. */
    unsigned cont = 4;
    /** Replays of the victim window (the confidence threshold). */
    std::uint64_t replays = 100;
    /** Contention threshold in cycles (paper: slightly under 120). */
    Cycles threshold = 120;
    /** Machine-config override hook (defenses ablate through this);
     *  its seed is the run's seed. */
    os::MachineConfig machine;
};

/** Outcome of one run. */
struct PortContentionResult
{
    /** Monitor samples that survived the fault layer's drop model. */
    std::vector<Cycles> samples;
    /** Samples lost to the machine's FaultPlan (0 when noiseless). */
    std::uint64_t samplesDropped = 0;
    std::uint64_t aboveThreshold = 0;
    Cycles medianLatency = 0;
    Cycles maxLatency = 0;
    std::uint64_t replaysDone = 0;
    bool victimCompleted = false;
    bool monitorCompleted = false;
    /** The adversary's verdict: did the victim divide? */
    bool inferredDivides = false;
    Cycles totalCycles = 0;
    /** Component metrics snapshot taken after the run. */
    obs::MetricSnapshot metrics;
    /** Event trace (non-empty when config.machine.obs.traceEvents). */
    obs::EventLog events;
};

/** Run the attack once. */
PortContentionResult
runPortContentionAttack(const PortContentionConfig &config);

/**
 * The adversary's decision rule: given counts from a calibration run
 * (mul path) and the observed count, decide "divides" when the count
 * exceeds @p calibration by a comfortable factor.
 */
bool inferDivides(std::uint64_t above_threshold, unsigned samples);

} // namespace uscope::attack

#endif // USCOPE_ATTACK_PORT_CONTENTION_HH
