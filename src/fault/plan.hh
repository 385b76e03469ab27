/**
 * @file
 * Declarative description of the deterministic fault & noise model.
 *
 * The paper's central claim (§4.3) is that unbounded replay turns a
 * *noisy* side channel into a reliable one.  A FaultPlan describes the
 * noise the real machine would inject — OS-interrupt cache residue,
 * spurious TLB/PWC shootdowns, preemptions, execution-port jitter,
 * measurement-timer jitter, and dropped monitor samples — so the
 * simulator can demonstrate the replay-count-vs-accuracy tradeoff
 * instead of asserting it.
 *
 * Everything here is *deterministic*: every perturbation is drawn from
 * a per-site PRNG stream derived from (machine seed, site id), and the
 * time-scheduled faults expose their next firing cycle through
 * FaultInjector::nextEventCycle() so the event-driven fast-forward
 * path lands on each injection exactly.  The same (plan, seed) pair
 * therefore reproduces the same fault schedule bit for bit, with fast-
 * forward on or off and at any campaign worker count.
 *
 * A default-constructed plan is inert (all rates zero): the simulator
 * stays noiseless unless a plan is configured, except that setting the
 * environment variable USCOPE_FAULT_PLAN=chaos swaps the *default*
 * MachineConfig plan for FaultPlan::chaos() — the CI chaos job runs
 * the whole test suite that way.  Code that explicitly assigns a plan
 * (including an empty one) always wins over the environment.
 */

#ifndef USCOPE_FAULT_PLAN_HH
#define USCOPE_FAULT_PLAN_HH

#include <cstdint>

#include "common/types.hh"

namespace uscope::fault
{

/** The injection-site taxonomy (stable ids: PRNG streams and the
 *  `fault.*` metric/trace namespace key off them). */
enum class Site : std::uint8_t
{
    Interrupt,      ///< OS interrupt: cache residue + TLB/PWC shootdown.
    Preemption,     ///< Scheduler preemption: pipeline squash + stall.
    PortJitter,     ///< Extra latency on an issued execution op.
    ProbeJitter,    ///< Extra cycles on an attacker timed probe.
    SampleDrop,     ///< A monitor measurement lost by the attacker.
};

constexpr unsigned numSites = static_cast<unsigned>(Site::SampleDrop) + 1;

/** Stall charged to a preempted context (scheduler quantum tax). */
constexpr Cycles kPreemptPenalty = 3000;

/** All knobs of the fault model; a default-constructed plan is inert. */
struct FaultPlan
{
    // ------------------------------------------------------------------
    // Time-scheduled faults (fired by the Machine's run loop at cycles
    // drawn up front; 0 disables a schedule).  Gaps are uniform in
    // [gap/2, 3*gap/2] so the mean inter-arrival time equals the knob.
    // ------------------------------------------------------------------

    /** Mean cycles between OS interrupts (0 = no interrupts). */
    Cycles interruptMeanGap = 0;
    /** Random L3 (set, way) eviction attempts per interrupt — the
     *  cache residue an interrupt handler leaves behind.  Every
     *  interrupt also shoots down both TLBs and the page-walk cache
     *  (IPI residue). */
    unsigned interruptEvictions = 8;

    /** Mean cycles between preemptions of a random hardware context
     *  (0 = no preemptions); each one stalls it for kPreemptPenalty. */
    Cycles preemptMeanGap = 0;

    // ------------------------------------------------------------------
    // Event-coupled noise (drawn at the perturbed event itself, from
    // dedicated streams, so schedules never depend on tick counts).
    // ------------------------------------------------------------------

    /** Probability an issued mul/div/fp op picks up extra latency. */
    double portJitterRate = 0.0;
    /** Max extra cycles for a jittered issue (uniform in [1, max]). */
    Cycles portJitterMax = 0;

    /** Max extra cycles on a timed probe measurement (uniform in
     *  [0, max]) — attacker-side RDTSC/serialization jitter. */
    Cycles probeJitterMax = 0;

    /** Probability the attacker loses one monitor sample (SMT sibling
     *  descheduled, buffer overrun, ...). */
    double sampleDropRate = 0.0;

    /** Structural equality (snapshot/pool compatibility checks). */
    bool operator==(const FaultPlan &) const = default;

    /** True when any knob is active (the injector's fast-path gate). */
    bool enabled() const;

    /**
     * The noise level fig10/fig11-style attacks must fight through in
     * the denoise sweep and the CI chaos job: frequent-enough
     * interrupts to land inside replay windows, measurable timer
     * jitter, and a few percent of lost samples.
     */
    static FaultPlan chaos();

    /**
     * The process-wide default plan: FaultPlan::chaos() when the
     * environment variable USCOPE_FAULT_PLAN is "chaos", an inert plan
     * otherwise ("", "off", unset).  Read once and cached; explicit
     * assignment to MachineConfig::fault always overrides it.
     */
    static FaultPlan environmentDefault();
};

} // namespace uscope::fault

#endif // USCOPE_FAULT_PLAN_HH
