/**
 * @file
 * FaultInjector: delivers a FaultPlan's perturbations into a Machine.
 *
 * Two delivery mechanisms, chosen per fault class so that results are
 * bit-identical with event-driven fast-forward on or off:
 *
 *  - **Time-scheduled faults** (OS interrupts, preemptions) fire at
 *    cycles drawn up front from per-site PRNG streams.  The earliest
 *    pending firing is exposed through nextEventCycle(), which
 *    os::Machine folds into its fast-forward minimum — so a clock jump
 *    can never skip an injection; the machine lands on the firing
 *    cycle and poll() delivers it, exactly as a cycle-by-cycle run
 *    would.
 *
 *  - **Event-coupled noise** (port jitter, probe timer jitter, dropped
 *    monitor samples) is drawn at the perturbed event itself from
 *    dedicated streams.  The triggering events occur at the cycles a
 *    cycle-by-cycle run would reach them (the §10 contract), so the
 *    draw sequences — and therefore the noise — are identical too.
 *
 * Every injected event is counted under the `fault.*` metric namespace
 * and, when tracing is enabled, recorded as an EventKind::FaultInject
 * trace event (a = Site, b = magnitude, addr = site-specific payload),
 * so a fault schedule is fully observable and comparable byte for byte
 * across runs.
 *
 * Ownership: a Machine owns one FaultInjector and wires it to its own
 * components; like the Observer it is confined to the thread
 * simulating that Machine.
 */

#ifndef USCOPE_FAULT_INJECTOR_HH
#define USCOPE_FAULT_INJECTOR_HH

#include <cstdint>

#include "common/random.hh"
#include "common/types.hh"
#include "fault/plan.hh"
#include "obs/observer.hh"

namespace uscope::mem
{
class Hierarchy;
} // namespace uscope::mem

namespace uscope::vm
{
class Mmu;
} // namespace uscope::vm

namespace uscope::cpu
{
class Core;
} // namespace uscope::cpu

namespace uscope::obs
{
class MetricRegistry;
} // namespace uscope::obs

namespace uscope::fault
{

/** Everything the injector did, for metrics export and tests. */
struct FaultStats
{
    std::uint64_t interrupts = 0;
    std::uint64_t linesEvicted = 0;
    std::uint64_t tlbShootdowns = 0;
    std::uint64_t pwcShootdowns = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t portJitterEvents = 0;
    std::uint64_t portJitterCycles = 0;
    std::uint64_t probeJitterEvents = 0;
    std::uint64_t probeJitterCycles = 0;
    std::uint64_t samplesDropped = 0;

    std::uint64_t
    injectionsTotal() const
    {
        return interrupts + preemptions + portJitterEvents +
               probeJitterEvents + samplesDropped;
    }
};

/** The injector. */
class FaultInjector
{
  public:
    /**
     * @param plan The fault model; an inert plan makes every call a
     *             cheap no-op.
     * @param seed Stream seed; sites derive decorrelated sub-streams.
     */
    FaultInjector(const FaultPlan &plan, std::uint64_t seed);

    /** Wire the delivery targets (Machine construction). */
    void wire(mem::Hierarchy *hierarchy, vm::Mmu *mmu, cpu::Core *core,
              obs::Observer *observer);

    const FaultPlan &plan() const { return plan_; }
    const FaultStats &stats() const { return stats_; }

    /** True when the plan schedules or couples any fault at all. */
    bool active() const { return active_; }

    /**
     * Earliest cycle at which a scheduled fault will fire
     * (kNoEventCycle when no schedule is armed).  Folded into
     * os::Machine::nextEventCycle() so fast-forward never jumps over
     * an injection.
     */
    Cycles nextEventCycle() const;

    /**
     * Fire every scheduled fault due at or before @p now and draw the
     * next firing cycles.  Called by the Machine's run loop once per
     * simulated step; idempotent within a cycle.
     */
    void poll(Cycles now);

    /**
     * Event-coupled: extra latency for an execution-port issue of a
     * jitterable op on context @p ctx (0 most of the time).  Wired
     * into cpu::Core as its issue-jitter hook.
     */
    Cycles issueJitter(unsigned ctx);

    /** Event-coupled: extra cycles on one attacker timed probe. */
    Cycles probeJitter();

    /** Event-coupled: true when the attacker loses this monitor
     *  sample. */
    bool dropMonitorSample();

    /**
     * Adopt @p other's RNG streams, pending firing cycles, and stats
     * (snapshot forking, DESIGN.md §12).  Plans must match; the wired
     * component pointers stay this injector's own.
     */
    void copyStateFrom(const FaultInjector &other);

    /**
     * Re-derive every site stream from @p seed and re-draw the next
     * scheduled firings *relative to @p now* — the reseed-at-fork
     * primitive.  A cold machine reseeded at cycle C and a fork
     * restored to cycle C then reseeded produce the same schedule.
     */
    void reseedAt(std::uint64_t seed, Cycles now);

    /**
     * Guard against pending firing cycles stranded in the past after
     * a state restore: any schedule whose next firing lies before
     * @p now is re-drawn relative to @p now (from the current stream,
     * like reseedAt's anchoring but without reseeding).  A consistent
     * restore — snapshot cycle and pending cycles copied together —
     * satisfies pending >= now already, so this is a deterministic
     * no-op there; without it, a stale pending cycle would make the
     * next poll() deliver the whole catch-up burst at once.
     */
    void reanchorAt(Cycles now);

    /** Register fault.* counters. */
    void exportMetrics(obs::MetricRegistry &registry) const;

  private:
    void fireInterrupt(Cycles at);
    void firePreemption(Cycles at);
    void trace(Site site, std::uint16_t b, std::uint64_t addr);

    /** Next gap of a schedule: uniform in [gap/2, 3*gap/2], min 1. */
    static Cycles gapDraw(Rng &rng, Cycles mean_gap);

    FaultPlan plan_;
    bool active_ = false;

    Rng rngInterrupt_;
    Rng rngPreempt_;
    Rng rngPort_;
    Rng rngProbe_;
    Rng rngDrop_;

    /** Next scheduled firing cycles (kNoEventCycle = schedule off). */
    Cycles nextInterrupt_ = kNoEventCycle;
    Cycles nextPreempt_ = kNoEventCycle;

    mem::Hierarchy *hierarchy_ = nullptr;
    vm::Mmu *mmu_ = nullptr;
    cpu::Core *core_ = nullptr;
    obs::Observer *obs_ = nullptr;

    FaultStats stats_;
};

} // namespace uscope::fault

#endif // USCOPE_FAULT_INJECTOR_HH
