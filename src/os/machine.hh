/**
 * @file
 * Top-level simulated machine: physical memory, cache hierarchy, MMU,
 * the SMT out-of-order core, and the kernel, wired together.
 *
 * This is the library's main entry point: construct a Machine, create
 * processes through its kernel, start programs on SMT contexts, and
 * tick.  The MicroScope framework (src/core) attaches to the kernel as
 * a fault module.
 */

#ifndef USCOPE_OS_MACHINE_HH
#define USCOPE_OS_MACHINE_HH

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/random.hh"
#include "common/types.hh"
#include "cpu/core.hh"
#include "fault/injector.hh"
#include "fault/plan.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "obs/observer.hh"
#include "os/kernel.hh"
#include "vm/mmu.hh"

namespace uscope::os
{

/** Physical memory of every machine (pages materialise on write). */
constexpr std::uint64_t kPhysMemBytes = std::uint64_t{1} << 32;

/** The values a study varies; every other machine parameter is a
 *  constant in its layer's header (DESIGN.md §2). */
struct MachineConfig
{
    cpu::CoreConfig core;
    KernelCosts costs;
    obs::ObsConfig obs;
    /**
     * The machine's fault/noise model (DESIGN.md §11).  Defaults to
     * the process-wide environment plan — inert unless
     * USCOPE_FAULT_PLAN=chaos is exported (the CI chaos job).
     * Explicit assignment (even of an empty plan) always wins.
     */
    fault::FaultPlan fault = fault::FaultPlan::environmentDefault();
    /** Master seed; sub-components derive their own streams. */
    std::uint64_t seed = 42;
};

/**
 * Structural equality of two configs: every field except the seed.
 * Machines with the same structure can share snapshots and pooled
 * instances — only their RNG streams (reseedable at any time) differ.
 */
bool sameStructure(const MachineConfig &a, const MachineConfig &b);

class Snapshot;

/** The machine. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = MachineConfig{});

    mem::PhysMem &mem() { return mem_; }
    mem::Hierarchy &hierarchy() { return hierarchy_; }
    vm::Mmu &mmu() { return mmu_; }
    cpu::Core &core() { return core_; }
    Kernel &kernel() { return kernel_; }
    const MachineConfig &config() const { return config_; }

    /** The machine's fault injector (inert for an empty plan). */
    fault::FaultInjector &faults() { return faults_; }
    const fault::FaultInjector &faults() const { return faults_; }

    /** Advance one cycle (scheduled faults due now fire first).
     *  True when the core did work in it (cpu::Core::tick). */
    bool
    tick()
    {
        if (faults_.active())
            faults_.poll(core_.cycle());
        return core_.tick();
    }

    /** Current cycle. */
    Cycles cycle() const { return core_.cycle(); }

    /**
     * Advance exactly @p n cycles.  Event-driven fast-forward
     * (DESIGN.md §10) jumps the clock over inert cycles via
     * nextEventCycle() but lands on exactly the state a cycle-by-cycle
     * run would reach.  Every budget here saturates: kNoEventCycle
     * means "no limit", never a wrap into the past.
     */
    void run(Cycles n);

    /**
     * Run until context @p ctx halts or @p max_cycles pass.
     * @return true if the context halted.
     */
    bool runUntilHalted(unsigned ctx, Cycles max_cycles);

    /**
     * Run until @p pred() holds or @p max_cycles pass.
     *
     * @p pred must be a pure function of machine state (stats,
     * registers, memory, context states) — not of the raw cycle
     * counter — so that it cannot flip during a span of cycles the
     * fast-forward path proves inert.  Every predicate in the tree
     * satisfies this today (they test halted()/stat counters).
     *
     * This is the machine's one stepping loop (DESIGN.md §10): it
     * ticks where an event is due and jumps the clock to the next
     * event everywhere else.  A template, so a lambda predicate inlines
     * into the loop instead of costing an indirect call per step.
     */
    template <typename Pred>
    bool runUntil(const Pred &pred, Cycles max_cycles);

    /**
     * Earliest cycle at which ticking can change architectural or
     * stats state: the minimum of the core's (in-flight ops, stalls)
     * and the fault injector's (next scheduled injection)
     * nextEventCycle().  The walker, hierarchy and kernel are
     * synchronous — they charge their latency inside the tick that
     * calls them — so they hold no time of their own.
     * kNoEventCycle when nothing is in flight anywhere.
     */
    Cycles nextEventCycle() const;

    /**
     * How the stepping loop (runUntil) advanced the clock so far:
     * cycles ticked, clock jumps, and nextEventCycle() queries.  Host
     * work, not simulated state: no metric, snapshot or fingerprint
     * holds it, and a restore keeps the machine's own counts.
     */
    struct StepWork
    {
        std::uint64_t ticks = 0;
        std::uint64_t jumps = 0;
        std::uint64_t queries = 0;
    };
    const StepWork &stepWork() const { return stepWork_; }

    /** The machine's observability hub (event ring). */
    obs::Observer &observer() { return obs_; }
    const obs::Observer &observer() const { return obs_; }

    /**
     * Register every component's counters into @p registry
     * (mem.*, vm.*, core.*, os.*).
     */
    void exportMetrics(obs::MetricRegistry &registry) const;

    /** Convenience: exportMetrics into a fresh registry + snapshot. */
    obs::MetricSnapshot metricsSnapshot() const;

    // ------------------------------------------------------------------
    // Snapshot, fork, and pooling (DESIGN.md §12).
    // ------------------------------------------------------------------

    /**
     * Freeze a deep-but-cheap copy of the machine's entire mutable
     * state: core/ROB/contexts, TLB/PWC/walker, cache ways, kernel
     * processes and fault-path counters, RNG streams, fault-injector
     * schedule, stats, and the event-trace ring.  Physical pages are
     * shared copy-on-write — the snapshot holds references and this
     * machine's (or any fork's) first write to a shared page copies
     * it, so the snapshot stays frozen.  Each snapshot constructs its
     * own frozen machine, which is cheap: the caches' never-filled
     * sets cost nothing to build or copy (DESIGN.md §17).
     *
     * Registered fault modules (ms::Microscope) are per-machine
     * external objects and are NOT captured; their machine-visible
     * effects (present bits, staged PT/data lines, TLB/PWC state)
     * are, via the copied memory system.
     */
    Snapshot snapshot() const;

    /**
     * Overwrite this machine's state with @p snap's (same structural
     * config required).  Cheaper than constructing from the snapshot
     * when an instance is pooled: buffers are reused, and pages this
     * machine privatized since the last restore return to the shared
     * arena's free list.
     *
     * In its two big layers a restore pays for the state that differs,
     * not for the whole machine.  PhysMem re-shares in place when the
     * source is the snapshot it last shared from: only pages written
     * since are re-pointed (DESIGN.md §15).  The cache hierarchy
     * copies only the sets whose version ids differ from the
     * snapshot's (DESIGN.md §17).  The result is bit-identical to a
     * full copy.  Fault schedules are defensively re-anchored at the
     * restored cycle (FaultInjector::reanchorAt), a no-op for any
     * consistent snapshot.
     */
    void restoreFrom(const Snapshot &snap);

    /**
     * Re-derive every component RNG stream from @p seed, anchored at
     * the *current* cycle — the reseed-at-fork primitive.  Leaves all
     * architectural state, stats, and traces alone.  The determinism
     * contract: a cold machine that runs a warmup and reseeds equals,
     * bit for bit, a fork restored from the post-warmup snapshot and
     * reseeded with the same seed.
     */
    void reseed(std::uint64_t seed);

  private:
    /** Overwrite all mutable state with @p other's (same structure). */
    void copyStateFrom(const Machine &other);

    MachineConfig config_;
    obs::Observer obs_;
    mem::PhysMem mem_;
    mem::Hierarchy hierarchy_;
    vm::Mmu mmu_;
    cpu::Core core_;
    Kernel kernel_;
    Rng entropy_;   ///< Hardware RDRAND source.
    fault::FaultInjector faults_;
    StepWork stepWork_;   ///< Never copied by copyStateFrom.
};

template <typename Pred>
bool
Machine::runUntil(const Pred &pred, Cycles max_cycles)
{
    // Saturate: an unbounded budget must not wrap the limit to a
    // cycle already in the past.
    const Cycles limit = max_cycles > kNoEventCycle - cycle()
                             ? kNoEventCycle
                             : cycle() + max_cycles;
    // Ticking an inert cycle is as exact as jumping over it, so the
    // next event is asked for only when a jump may pay: after a tick
    // that did no work.  A busy pipeline is usually busy next cycle
    // too, and a jump lands on an event, so both tick straight on.
    bool busy = false;
    while (cycle() < limit) {
        if (pred())
            return true;
        if (!busy) {
            ++stepWork_.queries;
            const Cycles next = nextEventCycle();
            if (next > cycle()) {
                // The jump is clamped so callers asking for exactly n
                // cycles (trial budgets!) never overshoot.
                ++stepWork_.jumps;
                core_.fastForwardTo(std::min(next, limit));
                busy = true;
                continue;
            }
        }
        ++stepWork_.ticks;
        busy = tick();
    }
    return pred();
}

/**
 * A frozen Machine state (DESIGN.md §12): the product of
 * Machine::snapshot(), consumed by Machine::restoreFrom() alone (to
 * start a machine from a snapshot, construct it from config() and
 * restore).  Internally a full state-clone machine that is never
 * ticked; it COW-shares pages with the machine it was taken from and
 * with every fork, so holding one is cheap.  Move-only.
 * Thread confinement follows the Machine rule: a snapshot and all of
 * its forks belong to one simulating thread (page refcounts are
 * deliberately non-atomic).
 */
class Snapshot
{
  public:
    Snapshot() = default;
    Snapshot(Snapshot &&) = default;
    Snapshot &operator=(Snapshot &&) = default;

    /** False for a default-constructed or moved-from snapshot. */
    bool valid() const { return frozen_ != nullptr; }

    /** The frozen machine's config (requires valid()). */
    const MachineConfig &config() const { return frozen_->config(); }

    /** Cycle the snapshot was taken at (requires valid()). */
    Cycles cycle() const { return frozen_->cycle(); }

  private:
    friend class Machine;
    explicit Snapshot(std::unique_ptr<Machine> frozen)
        : frozen_(std::move(frozen))
    {
    }

    std::unique_ptr<Machine> frozen_;   ///< Sole owner; never ticked.
};

} // namespace uscope::os

#endif // USCOPE_OS_MACHINE_HH
