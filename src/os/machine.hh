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

#include <cstdint>
#include <functional>
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

/**
 * Master seed with an explicit "was assigned" signal.
 *
 * Converts implicitly to/from std::uint64_t so existing code
 * (`config.seed = 7`, `config.seed * 3 + 1`) keeps working, but any
 * assignment — even of the default value 42 — flips explicitlySet.
 * Consumers that want to stamp their own seed only when the user left
 * the default (e.g. exp::CampaignRunner's per-trial derived seeds)
 * check explicitlySet instead of comparing against the default value,
 * which misfired for factories that deliberately chose 42.
 */
struct Seed
{
    constexpr Seed() = default;
    constexpr Seed(std::uint64_t v) : value(v), explicitlySet(true) {}

    constexpr Seed &
    operator=(std::uint64_t v)
    {
        value = v;
        explicitlySet = true;
        return *this;
    }

    constexpr operator std::uint64_t() const { return value; }

    std::uint64_t value = 42;
    bool explicitlySet = false;
};

/** Aggregate configuration of the whole machine. */
struct MachineConfig
{
    std::uint64_t physMemBytes = std::uint64_t{1} << 32;
    mem::MemConfig mem;
    vm::MmuConfig mmu;
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
    Seed seed;
    /**
     * Event-driven fast-forward: Machine::run/runUntil jump the clock
     * over provably inert cycles (the minimum of every component's
     * nextEventCycle()) instead of ticking one by one.  Results are
     * bit-identical either way (see DESIGN.md §10); off exists for
     * differential testing and debugging.
     */
    bool fastForward = true;
};

/**
 * Structural equality of two configs: every knob except the seed.
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

    /**
     * Construct a machine whose state equals @p snap (DESIGN.md §12).
     * Pages are shared copy-on-write with the snapshot; everything
     * else is copied.  Panics on an invalid (moved-from) snapshot.
     */
    explicit Machine(const Snapshot &snap);

    mem::PhysMem &mem() { return mem_; }
    mem::Hierarchy &hierarchy() { return hierarchy_; }
    vm::Mmu &mmu() { return mmu_; }
    cpu::Core &core() { return core_; }
    Kernel &kernel() { return kernel_; }
    const MachineConfig &config() const { return config_; }

    /** The machine's fault injector (inert for an empty plan). */
    fault::FaultInjector &faults() { return faults_; }
    const fault::FaultInjector &faults() const { return faults_; }

    /** Advance one cycle (scheduled faults due now fire first). */
    void
    tick()
    {
        if (faults_.active())
            faults_.poll(core_.cycle());
        core_.tick();
    }

    /** Current cycle. */
    Cycles cycle() const { return core_.cycle(); }

    /**
     * Advance exactly @p n cycles.  With config().fastForward this
     * elides inert cycles via nextEventCycle() but lands on exactly
     * the same state a cycle-by-cycle run would reach.
     */
    void run(Cycles n);

    /**
     * Tick until context @p ctx halts or @p max_cycles pass.
     * @return true if the context halted.
     */
    bool runUntilHalted(unsigned ctx, Cycles max_cycles);

    /**
     * Tick until @p pred() holds or @p max_cycles pass.
     *
     * @p pred must be a pure function of machine state (stats,
     * registers, memory, context states) — not of the raw cycle
     * counter — so that it cannot flip during a span of cycles the
     * fast-forward path proves inert.  Every predicate in the tree
     * satisfies this today (they test halted()/stat counters).
     */
    bool runUntil(const std::function<bool()> &pred, Cycles max_cycles);

    /**
     * Earliest cycle at which ticking can change architectural or
     * stats state: the minimum of every time-holding component's
     * nextEventCycle() (core in-flight ops; the fault injector's next
     * scheduled injection; the walker, hierarchy and kernel are
     * synchronous today and report kNoEventCycle — the hooks are the
     * plug-in points for future MSHR/async-fill models).
     * kNoEventCycle when nothing is in flight anywhere.
     */
    Cycles nextEventCycle() const;

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
};

/**
 * A frozen Machine state (DESIGN.md §12): the product of
 * Machine::snapshot(), consumed by Machine(const Snapshot&) and
 * Machine::restoreFrom().  Internally a full state-clone machine that
 * is never ticked; it COW-shares pages with the machine it was taken
 * from and with every fork, so holding one is cheap.  Move-only.
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
