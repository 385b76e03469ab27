#include "os/machine.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace uscope::os
{

bool
sameStructure(const MachineConfig &a, const MachineConfig &b)
{
    return a.physMemBytes == b.physMemBytes && a.mem == b.mem &&
           a.mmu == b.mmu && a.core == b.core && a.costs == b.costs &&
           a.obs == b.obs && a.fault == b.fault &&
           a.fastForward == b.fastForward;
}

namespace
{

const MachineConfig &
configOf(const Snapshot &snap)
{
    if (!snap.valid())
        panic("Machine: invalid (empty or moved-from) Snapshot");
    return snap.config();
}

} // namespace

Machine::Machine(const MachineConfig &config)
    : config_(config),
      obs_(config.obs),
      mem_(config.physMemBytes),
      hierarchy_(config.mem, config.seed * 3 + 1),
      mmu_(mem_, hierarchy_, config.mmu),
      core_(mem_, hierarchy_, mmu_, config.core, config.seed * 5 + 2),
      kernel_(mem_, hierarchy_, mmu_, core_, config.costs,
              config.seed * 7 + 3),
      entropy_(config.seed * 11 + 4),
      faults_(config.fault, config.seed * 13 + 5)
{
    core_.setFaultHandler(
        [this](const cpu::FaultInfo &info) { kernel_.handleFault(info); });
    core_.setRdrandSource([this]() { return entropy_.next(); });

    // Wire the observability hub; the core also binds the event clock
    // to its cycle counter.
    hierarchy_.setObserver(&obs_);
    mmu_.setObserver(&obs_);
    core_.setObserver(&obs_);
    kernel_.setObserver(&obs_);

    // Wire the fault layer (all hooks stay unset for an inert plan, so
    // the noiseless hot paths pay nothing).
    faults_.wire(&hierarchy_, &mmu_, &core_, &obs_);
    if (faults_.active()) {
        core_.setIssueJitterHook(
            [this](unsigned ctx) { return faults_.issueJitter(ctx); });
        kernel_.setProbeNoise([this]() { return faults_.probeJitter(); });
    }
}

Machine::Machine(const Snapshot &snap) : Machine(configOf(snap))
{
    copyStateFrom(*snap.frozen_);
}

void
Machine::copyStateFrom(const Machine &other)
{
    if (!sameStructure(config_, other.config_))
        panic("Machine::copyStateFrom: structural config mismatch");
    config_.seed = other.config_.seed;
    mem_.shareStateFrom(other.mem_);
    hierarchy_.copyStateFrom(other.hierarchy_);
    mmu_.copyStateFrom(other.mmu_);
    core_.copyStateFrom(other.core_);
    kernel_.copyStateFrom(other.kernel_);
    entropy_ = other.entropy_;
    faults_.copyStateFrom(other.faults_);
    // A consistent source keeps its pending firing cycles at or after
    // its own cycle, so this is a no-op; it exists so no restore path
    // can ever strand a schedule in the past (one poll() would then
    // deliver the whole catch-up burst at the restored cycle).
    faults_.reanchorAt(core_.cycle());
    obs_.trace.copyStateFrom(other.obs_.trace);
}

Snapshot
Machine::snapshot() const
{
    auto frozen = std::make_unique<Machine>(config_);
    frozen->copyStateFrom(*this);
    return Snapshot(std::move(frozen));
}

void
Machine::restoreFrom(const Snapshot &snap)
{
    if (!snap.valid())
        panic("Machine::restoreFrom: invalid Snapshot");
    copyStateFrom(*snap.frozen_);
}

void
Machine::reseed(std::uint64_t seed)
{
    config_.seed = seed;
    hierarchy_.reseed(config_.seed * 3 + 1);
    core_.reseed(config_.seed * 5 + 2);
    kernel_.reseed(config_.seed * 7 + 3);
    entropy_.seed(config_.seed * 11 + 4);
    faults_.reseedAt(config_.seed * 13 + 5, core_.cycle());
}

Cycles
Machine::nextEventCycle() const
{
    Cycles next = core_.nextEventCycle();
    next = std::min(next, mmu_.walker().nextEventCycle());
    next = std::min(next, hierarchy_.nextEventCycle());
    next = std::min(next, kernel_.nextEventCycle());
    next = std::min(next, faults_.nextEventCycle());
    return next;
}

void
Machine::run(Cycles n)
{
    const Cycles limit = core_.cycle() + n;
    if (!config_.fastForward) {
        while (core_.cycle() < limit)
            tick();
        return;
    }
    while (core_.cycle() < limit) {
        const Cycles next = nextEventCycle();
        if (next > core_.cycle()) {
            // The jump is clamped so callers asking for exactly n
            // cycles (trial budgets!) never overshoot.
            core_.fastForwardTo(std::min(next, limit));
        } else {
            tick();
        }
    }
}

bool
Machine::runUntilHalted(unsigned ctx, Cycles max_cycles)
{
    return runUntil([this, ctx]() { return core_.halted(ctx); },
                    max_cycles);
}

bool
Machine::runUntil(const std::function<bool()> &pred, Cycles max_cycles)
{
    const Cycles limit = core_.cycle() + max_cycles;
    if (!config_.fastForward) {
        while (core_.cycle() < limit) {
            if (pred())
                return true;
            tick();
        }
        return pred();
    }
    while (core_.cycle() < limit) {
        if (pred())
            return true;
        const Cycles next = nextEventCycle();
        if (next > core_.cycle())
            core_.fastForwardTo(std::min(next, limit));
        else
            tick();
    }
    return pred();
}

void
Machine::exportMetrics(obs::MetricRegistry &registry) const
{
    hierarchy_.exportMetrics(registry);
    mmu_.exportMetrics(registry);
    core_.exportMetrics(registry);
    kernel_.exportMetrics(registry);
    faults_.exportMetrics(registry);
    // COW page-sharing telemetry (DESIGN.md §15).  Like obs.trace.*,
    // these count host-side mechanics (how a state was reached, not
    // what it is), so deterministicFingerprint strips the
    // mem.physmem.* prefix.
    registry.counter("mem.physmem.shares_full").set(mem_.sharesFull());
    registry.counter("mem.physmem.shares_fast").set(mem_.sharesFast());
    registry.counter("mem.physmem.rebuild_poisons")
        .set(mem_.rebuildPoisons());
    // Trace-loss accounting (DESIGN.md §14): lets a campaign assert
    // "no events were overwritten" from its MetricSnapshot without
    // parsing trace files.  Only exported while tracing so untraced
    // runs' snapshots are unchanged; deterministicFingerprint filters
    // the obs.trace.* prefix for the same reason.
    if (obs_.trace.enabled()) {
        registry.counter("obs.trace.recorded")
            .set(obs_.trace.totalRecorded());
        registry.counter("obs.trace.dropped").set(obs_.trace.dropped());
    }
}

obs::MetricSnapshot
Machine::metricsSnapshot() const
{
    obs::MetricRegistry registry;
    exportMetrics(registry);
    return registry.snapshot();
}

} // namespace uscope::os
