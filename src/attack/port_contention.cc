#include "attack/port_contention.hh"

#include <algorithm>

#include "attack/monitor.hh"
#include "attack/victims.hh"
#include "core/microscope.hh"

namespace uscope::attack
{

bool
inferDivides(std::uint64_t above_threshold, unsigned samples)
{
    // The paper observes 4 vs 64 exceedances in 10,000 samples (16x).
    // Call it a divide when exceedances clear 0.2% of the samples —
    // comfortably above the mul path's noise floor, comfortably below
    // the div path's signal.
    return above_threshold * 500 > samples;
}

PortContentionResult
runPortContentionAttack(const PortContentionConfig &config)
{
    os::Machine machine(config.machine);
    auto &kernel = machine.kernel();

    // Victim on SMT context 0, Monitor on its sibling, context 1.
    const VictimImage victim =
        buildControlFlowVictim(kernel, config.victimDivides);
    const MonitorImage monitor =
        buildDivContentionMonitor(kernel, config.samples, config.cont);

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle + 0x20;  // the count++ access
    recipe.confidence = config.replays;
    recipe.walkPlan = ms::PageWalkPlan::longest();
    scope.setRecipe(std::move(recipe));

    // Flush the predictor at "enclave entry", the enclave-boundary
    // countermeasure [12]: it also puts the predictor into a *public*
    // state, which §4.2.3 exploits.
    machine.core().predictor().flush();

    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.program);
    kernel.startOnContext(monitor.pid, 1, monitor.program);

    // One Monitor sample costs on the order of cont * divLatency
    // cycles; budget generously beyond that.
    const Cycles budget =
        Cycles{config.samples} * (config.cont * 100 + 2000) + 1000000;
    machine.runUntil([&]() { return machine.core().halted(1); }, budget);

    PortContentionResult result;
    result.replaysDone = scope.stats().totalReplays;
    result.monitorCompleted = machine.core().halted(1);
    scope.disarm();
    machine.runUntilHalted(0, 1000000);
    result.victimCompleted = machine.core().halted(0);
    result.totalCycles = machine.cycle();

    // The fault layer models the attacker losing measurements (SMT
    // sibling descheduled, buffer overruns): each raw sample passes
    // one deterministic drop draw, so the draw count — and with it
    // the schedule — depends only on the monitor geometry.
    const std::vector<Cycles> raw = readMonitorSamples(kernel, monitor);
    result.samples.reserve(raw.size());
    for (Cycles sample : raw) {
        if (machine.faults().dropMonitorSample())
            ++result.samplesDropped;
        else
            result.samples.push_back(sample);
    }
    for (Cycles sample : result.samples)
        if (sample > config.threshold)
            ++result.aboveThreshold;

    std::vector<Cycles> sorted = result.samples;
    std::sort(sorted.begin(), sorted.end());
    result.medianLatency = sorted.empty() ? 0 : sorted[sorted.size() / 2];
    result.maxLatency = sorted.empty() ? 0 : sorted.back();
    result.inferredDivides = inferDivides(
        result.aboveThreshold,
        static_cast<unsigned>(result.samples.size()));

    obs::MetricRegistry registry;
    machine.exportMetrics(registry);
    scope.exportMetrics(registry);
    result.metrics = registry.snapshot();
    result.events = machine.observer().trace.drain();
    return result;
}

} // namespace uscope::attack
