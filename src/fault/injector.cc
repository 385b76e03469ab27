#include "fault/injector.hh"

#include <algorithm>

#include "common/logging.hh"
#include "cpu/core.hh"
#include "mem/hierarchy.hh"
#include "obs/metrics.hh"
#include "vm/mmu.hh"

namespace uscope::fault
{

namespace
{

/** Site-stream seed: decorrelate (machine seed, site id). */
std::uint64_t
siteSeed(std::uint64_t seed, Site site)
{
    return mix64(mix64(seed) ^
                 mix64(~std::uint64_t{static_cast<unsigned>(site)}));
}

} // namespace

FaultInjector::FaultInjector(const FaultPlan &plan, std::uint64_t seed)
    : plan_(plan),
      active_(plan.enabled()),
      rngInterrupt_(siteSeed(seed, Site::Interrupt)),
      rngPreempt_(siteSeed(seed, Site::Preemption)),
      rngPort_(siteSeed(seed, Site::PortJitter)),
      rngProbe_(siteSeed(seed, Site::ProbeJitter)),
      rngDrop_(siteSeed(seed, Site::SampleDrop))
{
    if (plan_.interruptMeanGap)
        nextInterrupt_ = gapDraw(rngInterrupt_, plan_.interruptMeanGap);
    if (plan_.preemptMeanGap)
        nextPreempt_ = gapDraw(rngPreempt_, plan_.preemptMeanGap);
}

void
FaultInjector::copyStateFrom(const FaultInjector &other)
{
    rngInterrupt_ = other.rngInterrupt_;
    rngPreempt_ = other.rngPreempt_;
    rngPort_ = other.rngPort_;
    rngProbe_ = other.rngProbe_;
    rngDrop_ = other.rngDrop_;
    nextInterrupt_ = other.nextInterrupt_;
    nextPreempt_ = other.nextPreempt_;
    stats_ = other.stats_;
}

void
FaultInjector::reseedAt(std::uint64_t seed, Cycles now)
{
    rngInterrupt_.seed(siteSeed(seed, Site::Interrupt));
    rngPreempt_.seed(siteSeed(seed, Site::Preemption));
    rngPort_.seed(siteSeed(seed, Site::PortJitter));
    rngProbe_.seed(siteSeed(seed, Site::ProbeJitter));
    rngDrop_.seed(siteSeed(seed, Site::SampleDrop));
    // Re-draw the schedules from the new streams, anchored at `now`
    // (the constructor is the now == 0 special case).
    nextInterrupt_ = plan_.interruptMeanGap
                         ? now + gapDraw(rngInterrupt_,
                                         plan_.interruptMeanGap)
                         : kNoEventCycle;
    nextPreempt_ = plan_.preemptMeanGap
                       ? now + gapDraw(rngPreempt_, plan_.preemptMeanGap)
                       : kNoEventCycle;
}

void
FaultInjector::reanchorAt(Cycles now)
{
    if (!active_)
        return;
    if (nextInterrupt_ != kNoEventCycle && nextInterrupt_ < now)
        nextInterrupt_ =
            now + gapDraw(rngInterrupt_, plan_.interruptMeanGap);
    if (nextPreempt_ != kNoEventCycle && nextPreempt_ < now)
        nextPreempt_ = now + gapDraw(rngPreempt_, plan_.preemptMeanGap);
}

void
FaultInjector::wire(mem::Hierarchy *hierarchy, vm::Mmu *mmu,
                    cpu::Core *core, obs::Observer *observer)
{
    hierarchy_ = hierarchy;
    mmu_ = mmu;
    core_ = core;
    obs_ = observer;
}

Cycles
FaultInjector::gapDraw(Rng &rng, Cycles mean_gap)
{
    const Cycles gap = rng.range(mean_gap / 2, mean_gap + mean_gap / 2);
    return gap ? gap : 1;
}

Cycles
FaultInjector::nextEventCycle() const
{
    return std::min(nextInterrupt_, nextPreempt_);
}

void
FaultInjector::poll(Cycles now)
{
    if (!active_)
        return;
    // Each schedule advances by a fresh gap after firing; the loops
    // catch up if the machine was driven past a firing cycle by a
    // caller that bypassed the run loop (raw tick() users).
    while (nextInterrupt_ <= now) {
        fireInterrupt(nextInterrupt_);
        nextInterrupt_ += gapDraw(rngInterrupt_, plan_.interruptMeanGap);
    }
    while (nextPreempt_ <= now) {
        firePreemption(nextPreempt_);
        nextPreempt_ += gapDraw(rngPreempt_, plan_.preemptMeanGap);
    }
}

void
FaultInjector::fireInterrupt(Cycles at)
{
    (void)at;  // The trace clock is bound to the core's cycle counter.
    ++stats_.interrupts;

    unsigned evicted = 0;
    PAddr last_line = 0;
    if (hierarchy_) {
        // The residue an interrupt handler leaves behind: a handful of
        // random L3 lines displaced (inclusive hierarchy, so L1/L2
        // copies go too).  The (set, way) draws happen whether or not
        // the way is resident, keeping the stream independent of cache
        // content.
        mem::Cache &l3 = hierarchy_->l3();
        for (unsigned n = 0; n < plan_.interruptEvictions; ++n) {
            const auto set =
                static_cast<unsigned>(rngInterrupt_.below(l3.numSets()));
            const auto way =
                static_cast<unsigned>(rngInterrupt_.below(l3.assoc()));
            const std::optional<PAddr> line = l3.residentLine(set, way);
            if (!line)
                continue;
            hierarchy_->flushLine(*line);
            if (core_)
                core_->notifyLineEvicted(*line);
            last_line = *line;
            ++evicted;
        }
        stats_.linesEvicted += evicted;
    }
    if (mmu_) {
        mmu_->flushTlbAll();
        ++stats_.tlbShootdowns;
        mmu_->flushPwcAll();
        ++stats_.pwcShootdowns;
    }

    trace(Site::Interrupt, static_cast<std::uint16_t>(evicted),
          last_line);
}

void
FaultInjector::firePreemption(Cycles at)
{
    (void)at;
    // The victim context is drawn even when the core is absent or the
    // context turns out idle, so the schedule stream never depends on
    // machine occupancy.
    const unsigned num_ctx = core_ ? cpu::kNumContexts : 1;
    const auto ctx = static_cast<unsigned>(rngPreempt_.below(num_ctx));
    ++stats_.preemptions;
    if (core_)
        core_->preemptContext(ctx, kPreemptPenalty);
    trace(Site::Preemption, static_cast<std::uint16_t>(ctx),
          kPreemptPenalty);
}

Cycles
FaultInjector::issueJitter(unsigned ctx)
{
    if (plan_.portJitterRate <= 0.0 || plan_.portJitterMax == 0)
        return 0;
    if (!rngPort_.chance(plan_.portJitterRate))
        return 0;
    const Cycles extra = rngPort_.range(1, plan_.portJitterMax);
    ++stats_.portJitterEvents;
    stats_.portJitterCycles += extra;
    trace(Site::PortJitter, static_cast<std::uint16_t>(extra), ctx);
    return extra;
}

Cycles
FaultInjector::probeJitter()
{
    if (plan_.probeJitterMax == 0)
        return 0;
    const Cycles extra = rngProbe_.range(0, plan_.probeJitterMax);
    if (extra == 0)
        return 0;
    ++stats_.probeJitterEvents;
    stats_.probeJitterCycles += extra;
    trace(Site::ProbeJitter, static_cast<std::uint16_t>(extra), 0);
    return extra;
}

bool
FaultInjector::dropMonitorSample()
{
    if (plan_.sampleDropRate <= 0.0)
        return false;
    if (!rngDrop_.chance(plan_.sampleDropRate))
        return false;
    ++stats_.samplesDropped;
    trace(Site::SampleDrop, 1, 0);
    return true;
}

void
FaultInjector::trace(Site site, std::uint16_t b, std::uint64_t addr)
{
    if (obs::tracing(obs_))
        obs_->trace.record(obs::EventKind::FaultInject,
                           static_cast<std::uint8_t>(site), b, addr);
}

void
FaultInjector::exportMetrics(obs::MetricRegistry &registry) const
{
    static const obs::MetricName interrupts{"fault.interrupts"};
    static const obs::MetricName linesEvicted{"fault.interrupt.lines_evicted"};
    static const obs::MetricName tlbShootdowns{
        "fault.interrupt.tlb_shootdowns"};
    static const obs::MetricName pwcShootdowns{
        "fault.interrupt.pwc_shootdowns"};
    static const obs::MetricName preemptions{"fault.preemptions"};
    static const obs::MetricName portJitterEvents{"fault.port_jitter.events"};
    static const obs::MetricName portJitterCycles{"fault.port_jitter.cycles"};
    static const obs::MetricName probeJitterEvents{
        "fault.probe_jitter.events"};
    static const obs::MetricName probeJitterCycles{
        "fault.probe_jitter.cycles"};
    static const obs::MetricName samplesDropped{"fault.samples_dropped"};
    if (!active_)
        return;
    registry.counter(interrupts).set(stats_.interrupts);
    registry.counter(linesEvicted).set(stats_.linesEvicted);
    registry.counter(tlbShootdowns).set(stats_.tlbShootdowns);
    registry.counter(pwcShootdowns).set(stats_.pwcShootdowns);
    registry.counter(preemptions).set(stats_.preemptions);
    registry.counter(portJitterEvents).set(stats_.portJitterEvents);
    registry.counter(portJitterCycles).set(stats_.portJitterCycles);
    registry.counter(probeJitterEvents).set(stats_.probeJitterEvents);
    registry.counter(probeJitterCycles).set(stats_.probeJitterCycles);
    registry.counter(samplesDropped).set(stats_.samplesDropped);
}

} // namespace uscope::fault
