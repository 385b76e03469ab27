#include "vm/walker.hh"

#include "obs/metrics.hh"

namespace uscope::vm
{

Walker::Walker(mem::PhysMem &mem, mem::Hierarchy &hierarchy, Pwc &pwc)
    : mem_(mem), hierarchy_(hierarchy), pwc_(pwc)
{
}

WalkResult
Walker::walk(VAddr va, Pcid pcid, PAddr root)
{
    WalkResult result;
    ++stats_.walks;

    unsigned level = 0;
    PAddr table = root;
    if (auto hit = pwc_.lookup(va, pcid)) {
        level = static_cast<unsigned>(hit->level) + 1;
        table = hit->tablePa;
    }
    result.startLevel = static_cast<Level>(level);

    // The walk is atomic in simulated time: the core clock holds still
    // while the walk charges its total latency.  Trace events are
    // stamped at start + accumulated-latency so the walk renders as a
    // span whose width is the latency the Replayer tuned.
    const bool traced = obs::tracing(obs_);
    const std::uint64_t start = traced ? obs_->trace.now() : 0;
    if (traced)
        obs_->trace.record(obs::EventKind::WalkStart,
                           static_cast<std::uint8_t>(level), 0, va);

    for (; level < numLevels; ++level) {
        const PAddr entry_pa =
            table + 8ull * levelIndex(va, static_cast<Level>(level));

        const mem::AccessResult mem_access = hierarchy_.access(entry_pa);
        result.latency += mem_access.latency + kWalkStepCost;
        ++result.ptFetches;
        ++stats_.ptFetches;
        if (traced)
            obs_->trace.recordAt(
                start + result.latency, obs::EventKind::WalkStep,
                static_cast<std::uint8_t>(level),
                static_cast<std::uint16_t>(mem_access.latency),
                entry_pa);

        const std::uint64_t entry = mem_.read64(entry_pa);

        if (!(entry & pte::present)) {
            // Leaf with present clear (the MicroScope case) or a hole
            // in the tree: either way, raise a page fault.
            result.fault = true;
            ++stats_.faults;
            break;
        }

        if (level == numLevels - 1) {
            // Real MMUs set the Accessed bit when they walk to a
            // leaf; Sneaky Page Monitoring (§2.4 [58]) watches it.
            if (!(entry & pte::accessed))
                mem_.write64(entry_pa, entry | pte::accessed);
            result.entry = TlbEntry{entryPpn(entry), entry & ~pte::frameMask};
            break;
        }

        table = entryPpn(entry) << pageShift;
        pwc_.insert(va, pcid, static_cast<Level>(level), table);
    }

    latency_.add(static_cast<double>(result.latency));
    if (traced)
        obs_->trace.recordAt(start + result.latency,
                             obs::EventKind::WalkEnd, result.fault,
                             static_cast<std::uint16_t>(result.latency),
                             va);
    return result;
}

void
Walker::exportMetrics(obs::MetricRegistry &registry) const
{
    static const obs::MetricName walks{"vm.walker.walks"};
    static const obs::MetricName faults{"vm.walker.faults"};
    static const obs::MetricName steps{"vm.walker.steps"};
    static const obs::MetricName latency{"vm.walker.latency"};
    registry.counter(walks).set(stats_.walks);
    registry.counter(faults).set(stats_.faults);
    registry.counter(steps).set(stats_.ptFetches);
    registry.latency(latency).fold(latency_);
}

} // namespace uscope::vm
