#include "vm/mmu.hh"

#include "obs/metrics.hh"

namespace uscope::vm
{

Mmu::Mmu(mem::PhysMem &mem, mem::Hierarchy &hierarchy)
    : l1Tlb_("L1-DTLB", kL1TlbEntries, kL1TlbAssoc),
      l2Tlb_("L2-TLB", kL2TlbEntries, kL2TlbAssoc),
      pwc_(kPwcCapacity),
      walker_(mem, hierarchy, pwc_)
{
}

TranslateResult
Mmu::translate(VAddr va, Pcid pcid, PAddr root)
{
    TranslateResult result;
    const Vpn vpn = pageNumber(va);
    const std::uint64_t offset = va & pageOffsetMask;

    if (auto entry = l1Tlb_.lookup(vpn, pcid)) {
        result.paddr = (entry->ppn << pageShift) | offset;
        return result;
    }

    if (auto entry = l2Tlb_.lookup(vpn, pcid)) {
        result.latency = kL2TlbLatency;
        l1Tlb_.insert(vpn, pcid, *entry);
        result.paddr = (entry->ppn << pageShift) | offset;
        return result;
    }

    if (obs::tracing(obs_))
        obs_->trace.record(obs::EventKind::TlbMiss, 0, 0, va);

    result.walked = true;
    result.walk = walker_.walk(va, pcid, root);
    result.latency = kL2TlbLatency + result.walk.latency;

    if (result.walk.fault) {
        result.fault = true;
        return result;
    }

    l1Tlb_.insert(vpn, pcid, result.walk.entry);
    l2Tlb_.insert(vpn, pcid, result.walk.entry);
    result.paddr = (result.walk.entry.ppn << pageShift) | offset;
    return result;
}

void
Mmu::invlpg(VAddr va, Pcid pcid)
{
    const Vpn vpn = pageNumber(va);
    l1Tlb_.invalidate(vpn, pcid);
    l2Tlb_.invalidate(vpn, pcid);
}

void
Mmu::flushPwc(VAddr va, Pcid pcid)
{
    pwc_.invalidate(va, pcid);
}

void
Mmu::flushTlbAll()
{
    l1Tlb_.invalidateAll();
    l2Tlb_.invalidateAll();
}

void
Mmu::flushPwcAll()
{
    pwc_.invalidateAll();
}

namespace
{

/** The metric names of one TLB level, under @p prefix. */
struct TlbMetricNames
{
    explicit TlbMetricNames(const std::string &prefix)
        : hits(prefix + ".hits"), misses(prefix + ".misses"),
          invalidations(prefix + ".invalidations")
    {
    }

    obs::MetricName hits, misses, invalidations;
};

void
exportTlb(obs::MetricRegistry &registry, const TlbMetricNames &names,
          const TlbStats &stats)
{
    registry.counter(names.hits).set(stats.hits);
    registry.counter(names.misses).set(stats.misses);
    registry.counter(names.invalidations).set(stats.invalidations);
}

} // anonymous namespace

void
Mmu::exportMetrics(obs::MetricRegistry &registry) const
{
    static const TlbMetricNames l1{"vm.tlb.l1"};
    static const TlbMetricNames l2{"vm.tlb.l2"};
    static const obs::MetricName pwcHits{"vm.pwc.hits"};
    static const obs::MetricName pwcMisses{"vm.pwc.misses"};
    exportTlb(registry, l1, l1Tlb_.stats());
    exportTlb(registry, l2, l2Tlb_.stats());
    registry.counter(pwcHits).set(pwc_.hits());
    registry.counter(pwcMisses).set(pwc_.misses());
    walker_.exportMetrics(registry);
}

} // namespace uscope::vm
