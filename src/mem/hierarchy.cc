#include "mem/hierarchy.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace uscope::mem
{

const char *
hitLevelName(HitLevel level)
{
    switch (level) {
      case HitLevel::L1: return "L1";
      case HitLevel::L2: return "L2";
      case HitLevel::L3: return "L3";
      case HitLevel::Dram: return "DRAM";
    }
    return "?";
}

Hierarchy::Hierarchy(const MemConfig &config, std::uint64_t seed)
    : config_(config),
      l1_("L1D", config.l1Size, config.l1Assoc),
      l2_("L2", config.l2Size, config.l2Assoc),
      l3_("L3", config.l3Size, config.l3Assoc),
      rng_(seed)
{
    // DRAM latency is dramLatency +- dramJitter in unsigned cycles.
    if (config.dramJitter > config.dramLatency)
        fatal("Hierarchy: DRAM jitter %llu exceeds DRAM latency %llu",
              static_cast<unsigned long long>(config.dramJitter),
              static_cast<unsigned long long>(config.dramLatency));
}

Cycles
Hierarchy::latencyFor(HitLevel level) const
{
    switch (level) {
      case HitLevel::L1: return kL1Latency;
      case HitLevel::L2: return kL2Latency;
      case HitLevel::L3: return kL3Latency;
      case HitLevel::Dram: return config_.dramLatency;
    }
    return config_.dramLatency;
}

void
Hierarchy::fillLine(PAddr addr, bool into_l1, bool into_l2)
{
    // Fill the inclusive L3 first; an L3 eviction back-invalidates the
    // inner levels so inclusion is preserved.
    if (auto evicted = l3_.insert(addr)) {
        l2_.invalidate(*evicted);
        l1_.invalidate(*evicted);
    }
    if (into_l2)
        l2_.insert(addr);
    if (into_l1)
        l1_.insert(addr);
}

AccessResult
Hierarchy::access(PAddr addr)
{
    AccessResult result;
    if (l1_.access(addr)) {
        result = {HitLevel::L1, kL1Latency};
    } else if (l2_.access(addr)) {
        l1_.insert(addr);
        result = {HitLevel::L2, kL2Latency};
    } else if (l3_.access(addr)) {
        fillLine(addr, true, true);
        result = {HitLevel::L3, kL3Latency};
    } else {
        fillLine(addr, true, true);
        const Cycles jitter = config_.dramJitter
            ? rng_.range(0, 2 * config_.dramJitter)
            : config_.dramJitter;
        result = {HitLevel::Dram,
                  config_.dramLatency - config_.dramJitter + jitter};
    }
    if (obs::tracing(obs_))
        obs_->trace.record(obs::EventKind::CacheAccess,
                           static_cast<std::uint8_t>(result.level),
                           static_cast<std::uint16_t>(result.latency),
                           lineBase(addr));
    return result;
}

HitLevel
Hierarchy::peekLevel(PAddr addr) const
{
    if (l1_.contains(addr))
        return HitLevel::L1;
    if (l2_.contains(addr))
        return HitLevel::L2;
    if (l3_.contains(addr))
        return HitLevel::L3;
    return HitLevel::Dram;
}

void
Hierarchy::flushLine(PAddr addr)
{
    l1_.invalidate(addr);
    l2_.invalidate(addr);
    l3_.invalidate(addr);
}

void
Hierarchy::flushRange(PAddr addr, std::uint64_t len)
{
    const PAddr first = lineBase(addr);
    const PAddr last = lineBase(addr + (len ? len - 1 : 0));
    for (PAddr line = first; line <= last; line += lineSize)
        flushLine(line);
}

void
Hierarchy::installAt(PAddr addr, HitLevel level)
{
    switch (level) {
      case HitLevel::L1:
        fillLine(addr, true, true);
        break;
      case HitLevel::L2:
        l1_.invalidate(addr);
        fillLine(addr, false, true);
        break;
      case HitLevel::L3:
        l1_.invalidate(addr);
        l2_.invalidate(addr);
        fillLine(addr, false, false);
        break;
      case HitLevel::Dram:
        flushLine(addr);
        break;
    }
}

void
Hierarchy::copyStateFrom(const Hierarchy &other)
{
    l1_.copyStateFrom(other.l1_);
    l2_.copyStateFrom(other.l2_);
    l3_.copyStateFrom(other.l3_);
    rng_ = other.rng_;
}

std::uint64_t
Hierarchy::stateDigest() const
{
    std::uint64_t h = kFnv1aBasis;
    for (std::uint64_t d : {l1_.stateDigest(), l2_.stateDigest(),
                            l3_.stateDigest()})
        h = fnv1aMix(h, d);
    return h;
}

namespace
{

/** The metric names of one cache level, under @p prefix. */
struct CacheMetricNames
{
    explicit CacheMetricNames(const std::string &prefix)
        : hits(prefix + ".hits"), misses(prefix + ".misses"),
          evictions(prefix + ".evictions"),
          invalidations(prefix + ".invalidations")
    {
    }

    obs::MetricName hits, misses, evictions, invalidations;
};

void
exportCache(obs::MetricRegistry &registry, const CacheMetricNames &names,
            const CacheStats &stats)
{
    registry.counter(names.hits).set(stats.hits);
    registry.counter(names.misses).set(stats.misses);
    registry.counter(names.evictions).set(stats.evictions);
    registry.counter(names.invalidations).set(stats.invalidations);
}

} // anonymous namespace

void
Hierarchy::exportMetrics(obs::MetricRegistry &registry) const
{
    static const CacheMetricNames l1{"mem.l1d"};
    static const CacheMetricNames l2{"mem.l2"};
    static const CacheMetricNames l3{"mem.l3"};
    exportCache(registry, l1, l1_.stats());
    exportCache(registry, l2, l2_.stats());
    exportCache(registry, l3, l3_.stats());
}

} // namespace uscope::mem
