#include "mem/cache.hh"

#include "common/random.hh"

namespace uscope::mem
{

std::optional<PAddr>
Cache::insert(PAddr addr)
{
    // A resident line (races between walker and core fills) is a
    // touch.
    const unsigned set = setIndex(addr);
    const std::optional<std::uint64_t> evicted =
        sets_.insert(set, tagOf(addr));
    if (!evicted)
        return std::nullopt;
    ++stats_.evictions;
    return lineOf(*evicted, set);
}

std::optional<PAddr>
Cache::residentLine(unsigned set, unsigned way) const
{
    if (const auto *w = sets_.resident(set, way))
        return lineOf(w->key, set);
    return std::nullopt;
}

std::uint64_t
Cache::stateDigest() const
{
    std::uint64_t h = sets_.digest(kFnv1aBasis);
    for (std::uint64_t v : {stats_.hits, stats_.misses, stats_.evictions,
                            stats_.invalidations})
        h = fnv1aMix(h, v);
    return h;
}

} // namespace uscope::mem
