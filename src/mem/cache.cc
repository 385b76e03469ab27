#include "mem/cache.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace uscope::mem
{

Cache::Cache(std::string name, std::uint64_t size, unsigned assoc)
    : name_(std::move(name)), assoc_(assoc)
{
    if (assoc == 0 || size == 0 || size % (lineSize * assoc) != 0)
        fatal("Cache %s: size %llu not divisible by line*assoc",
              name_.c_str(), static_cast<unsigned long long>(size));
    const std::uint64_t sets = size / (lineSize * assoc);
    if (!isPowerOf2(sets))
        fatal("Cache %s: set count %llu not a power of two",
              name_.c_str(), static_cast<unsigned long long>(sets));
    numSets_ = static_cast<unsigned>(sets);
    ways_ = std::make_unique_for_overwrite<Way[]>(
        static_cast<std::size_t>(numSets_) * assoc_);
    setVer_.cover(numSets_);
}

unsigned
Cache::setIndex(PAddr addr) const
{
    return static_cast<unsigned>(lineNumber(addr) & (numSets_ - 1));
}

std::uint64_t
Cache::tagOf(PAddr addr) const
{
    return lineNumber(addr) / numSets_;
}

Cache::Way *
Cache::findWay(PAddr addr)
{
    const unsigned index = setIndex(addr);
    if (setVer_[index] == 0)
        return nullptr;
    const std::uint64_t tag = tagOf(addr);
    Way *set = &ways_[static_cast<std::size_t>(index) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
        if (set[w].valid && set[w].tag == tag)
            return &set[w];
    return nullptr;
}

const Cache::Way *
Cache::findWay(PAddr addr) const
{
    return const_cast<Cache *>(this)->findWay(addr);
}

bool
Cache::contains(PAddr addr) const
{
    return findWay(addr) != nullptr;
}

bool
Cache::access(PAddr addr)
{
    Way *way = findWay(addr);
    if (way) {
        way->lruStamp = ++clock_;
        setVer_.touch(setIndex(addr));
        ++stats_.hits;
        return true;
    }
    ++stats_.misses;
    return false;
}

std::optional<PAddr>
Cache::insert(PAddr addr)
{
    if (Way *way = findWay(addr)) {
        // Already resident (races between walker and core fills);
        // treat as a touch.
        way->lruStamp = ++clock_;
        setVer_.touch(setIndex(addr));
        return std::nullopt;
    }

    const unsigned set = setIndex(addr);
    Way *set_base = &ways_[static_cast<std::size_t>(set) * assoc_];
    if (setVer_[set] == 0)
        std::fill_n(set_base, assoc_, Way{false, 0, 0});
    Way *victim = nullptr;
    for (unsigned w = 0; w < assoc_; ++w) {
        Way &cand = set_base[w];
        if (!cand.valid) {
            victim = &cand;
            break;
        }
        if (!victim || cand.lruStamp < victim->lruStamp)
            victim = &cand;
    }

    std::optional<PAddr> evicted;
    if (victim->valid) {
        ++stats_.evictions;
        evicted = (victim->tag * numSets_ + set) << lineShift;
    }
    victim->valid = true;
    victim->tag = tagOf(addr);
    victim->lruStamp = ++clock_;
    setVer_.touch(set);
    return evicted;
}

bool
Cache::invalidate(PAddr addr)
{
    if (Way *way = findWay(addr)) {
        way->valid = false;
        setVer_.touch(setIndex(addr));
        ++stats_.invalidations;
        return true;
    }
    return false;
}

void
Cache::invalidateAll()
{
    // An empty set has nothing to drop and stays empty.
    for (unsigned set = 0; set < numSets_; ++set) {
        if (setVer_[set] == 0)
            continue;
        for (unsigned w = 0; w < assoc_; ++w) {
            Way &way = ways_[static_cast<std::size_t>(set) * assoc_ + w];
            stats_.invalidations += way.valid;
            way.valid = false;
        }
        setVer_.touch(set);
    }
}

std::optional<PAddr>
Cache::residentLine(unsigned set, unsigned way) const
{
    if (setVer_[set] == 0)
        return std::nullopt;
    const Way &w = ways_[static_cast<std::size_t>(set) * assoc_ + way];
    if (!w.valid)
        return std::nullopt;
    return (w.tag * numSets_ + set) << lineShift;
}

std::size_t
Cache::occupancy() const
{
    std::size_t n = 0;
    for (unsigned set = 0; set < numSets_; ++set)
        for (unsigned w = 0; setVer_[set] != 0 && w < assoc_; ++w)
            n += ways_[static_cast<std::size_t>(set) * assoc_ + w].valid;
    return n;
}

void
Cache::copyStateFrom(const Cache &other)
{
    if (numSets_ != other.numSets_ || assoc_ != other.assoc_)
        panic("Cache %s: copyStateFrom a %ux%u cache into %ux%u",
              name_.c_str(), other.numSets_, other.assoc_, numSets_,
              assoc_);
    // An empty source set needs no way bytes: id 0 says it all.
    setsCopied_ += setVer_.copyFrom(
        other.setVer_, [&](std::size_t set, std::uint64_t theirs) {
            if (theirs != 0)
                std::copy_n(&other.ways_[set * assoc_], assoc_,
                            &ways_[set * assoc_]);
        });
    clock_ = other.clock_;
    stats_ = other.stats_;
}

std::uint64_t
Cache::stateDigest() const
{
    std::uint64_t h = kFnv1aBasis;
    auto mix = [&h](std::uint64_t v) { h = fnv1aMix(h, v); };
    for (unsigned set = 0; set < numSets_; ++set) {
        for (unsigned w = 0; w < assoc_; ++w) {
            // An empty set digests as the all-zero ways it stands for.
            const Way way = setVer_[set] == 0
                ? Way{false, 0, 0}
                : ways_[static_cast<std::size_t>(set) * assoc_ + w];
            mix(way.valid ? 1 : 0);
            mix(way.tag);
            mix(way.lruStamp);
        }
    }
    mix(clock_);
    mix(stats_.hits);
    mix(stats_.misses);
    mix(stats_.evictions);
    mix(stats_.invalidations);
    return h;
}

} // namespace uscope::mem
