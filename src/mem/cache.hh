/**
 * @file
 * A single set-associative cache level with true-LRU replacement.
 *
 * The cache tracks presence only — data always lives in PhysMem — which
 * is all the timing model and the side channels need.  The hierarchy
 * (mem/hierarchy.hh) composes three of these plus DRAM.
 */

#ifndef USCOPE_MEM_CACHE_HH
#define USCOPE_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hh"
#include "mem/lru_sets.hh"

namespace uscope::mem
{

/** Aggregate hit/miss/eviction counters for one cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
};

/**
 * Set-associative cache of 64-byte lines, physically indexed and
 * tagged, with true LRU within each set.
 */
class Cache
{
  public:
    /**
     * @param name  Name used in stats dumps ("L1D", "L2", "L3").
     * @param size  Capacity in bytes.
     * @param assoc Associativity (ways per set, 1 to 64).
     */
    Cache(std::string name, std::uint64_t size, unsigned assoc)
        : name_(std::move(name)),
          sets_(name_, size % lineSize == 0 ? size / lineSize : 0, assoc),
          setShift_(log2i(sets_.numSets()))
    {
    }

    const std::string &name() const { return name_; }
    unsigned numSets() const { return sets_.numSets(); }
    unsigned assoc() const { return sets_.assoc(); }

    /** True if the line holding @p addr is present (no LRU update). */
    bool contains(PAddr addr) const
    {
        return sets_.find(setIndex(addr), tagOf(addr)) != nullptr;
    }

    /**
     * Access the line holding @p addr.  On a hit, refresh LRU and
     * return true.  On a miss, return false and leave the set
     * unchanged (call insert() to fill).
     */
    bool access(PAddr addr)
    {
        const bool hit = sets_.lookup(setIndex(addr), tagOf(addr));
        ++(hit ? stats_.hits : stats_.misses);
        return hit;
    }

    /**
     * Fill the line holding @p addr, evicting the LRU way if the set
     * is full.
     *
     * @return Base address of the evicted line, if any.
     */
    std::optional<PAddr> insert(PAddr addr);

    /** Remove the line holding @p addr.  @return true if it was there. */
    bool invalidate(PAddr addr)
    {
        const bool hit = sets_.invalidate(setIndex(addr), tagOf(addr));
        stats_.invalidations += hit;
        return hit;
    }

    /** Drop every line (e.g., on a simulated WBINVD). */
    void invalidateAll()
    {
        stats_.invalidations +=
            sets_.invalidateIf([](const auto &) { return true; });
    }

    /** Number of valid lines currently resident (tests/stats). */
    std::size_t occupancy() const { return sets_.occupancy(); }

    /** Set index this cache maps @p addr to (for eviction-set tests). */
    unsigned setIndex(PAddr addr) const
    {
        return static_cast<unsigned>(lineNumber(addr) & (numSets() - 1));
    }

    /**
     * Base address of the line resident at (@p set, @p way), or
     * nullopt when that way is invalid.  Lets the fault injector pick
     * a uniformly random victim line for interrupt-residue evictions
     * without walking tags itself.
     */
    std::optional<PAddr> residentLine(unsigned set, unsigned way) const;

    const CacheStats &stats() const { return stats_; }

    /**
     * Adopt @p other's ways, LRU clock, and stats (snapshot forking,
     * DESIGN.md §12).  Only the sets whose version ids differ are
     * copied (DESIGN.md §17), so a copy costs one compare per leaf of
     * 64 sets plus a scan of each leaf that differs and a way copy
     * per nonempty set that differs.  Panics unless both caches share
     * the same geometry.
     */
    void copyStateFrom(const Cache &other)
    {
        sets_.copyFrom(other.sets_);
        stats_ = other.stats_;
    }

    /** Sets copyStateFrom found differing since construction
     *  (observability/tests). */
    std::uint64_t setsCopied() const { return sets_.setsCopied(); }

    /**
     * FNV-1a digest of the complete mutable state (ways, LRU clock,
     * stats) — the copy-equals-source test oracle.  Set versions are
     * bookkeeping, not state, and stay out of it; an empty set mixes
     * as all-zero ways.
     */
    std::uint64_t stateDigest() const;

  private:
    std::uint64_t tagOf(PAddr addr) const
    {
        return lineNumber(addr) >> setShift_;
    }
    /** Base address of the line with @p tag in @p set. */
    PAddr lineOf(std::uint64_t tag, unsigned set) const
    {
        return ((tag << setShift_) | set) << lineShift;
    }

    std::string name_;
    /** One way per line, keyed by tag. */
    LruSets<std::uint64_t> sets_;
    unsigned setShift_;    ///< log2 of the set count.
    CacheStats stats_;
};

} // namespace uscope::mem

#endif // USCOPE_MEM_CACHE_HH
