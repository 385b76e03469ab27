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
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"

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
     * @param assoc Associativity (ways per set).
     */
    Cache(std::string name, std::uint64_t size, unsigned assoc);

    const std::string &name() const { return name_; }
    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    /** True if the line holding @p addr is present (no LRU update). */
    bool contains(PAddr addr) const;

    /**
     * Access the line holding @p addr.  On a hit, refresh LRU and
     * return true.  On a miss, return false and leave the set
     * unchanged (call insert() to fill).
     */
    bool access(PAddr addr);

    /**
     * Fill the line holding @p addr, evicting the LRU way if the set
     * is full.
     *
     * @return Base address of the evicted line, if any.
     */
    std::optional<PAddr> insert(PAddr addr);

    /** Remove the line holding @p addr.  @return true if it was there. */
    bool invalidate(PAddr addr);

    /** Drop every line (e.g., on a simulated WBINVD). */
    void invalidateAll();

    /** Number of valid lines currently resident (tests/stats). */
    std::size_t occupancy() const;

    /** Set index this cache maps @p addr to (for eviction-set tests). */
    unsigned setIndex(PAddr addr) const;

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
     * copied (DESIGN.md §17), so a copy costs O(sets) compares plus
     * O(nonempty sets that differ) way copies.  Panics unless both
     * caches share the same geometry.
     */
    void copyStateFrom(const Cache &other);

    /**
     * FNV-1a digest of the complete mutable state (ways, LRU clock,
     * stats) — the copy-equals-source test oracle.  Set versions are
     * bookkeeping, not state, and stay out of it; an empty set mixes
     * as all-zero ways.
     */
    std::uint64_t stateDigest() const;

  private:
    /** Trivial, so a cache's ways can be allocated uninitialised. */
    struct Way
    {
        bool valid;
        std::uint64_t tag;
        std::uint64_t lruStamp;
    };

    /** Give set @p set a fresh version id: its ways just changed. */
    void touchSet(unsigned set);

    std::uint64_t tagOf(PAddr addr) const;
    Way *findWay(PAddr addr);
    const Way *findWay(PAddr addr) const;

    std::string name_;
    unsigned numSets_;
    unsigned assoc_;
    /** numSets_ * assoc_, row-major by set; uninitialised until the
     *  set is first filled (its version id turns nonzero). */
    std::unique_ptr<Way[]> ways_;
    /**
     * One version id per set: equal ids imply equal set contents,
     * across every cache of every thread.  0 is an empty set whose
     * ways are not materialised, as construction leaves every set;
     * every way mutation draws a fresh process-unique id, and
     * copyStateFrom adopts the source's.
     */
    std::vector<std::uint64_t> setVer_;
    std::uint64_t clock_ = 0;    ///< monotonic stamp source for LRU.
    CacheStats stats_;
};

} // namespace uscope::mem

#endif // USCOPE_MEM_CACHE_HH
