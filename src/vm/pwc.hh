/**
 * @file
 * Page-Walk Cache: caches translations of the three *upper* page-table
 * levels (PGD/PUD/PMD) so a walk can skip straight to a lower level
 * (paper §2.1).  MicroScope flushes matching entries before every
 * replay so the walk re-fetches every level from wherever the Replayer
 * staged them in the cache hierarchy.
 */

#ifndef USCOPE_VM_PWC_HH
#define USCOPE_VM_PWC_HH

#include <cstdint>
#include <list>
#include <optional>

#include "common/types.hh"
#include "vm/paging.hh"

namespace uscope::vm
{

/** A PWC hit: resume the walk below @p level using table @p tablePa. */
struct PwcHit
{
    /** Deepest upper level whose entry was cached. */
    Level level;
    /** Physical base of the next-level table to index. */
    PAddr tablePa;
};

/**
 * Fully-associative LRU page-walk cache.  Entries are keyed by
 * {pcid, level, va-prefix}; a hit at level L means the walk may skip
 * levels 0..L and start by indexing the table at tablePa.
 */
class Pwc
{
  public:
    explicit Pwc(unsigned capacity = 32);

    /** Deepest usable cached level for @p va, refreshing LRU. */
    std::optional<PwcHit> lookup(VAddr va, Pcid pcid);

    /**
     * Record that the upper-level entry at @p level for @p va points
     * at the next-level table based at @p table_pa.
     */
    void insert(VAddr va, Pcid pcid, Level level, PAddr table_pa);

    /** Drop every entry covering the page of @p va for @p pcid. */
    void invalidate(VAddr va, Pcid pcid);

    /** Drop everything. */
    void invalidateAll();

    std::size_t occupancy() const { return entries_.size(); }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /**
     * Adopt @p other's entries and counters (snapshot forking,
     * DESIGN.md §12).  Both PWCs must share the same capacity.
     */
    void copyStateFrom(const Pwc &other)
    {
        entries_ = other.entries_;
        hits_ = other.hits_;
        misses_ = other.misses_;
    }

  private:
    struct Entry
    {
        Pcid pcid;
        Level level;
        std::uint64_t prefix;  ///< VA bits 47..(39 - 9*level).
        PAddr tablePa;
    };

    static std::uint64_t prefixOf(VAddr va, Level level);

    unsigned capacity_;
    std::list<Entry> entries_;  ///< Front = most recent.
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace uscope::vm

#endif // USCOPE_VM_PWC_HH
