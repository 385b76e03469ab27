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
#include <optional>

#include "common/random.hh"
#include "common/types.hh"
#include "mem/lru_sets.hh"
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

constexpr unsigned kPwcCapacity = 32;  ///< The modelled core's PWC.

/**
 * Fully-associative LRU page-walk cache: one LRU set of @p capacity
 * ways.  Entries are keyed by {pcid, level, va-prefix}; a hit at
 * level L means the walk may skip levels 0..L and start by indexing
 * the table at tablePa.
 */
class Pwc
{
  public:
    explicit Pwc(unsigned capacity = kPwcCapacity) : sets_("PWC", capacity, capacity)
    {
    }

    /** Deepest usable cached level for @p va (PMD, then PUD, then
     *  PGD), refreshing the hit's LRU stamp alone. */
    std::optional<PwcHit> lookup(VAddr va, Pcid pcid)
    {
        for (Level level : {Level::Pmd, Level::Pud, Level::Pgd}) {
            if (const auto *way = sets_.lookup(0, keyOf(va, pcid, level))) {
                ++hits_;
                return PwcHit{level, way->payload};
            }
        }
        ++misses_;
        return std::nullopt;
    }

    /**
     * Record that the upper-level entry at @p level for @p va points
     * at the next-level table based at @p table_pa.
     */
    void insert(VAddr va, Pcid pcid, Level level, PAddr table_pa)
    {
        sets_.insert(0, keyOf(va, pcid, level), table_pa);
    }

    /** Drop the three entries covering the page of @p va for
     *  @p pcid. */
    void invalidate(VAddr va, Pcid pcid)
    {
        for (Level level : {Level::Pgd, Level::Pud, Level::Pmd})
            sets_.invalidate(0, keyOf(va, pcid, level));
    }

    /** Drop everything. */
    void invalidateAll()
    {
        sets_.invalidateIf([](const auto &) { return true; });
    }

    std::size_t occupancy() const { return sets_.occupancy(); }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /**
     * Adopt @p other's entries, LRU clock and counters (snapshot
     * forking, DESIGN.md §12), copying nothing when the set's version
     * ids match (§17).  Panics unless both PWCs share one capacity.
     */
    void copyStateFrom(const Pwc &other)
    {
        sets_.copyFrom(other.sets_);
        hits_ = other.hits_;
        misses_ = other.misses_;
    }

    /** Sets copyStateFrom found differing since construction
     *  (observability/tests). */
    std::uint64_t setsCopied() const { return sets_.setsCopied(); }

    /** FNV-1a digest of the entries, LRU clock and counters (tests). */
    std::uint64_t stateDigest() const
    {
        const std::uint64_t h = sets_.digest(kFnv1aBasis);
        return fnv1aMix(fnv1aMix(h, hits_), misses_);
    }

  private:
    struct Key
    {
        std::uint64_t prefix;  ///< VA bits 47..(39 - 9*level).
        Pcid pcid;
        Level level;

        bool operator==(const Key &) const = default;
        friend std::uint64_t fnv1aMix(std::uint64_t h, const Key &k)
        {
            h = uscope::fnv1aMix(h, k.prefix);
            h = uscope::fnv1aMix(h, k.pcid);
            return uscope::fnv1aMix(h, static_cast<unsigned>(k.level));
        }
    };

    /** The prefix covering levels 0..@p level is VA bits 47 down to
     *  the low bit of that level's index field. */
    static Key keyOf(VAddr va, Pcid pcid, Level level)
    {
        return {va >> (39 - 9 * static_cast<unsigned>(level)), pcid, level};
    }

    /** One set; a way's payload is the next-level table's base. */
    mem::LruSets<Key, PAddr> sets_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace uscope::vm

#endif // USCOPE_VM_PWC_HH
