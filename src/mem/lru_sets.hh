/**
 * @file
 * The set-associative true-LRU array behind mem::Cache, vm::Tlb and
 * vm::Pwc, with the copy-what-differs rule (DESIGN.md §17).
 */

#ifndef USCOPE_MEM_LRU_SETS_HH
#define USCOPE_MEM_LRU_SETS_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "mem/versioned_table.hh"

namespace uscope::mem
{

/** The payload of a way that holds nothing beyond its key. */
struct NoPayload
{
};

/**
 * Sets of 1 to 64 ways, each way a @p Key, a @p Payload and an LRU
 * stamp, with a mask of valid ways and a version id per set.  Every
 * change to a set takes it a fresh id; a set never filled is at id 0,
 * and its ways and mask are neither written nor read.  A
 * class-type Key or Payload mixes into digest() through an
 * fnv1aMix(h, value) found by ADL.
 */
template <typename Key, typename Payload = NoPayload>
class LruSets
{
  public:
    /** Trivial, so the ways can be allocated uninitialised. */
    struct Way
    {
        Key key;
        [[no_unique_address]] Payload payload;
        std::uint64_t stamp;
    };
    static_assert(std::is_trivial_v<Way>);

    /** @p entries ways in sets of @p assoc; fatal, naming @p name,
     *  unless that is a power-of-two number of sets of 1 to 64. */
    LruSets(const std::string &name, std::uint64_t entries, unsigned assoc)
        : numSets_(setsFor(name, entries, assoc)), assoc_(assoc),
          ways_(std::make_unique_for_overwrite<Way[]>(entries)),
          valid_(std::make_unique_for_overwrite<std::uint64_t[]>(numSets_))
    {
        ver_.cover(numSets_);
    }

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    /** The valid way of @p set holding @p key, or null. */
    const Way *find(unsigned set, const Key &key) const
    {
        if (ver_[set] == 0)
            return nullptr;
        for (std::uint64_t m = valid_[set]; m != 0; m &= m - 1)
            if (setBase(set)[std::countr_zero(m)].key == key)
                return &setBase(set)[std::countr_zero(m)];
        return nullptr;
    }

    /** As find(), and a hit becomes the most recent way. */
    const Way *lookup(unsigned set, const Key &key)
    {
        Way *way = const_cast<Way *>(find(set, key));
        if (way)
            touch(set, *way);
        return way;
    }

    /**
     * Make @p key, holding @p payload, the most recent way of @p set:
     * in place if resident, else in the first invalid way, else in
     * the least recent one.  @return The valid key evicted, if any.
     */
    std::optional<Key> insert(unsigned set, const Key &key,
                              const Payload &payload = {})
    {
        Way *way = const_cast<Way *>(find(set, key));
        std::optional<Key> evicted;
        if (!way) {
            if (ver_[set] == 0)
                valid_[set] = 0;
            Way *base = setBase(set);
            const std::uint64_t free = ~valid_[set] & (~0ull >> (64 - assoc_));
            way = base + (free != 0 ? std::countr_zero(free) : 0);
            for (unsigned w = 1; free == 0 && w < assoc_; ++w)
                if (base[w].stamp < way->stamp)
                    way = &base[w];
            if (free == 0)
                evicted = way->key;
            valid_[set] |= 1ull << (way - base);
            way->key = key;
        }
        way->payload = payload;
        touch(set, *way);
        return evicted;
    }

    /** Drop @p key from @p set.  @return true if it was there. */
    bool invalidate(unsigned set, const Key &key)
    {
        const Way *way = find(set, key);
        if (way)
            drop(set, 1ull << (way - setBase(set)));
        return way != nullptr;
    }

    /** Drop every valid way for which @p pred(way) holds.
     *  @return The number of ways dropped. */
    template <typename Pred>
    std::size_t invalidateIf(Pred &&pred)
    {
        std::size_t dropped = 0;
        for (unsigned set = 0; set < numSets_; ++set) {
            std::uint64_t gone = 0;
            for (std::uint64_t m = ver_[set] ? valid_[set] : 0; m; m &= m - 1)
                if (pred(setBase(set)[std::countr_zero(m)]))
                    gone |= m & -m;
            dropped += std::popcount(gone);
            if (gone != 0)
                drop(set, gone);
        }
        return dropped;
    }

    /** Way @p way of @p set if it is valid, else null. */
    const Way *resident(unsigned set, unsigned way) const
    {
        const bool valid = ver_[set] != 0 && (valid_[set] >> way & 1);
        return valid ? &setBase(set)[way] : nullptr;
    }

    std::size_t occupancy() const
    {
        std::size_t n = 0;
        for (unsigned set = 0; set < numSets_; ++set)
            n += ver_[set] != 0 ? std::popcount(valid_[set]) : 0;
        return n;
    }

    /** Adopt @p other's ways and LRU clock, copying only the sets
     *  whose ids differ.  Panics unless the geometries match. */
    void copyFrom(const LruSets &other)
    {
        if (numSets_ != other.numSets_ || assoc_ != other.assoc_)
            panic("LruSets: copy a %ux%u array into %ux%u",
                  other.numSets_, other.assoc_, numSets_, assoc_);
        setsCopied_ += ver_.copyFrom(
            other.ver_, [&](std::size_t set, std::uint64_t theirs) {
                if (theirs == 0)
                    return;
                // Bytes: ways never filled hold no values yet.
                std::memcpy(setBase(set), other.setBase(set),
                            sizeof(Way) * assoc_);
                valid_[set] = other.valid_[set];
            });
        clock_ = other.clock_;
    }

    /** Sets copyFrom found differing since construction. */
    std::uint64_t setsCopied() const { return setsCopied_; }

    /** Fold every way (valid, key, payload, stamp; an invalid way as
     *  zeros) and the LRU clock into the FNV-1a hash @p h.  Set ids
     *  are bookkeeping and stay out. */
    std::uint64_t digest(std::uint64_t h) const
    {
        for (unsigned set = 0; set < numSets_; ++set) {
            for (unsigned w = 0; w < assoc_; ++w) {
                const Way *valid = resident(set, w);
                const Way way = valid ? *valid : Way{};
                h = fnv1aMix(fnv1aMix(h, valid != nullptr), way.key);
                if constexpr (!std::is_empty_v<Payload>)
                    h = fnv1aMix(h, way.payload);
                h = fnv1aMix(h, way.stamp);
            }
        }
        return fnv1aMix(h, clock_);
    }

  private:
    static unsigned setsFor(const std::string &name, std::uint64_t entries,
                            unsigned assoc)
    {
        if (assoc == 0 || assoc > 64 || entries % assoc != 0 ||
            !isPowerOf2(entries / assoc))
            fatal("%s: %llu entries are no power-of-two number of sets "
                  "of %u ways (1 to 64)", name.c_str(),
                  static_cast<unsigned long long>(entries), assoc);
        return static_cast<unsigned>(entries / assoc);
    }

    Way *setBase(unsigned set) const
    {
        return &ways_[static_cast<std::size_t>(set) * assoc_];
    }

    void touch(unsigned set, Way &way)
    {
        way.stamp = ++clock_;
        ver_.touch(set);
    }

    void drop(unsigned set, std::uint64_t mask)
    {
        valid_[set] &= ~mask;
        ver_.touch(set);
    }

    unsigned numSets_;
    unsigned assoc_;
    std::unique_ptr<Way[]> ways_;   ///< row-major by set.
    /** Bit w of a set's mask: way w is valid.  Meaningful only at a
     *  nonzero id. */
    std::unique_ptr<std::uint64_t[]> valid_;
    VersionedTable<std::uint64_t, 0> ver_;
    std::uint64_t clock_ = 0;    ///< monotonic stamp source for LRU.
    std::uint64_t setsCopied_ = 0;
};

} // namespace uscope::mem

#endif // USCOPE_MEM_LRU_SETS_HH
