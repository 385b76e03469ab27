/**
 * @file
 * Translation lookaside buffers (paper Figure 1).
 *
 * Set-associative, tagged by {VPN, PCID}, true LRU per set.  The MMU
 * composes an L1 DTLB and a larger, slower L2 TLB.  The kernel keeps
 * them coherent with INVLPG-style selective invalidation — the
 * operation MicroScope performs on the replay handle's translation
 * before every replay.
 */

#ifndef USCOPE_VM_TLB_HH
#define USCOPE_VM_TLB_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/random.hh"
#include "common/types.hh"
#include "mem/lru_sets.hh"

namespace uscope::vm
{

/** A cached translation (trivial: it is a TLB way's payload). */
struct TlbEntry
{
    Ppn ppn;
    std::uint64_t flags;   ///< Leaf pte flags at fill time.

    friend std::uint64_t fnv1aMix(std::uint64_t h, const TlbEntry &e)
    {
        return uscope::fnv1aMix(uscope::fnv1aMix(h, e.ppn), e.flags);
    }
};

/** TLB hit/miss/invalidation counters. */
struct TlbStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;
};

/** One set-associative TLB. */
class Tlb
{
  public:
    /**
     * @param name    Name for stats ("L1-DTLB", "L2-TLB").
     * @param entries Total entry count (power of two per set count).
     * @param assoc   Ways per set (1 to 64).
     */
    Tlb(std::string name, unsigned entries, unsigned assoc)
        : name_(std::move(name)), sets_(name_, entries, assoc)
    {
    }

    const std::string &name() const { return name_; }

    /** Look up {vpn, pcid}; refresh LRU on hit. */
    std::optional<TlbEntry> lookup(Vpn vpn, Pcid pcid)
    {
        const auto *way = sets_.lookup(setOf(vpn), {vpn, pcid});
        ++(way ? stats_.hits : stats_.misses);
        return way ? std::optional(way->payload) : std::nullopt;
    }

    /** Probe without touching LRU or stats. */
    std::optional<TlbEntry> peek(Vpn vpn, Pcid pcid) const
    {
        const auto *way = sets_.find(setOf(vpn), {vpn, pcid});
        return way ? std::optional(way->payload) : std::nullopt;
    }

    /** Install a translation, evicting LRU within the set if needed. */
    void insert(Vpn vpn, Pcid pcid, const TlbEntry &entry)
    {
        sets_.insert(setOf(vpn), {vpn, pcid}, entry);
    }

    /** INVLPG: drop one translation.  @return true if it was cached. */
    bool invalidate(Vpn vpn, Pcid pcid)
    {
        const bool hit = sets_.invalidate(setOf(vpn), {vpn, pcid});
        stats_.invalidations += hit;
        return hit;
    }

    /** Drop every translation for one PCID (MOV-to-CR3 semantics). */
    void invalidatePcid(Pcid pcid)
    {
        stats_.invalidations += sets_.invalidateIf(
            [pcid](const auto &way) { return way.key.pcid == pcid; });
    }

    /** Drop everything. */
    void invalidateAll()
    {
        stats_.invalidations +=
            sets_.invalidateIf([](const auto &) { return true; });
    }

    std::size_t occupancy() const { return sets_.occupancy(); }
    const TlbStats &stats() const { return stats_; }

    /**
     * Adopt @p other's ways, LRU clock, and stats (snapshot forking,
     * DESIGN.md §12), copying only the sets whose version ids differ
     * (§17).  Panics unless both TLBs share one geometry.
     */
    void copyStateFrom(const Tlb &other)
    {
        sets_.copyFrom(other.sets_);
        stats_ = other.stats_;
    }

    /** Sets copyStateFrom found differing since construction
     *  (observability/tests). */
    std::uint64_t setsCopied() const { return sets_.setsCopied(); }

    /** FNV-1a digest of the ways, LRU clock and stats (tests). */
    std::uint64_t stateDigest() const
    {
        std::uint64_t h = sets_.digest(kFnv1aBasis);
        for (std::uint64_t v : {stats_.hits, stats_.misses,
                                stats_.invalidations})
            h = fnv1aMix(h, v);
        return h;
    }

  private:
    struct Key
    {
        Vpn vpn;
        Pcid pcid;

        bool operator==(const Key &) const = default;
        friend std::uint64_t fnv1aMix(std::uint64_t h, const Key &k)
        {
            return uscope::fnv1aMix(uscope::fnv1aMix(h, k.vpn), k.pcid);
        }
    };

    unsigned setOf(Vpn vpn) const
    {
        return static_cast<unsigned>(vpn & (sets_.numSets() - 1));
    }

    std::string name_;
    mem::LruSets<Key, TlbEntry> sets_;
    TlbStats stats_;
};

} // namespace uscope::vm

#endif // USCOPE_VM_TLB_HH
