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
#include <vector>

#include "common/types.hh"

namespace uscope::vm
{

/** A cached translation. */
struct TlbEntry
{
    Ppn ppn = 0;
    std::uint64_t flags = 0;   ///< Leaf pte flags at fill time.
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
     * @param assoc   Ways per set.
     */
    Tlb(std::string name, unsigned entries, unsigned assoc);

    const std::string &name() const { return name_; }

    /** Look up {vpn, pcid}; refresh LRU on hit. */
    std::optional<TlbEntry> lookup(Vpn vpn, Pcid pcid);

    /** Probe without touching LRU or stats. */
    std::optional<TlbEntry> peek(Vpn vpn, Pcid pcid) const;

    /** Install a translation, evicting LRU within the set if needed. */
    void insert(Vpn vpn, Pcid pcid, const TlbEntry &entry);

    /** INVLPG: drop one translation.  @return true if it was cached. */
    bool invalidate(Vpn vpn, Pcid pcid);

    /** Drop every translation for one PCID (MOV-to-CR3 semantics). */
    void invalidatePcid(Pcid pcid);

    /** Drop everything. */
    void invalidateAll();

    std::size_t occupancy() const;
    const TlbStats &stats() const { return stats_; }

    /**
     * Adopt @p other's ways, LRU clock, and stats (snapshot forking,
     * DESIGN.md §12).  Both TLBs must share the same geometry.
     */
    void copyStateFrom(const Tlb &other)
    {
        ways_ = other.ways_;
        clock_ = other.clock_;
        stats_ = other.stats_;
    }

  private:
    struct Way
    {
        bool valid = false;
        Vpn vpn = 0;
        Pcid pcid = 0;
        TlbEntry entry;
        std::uint64_t lruStamp = 0;
    };

    unsigned setOf(Vpn vpn) const;
    Way *findWay(Vpn vpn, Pcid pcid);
    const Way *findWay(Vpn vpn, Pcid pcid) const;

    std::string name_;
    unsigned numSets_;
    unsigned assoc_;
    std::vector<Way> ways_;
    std::uint64_t clock_ = 0;
    TlbStats stats_;
};

} // namespace uscope::vm

#endif // USCOPE_VM_TLB_HH
