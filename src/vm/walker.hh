/**
 * @file
 * The hardware page-table walker (paper Figure 2).
 *
 * A walk starts at the deepest level the PWC can supply, then fetches
 * one 8-byte entry per remaining level *through the cache hierarchy*;
 * each fetch pays the latency of wherever that entry currently resides
 * (L1 .. DRAM).  This is precisely the knob MicroScope turns: by
 * staging the PGD/PUD/PMD/PTE entries at chosen levels, the Replayer
 * tunes a walk from a few cycles to over a thousand (§4.1.2), which
 * sets the length of the victim's speculative replay window.
 */

#ifndef USCOPE_VM_WALKER_HH
#define USCOPE_VM_WALKER_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "obs/observer.hh"
#include "vm/paging.hh"
#include "vm/pwc.hh"
#include "vm/tlb.hh"

namespace uscope::obs
{
class MetricRegistry;
} // namespace uscope::obs

namespace uscope::vm
{

/** Outcome of one hardware page walk. */
struct WalkResult
{
    /** True when the translation failed (leaf absent or unmapped). */
    bool fault = false;
    /** Translation to install in the TLBs (valid when !fault). */
    TlbEntry entry{};
    /** Total walk latency in cycles. */
    Cycles latency = 0;
    /** Number of page-table entry fetches performed. */
    unsigned ptFetches = 0;
    /** Level the walk started fetching at (after any PWC skip). */
    Level startLevel = Level::Pgd;
};

/** Walker hit/fault counters. */
struct WalkerStats
{
    std::uint64_t walks = 0;
    std::uint64_t faults = 0;
    std::uint64_t ptFetches = 0;
};

constexpr Cycles kWalkStepCost = 2;  ///< Per-level sequencing cost.

/** The MMU's hardware page-table walker. */
class Walker
{
  public:
    /**
     * @param mem       Physical memory holding the tables.
     * @param hierarchy Cache hierarchy the entry fetches go through.
     * @param pwc       Page-walk cache consulted/filled by walks.
     */
    Walker(mem::PhysMem &mem, mem::Hierarchy &hierarchy, Pwc &pwc);

    /**
     * Walk the table rooted at @p root for @p va.
     * Upper-level entries found along the way are cached in the PWC
     * even when the walk ultimately faults (as on real hardware —
     * which is why the Replayer re-flushes the PWC every replay).
     */
    WalkResult walk(VAddr va, Pcid pcid, PAddr root);

    const WalkerStats &stats() const { return stats_; }

    /**
     * Adopt @p other's counters and latency summary (snapshot
     * forking, DESIGN.md §12).  The memory/hierarchy/PWC references
     * and observer wiring stay this walker's own — the walker holds
     * no other mutable state.
     */
    void copyStateFrom(const Walker &other)
    {
        stats_ = other.stats_;
        latency_ = other.latency_;
    }

    /** Wire the owning Machine's observability hub (may be null). */
    void setObserver(obs::Observer *observer) { obs_ = observer; }

    /** Register vm.walker.* counters and the latency summary. */
    void exportMetrics(obs::MetricRegistry &registry) const;

  private:
    mem::PhysMem &mem_;
    mem::Hierarchy &hierarchy_;
    Pwc &pwc_;
    WalkerStats stats_;
    Summary latency_;
    obs::Observer *obs_ = nullptr;
};

} // namespace uscope::vm

#endif // USCOPE_VM_WALKER_HH
