/**
 * @file
 * The memory-management unit: L1 DTLB + L2 TLB + PWC + hardware walker.
 *
 * The core calls translate() on every memory micro-op.  The kernel
 * (and through it the MicroScope module) calls the invalidation
 * entry points: invlpg() after editing a leaf entry, flushPwc() before
 * every replay so the walk restarts from the level the Replayer staged.
 */

#ifndef USCOPE_VM_MMU_HH
#define USCOPE_VM_MMU_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "vm/pwc.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"

namespace uscope::vm
{

// TLB geometry of the modelled core.
constexpr unsigned kL1TlbEntries = 64;
constexpr unsigned kL1TlbAssoc = 4;
constexpr unsigned kL2TlbEntries = 1536;
constexpr unsigned kL2TlbAssoc = 12;
constexpr Cycles kL2TlbLatency = 7;  ///< Paid on an L1 miss, L2 hit.

/** Outcome of one address translation. */
struct TranslateResult
{
    /** Leaves walk unbuilt: a TLB hit, the path every memory micro-op
     *  takes, writes only the four fields before it. */
    TranslateResult() {}

    /** Page fault: leaf absent/non-present.  paddr is invalid. */
    bool fault = false;
    /** Translated physical address (valid when !fault). */
    PAddr paddr = 0;
    /** Translation latency beyond a free L1-TLB hit. */
    Cycles latency = 0;
    /** True when a hardware page walk was needed. */
    bool walked = false;
    /** Walk detail, valid only when walked (a TLB hit never writes
     *  it; WalkResult is trivially copyable, so assigning it is what
     *  starts its lifetime). */
    union
    {
        WalkResult walk;
    };
};

/** The per-core MMU shared by both SMT contexts. */
class Mmu
{
  public:
    Mmu(mem::PhysMem &mem, mem::Hierarchy &hierarchy);

    /**
     * Translate @p va under @p pcid with tables rooted at @p root.
     * Fills TLBs/PWC as a real MMU would — including on faulting
     * walks, where upper levels still get cached.
     */
    TranslateResult translate(VAddr va, Pcid pcid, PAddr root);

    /** INVLPG: drop one page's translation from both TLBs. */
    void invlpg(VAddr va, Pcid pcid);

    /** Drop PWC entries covering @p va (MicroScope §5.2.2 op 2). */
    void flushPwc(VAddr va, Pcid pcid);

    /** Full TLB shootdown. */
    void flushTlbAll();

    /** Full PWC flush. */
    void flushPwcAll();

    Tlb &l1Tlb() { return l1Tlb_; }
    Tlb &l2Tlb() { return l2Tlb_; }
    Pwc &pwc() { return pwc_; }
    Walker &walker() { return walker_; }
    const Tlb &l1Tlb() const { return l1Tlb_; }
    const Tlb &l2Tlb() const { return l2Tlb_; }
    const Pwc &pwc() const { return pwc_; }
    const Walker &walker() const { return walker_; }

    /**
     * Adopt @p other's TLB/PWC contents and walker stats (snapshot
     * forking, DESIGN.md §12).  References and observer wiring stay
     * this MMU's own.
     */
    void copyStateFrom(const Mmu &other)
    {
        l1Tlb_.copyStateFrom(other.l1Tlb_);
        l2Tlb_.copyStateFrom(other.l2Tlb_);
        pwc_.copyStateFrom(other.pwc_);
        walker_.copyStateFrom(other.walker_);
    }

    /** Wire the owning Machine's observability hub (may be null). */
    void setObserver(obs::Observer *observer)
    {
        obs_ = observer;
        walker_.setObserver(observer);
    }

    /** Register vm.tlb.*, vm.pwc.* and the walker's metrics. */
    void exportMetrics(obs::MetricRegistry &registry) const;

  private:
    Tlb l1Tlb_;
    Tlb l2Tlb_;
    Pwc pwc_;
    Walker walker_;
    obs::Observer *obs_ = nullptr;
};

} // namespace uscope::vm

#endif // USCOPE_VM_MMU_HH
