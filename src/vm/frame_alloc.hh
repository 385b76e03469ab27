/**
 * @file
 * Trivial bump allocator for physical page frames.
 *
 * The kernel uses one instance to hand out frames for page tables and
 * for demand-paged data.  Freed frames go on a free list and are
 * reused LIFO; the simulator never needs real reclamation pressure.
 */

#ifndef USCOPE_VM_FRAME_ALLOC_HH
#define USCOPE_VM_FRAME_ALLOC_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace uscope::vm
{

/** Allocates physical frames from a fixed region [base, base+count). */
class FrameAllocator
{
  public:
    /**
     * @param base_ppn First allocatable frame number.
     * @param count    Number of frames in the pool.
     */
    FrameAllocator(Ppn base_ppn, std::uint64_t count);

    /** Allocate one frame; throws SimFatal when the pool is exhausted. */
    Ppn alloc();

    /** Return a frame to the pool. */
    void free(Ppn ppn);

    std::uint64_t framesInUse() const { return inUse_; }

    /**
     * Adopt @p other's allocation cursor and free list (snapshot
     * forking, DESIGN.md §12).  Pools must cover the same region.
     */
    void copyStateFrom(const FrameAllocator &other)
    {
        next_ = other.next_;
        inUse_ = other.inUse_;
        freeList_ = other.freeList_;
    }

  private:
    Ppn base_;
    std::uint64_t count_;
    std::uint64_t next_ = 0;
    std::uint64_t inUse_ = 0;
    std::vector<Ppn> freeList_;
};

} // namespace uscope::vm

#endif // USCOPE_VM_FRAME_ALLOC_HH
