/**
 * @file
 * The machine's physical memory: a sparse, page-granular byte store.
 *
 * Page tables, victim data (AES tables, key schedules), and Monitor
 * buffers all live here as real bytes; the page-table walker, the core's
 * load/store units, and the kernel all read and write the same storage.
 * Timing is modelled separately by the cache hierarchy — PhysMem is the
 * functional backing store.
 *
 * Storage is a slab arena of refcounted page slots plus a directory of
 * page refs indexed by PPN, in leaves of 64 (no per-page heap node,
 * no hashing on the hot path: PPNs are dense because the frame
 * allocator bump-allocates them).  Two PhysMem instances may share
 * pages copy-on-write via shareStateFrom(): both sides keep reading
 * the shared bytes for free, and whichever side writes a shared page
 * first gets a private copy (DESIGN.md §12).  Within one arena a page
 * ref is therefore a page version, and the directory is a
 * VersionedTable: a share copies only the refs that differ, by the
 * rule the caches apply to their set versions (§17).  Sharing is only
 * legal between instances owned by the same thread — refcounts are
 * not atomic by design (snapshots and forks are per-worker).
 */

#ifndef USCOPE_MEM_PHYS_MEM_HH
#define USCOPE_MEM_PHYS_MEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "mem/versioned_table.hh"

namespace uscope::mem
{

/**
 * Slab-backed storage for refcounted physical pages.  Page bytes live
 * in large contiguous slabs; a PageRef is a stable 32-bit slot index.
 * Freed slots go on a free list and are reused, so a Machine restored
 * over and over never gives slabs back to the allocator.
 */
class PageArena
{
  public:
    using PageRef = std::uint32_t;
    static constexpr PageRef kNullRef = ~PageRef{0};

    /** Allocate a zero-filled page with refcount 1. */
    PageRef allocZeroed();

    /** Allocate a copy of @p src's bytes with refcount 1. */
    PageRef allocCopyOf(PageRef src);

    void incref(PageRef ref) { ++refs_[ref]; }

    /** Drop one reference; a slot reaching zero joins the free list. */
    void decref(PageRef ref)
    {
        if (--refs_[ref] == 0)
            free_.push_back(ref);
    }

    std::uint32_t refs(PageRef ref) const { return refs_[ref]; }

    /** Slots some instance still holds (tests). */
    std::size_t pagesInUse() const { return refs_.size() - free_.size(); }

    std::uint8_t *data(PageRef ref)
    {
        return slabs_[ref >> slabPagesShift].get() +
               (static_cast<std::size_t>(ref & slabPagesMask)
                << pageShift);
    }

  private:
    // 64 pages (256 KiB) per slab: large enough to amortize the
    // allocation, small enough that tiny tests stay tiny.
    static constexpr unsigned slabPagesShift = 6;
    static constexpr std::uint32_t slabPagesMask =
        (1u << slabPagesShift) - 1;

    std::vector<std::unique_ptr<std::uint8_t[]>> slabs_;
    std::vector<std::uint32_t> refs_; // per slot; index == PageRef
    std::vector<PageRef> free_;
};

/** Sparse physical memory; pages materialize zero-filled on first touch. */
class PhysMem
{
  public:
    /** @param size Total physical memory size in bytes (for bounds). */
    explicit PhysMem(std::uint64_t size = std::uint64_t{1} << 32);

    PhysMem(const PhysMem &) = delete;
    PhysMem &operator=(const PhysMem &) = delete;

    /** Releases every page, so a dead sharer's pages go back to the
     *  arena and stop forcing copy-on-write on the survivors. */
    ~PhysMem();

    std::uint64_t size() const { return size_; }

    /** Read @p len (1/2/4/8) bytes, little-endian, at @p addr. */
    std::uint64_t read(PAddr addr, unsigned len) const
    {
        std::uint64_t val = 0;
        readBytes(addr, &val, len);
        return val;
    }

    /** Write the low @p len bytes of @p val, little-endian, at @p addr. */
    void write(PAddr addr, std::uint64_t val, unsigned len)
    {
        writeBytes(addr, &val, len);
    }

    std::uint8_t read8(PAddr addr) const { return read(addr, 1); }
    std::uint32_t read32(PAddr addr) const
    {
        return static_cast<std::uint32_t>(read(addr, 4));
    }
    std::uint64_t read64(PAddr addr) const { return read(addr, 8); }

    void write8(PAddr addr, std::uint8_t val) { write(addr, val, 1); }
    void write64(PAddr addr, std::uint64_t val) { write(addr, val, 8); }

    /** Bulk copy into physical memory. */
    void writeBytes(PAddr addr, const void *src, std::uint64_t len);

    /** Bulk copy out of physical memory. */
    void readBytes(PAddr addr, void *dst, std::uint64_t len) const;

    /** Zero a whole physical page (stays materialized if present). */
    void zeroPage(Ppn ppn);

    /**
     * Become a copy-on-write alias of @p src, sharing every
     * materialized page; first-writers (on either side) copy
     * privately.  Both instances must belong to the same thread from
     * here on.  Only the directory entries whose ref differs from
     * src's are re-pointed (DESIGN.md §17), so a restore after a
     * replay window costs one compare per leaf plus a refcount swap
     * per page the window wrote.  A source in another arena is shared
     * from an empty directory.
     */
    void shareStateFrom(const PhysMem &src);

    /** Refs shareStateFrom re-pointed since construction
     *  (observability/tests). */
    std::uint64_t pagesRepointed() const { return pagesRepointed_; }

    /** Number of pages materialized so far (for tests/stats). */
    std::size_t pagesAllocated() const { return used_; }

    /** Arena slots in use by every instance sharing this one's arena
     *  (tests). */
    std::size_t arenaPagesInUse() const { return arena_->pagesInUse(); }

  private:
    using PageRef = PageArena::PageRef;

    /** Writable page bytes for @p addr (materializes, un-shares). */
    std::uint8_t *pageFor(PAddr addr);

    /** Readable page bytes for @p addr, or nullptr if untouched. */
    const std::uint8_t *pageForConst(PAddr addr) const;

    void checkBounds(PAddr addr, std::uint64_t len) const;

    /** Drop this instance's ref to every page: an empty directory. */
    void releasePages();

    std::uint64_t size_;
    std::shared_ptr<PageArena> arena_;
    /** PPN -> page ref, kNullRef where no page is materialized;
     *  sized to the highest leaf touched. */
    VersionedTable<PageRef, PageArena::kNullRef> pages_;
    std::size_t used_ = 0;
    std::uint64_t pagesRepointed_ = 0;
};

} // namespace uscope::mem

#endif // USCOPE_MEM_PHYS_MEM_HH
