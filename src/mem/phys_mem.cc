#include "mem/phys_mem.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace uscope::mem
{

PageArena::PageRef
PageArena::allocZeroed()
{
    PageRef ref;
    if (free_.empty()) {
        if (refs_.size() == static_cast<std::size_t>(kNullRef))
            panic("PageArena exhausted its 32-bit slot space");
        if ((refs_.size() & slabPagesMask) == 0)
            slabs_.push_back(std::make_unique<std::uint8_t[]>(
                std::size_t{1} << (slabPagesShift + pageShift)));
        ref = static_cast<PageRef>(refs_.size());
        refs_.push_back(1);
    } else {
        ref = free_.back();
        free_.pop_back();
        refs_[ref] = 1;
    }
    std::memset(data(ref), 0, pageSize);
    return ref;
}

PageArena::PageRef
PageArena::allocCopyOf(PageRef src)
{
    // Grab the slot first: allocZeroed may grow slabs_, but PageRefs
    // and slab base pointers are stable, so data(src) stays valid.
    const PageRef ref = allocZeroed();
    std::memcpy(data(ref), data(src), pageSize);
    return ref;
}

PhysMem::PhysMem(std::uint64_t size)
    : size_(size), arena_(std::make_shared<PageArena>())
{
}

PhysMem::~PhysMem()
{
    releasePages();
}

void
PhysMem::releasePages()
{
    pages_.copyFrom({}, [this](std::size_t ppn, PageRef) {
        arena_->decref(pages_[ppn]);
    });
}

void
PhysMem::checkBounds(PAddr addr, std::uint64_t len) const
{
    if (addr + len > size_ || addr + len < addr)
        panic("PhysMem access [%#llx, +%llu) out of bounds (size %#llx)",
              static_cast<unsigned long long>(addr),
              static_cast<unsigned long long>(len),
              static_cast<unsigned long long>(size_));
}

std::uint8_t *
PhysMem::pageFor(PAddr addr)
{
    const Ppn ppn = pageNumber(addr);
    const PageRef ref = pages_[ppn];
    if (ref == PageArena::kNullRef) {
        pages_.cover(ppn + 1);
        pages_.set(ppn, arena_->allocZeroed());
        ++used_;
    } else if (arena_->refs(ref) > 1) {
        // Copy-on-write: un-share before the first write.
        pages_.set(ppn, arena_->allocCopyOf(ref));
        arena_->decref(ref);
    }
    return arena_->data(pages_[ppn]);
}

const std::uint8_t *
PhysMem::pageForConst(PAddr addr) const
{
    const PageRef ref = pages_[pageNumber(addr)];
    return ref == PageArena::kNullRef ? nullptr : arena_->data(ref);
}

// read() and write() move a value's bytes as they lie in memory.
static_assert(std::endian::native == std::endian::little,
              "PhysMem::read/write assume a little-endian host");

namespace
{

/** Call @p span(addr, done, n) for each piece of [@p addr, +@p len)
 *  that lies in one page, @p done bytes into the range. */
template <typename Span>
void
forEachPageSpan(PAddr addr, std::uint64_t len, Span &&span)
{
    for (std::uint64_t done = 0, n; done < len; done += n) {
        const PAddr cur = addr + done;
        n = std::min(len - done, pageSize - (cur & pageOffsetMask));
        span(cur, done, n);
    }
}

} // namespace

void
PhysMem::writeBytes(PAddr addr, const void *src, std::uint64_t len)
{
    checkBounds(addr, len);
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    forEachPageSpan(addr, len, [&](PAddr cur, std::uint64_t done,
                                   std::uint64_t n) {
        std::memcpy(pageFor(cur) + (cur & pageOffsetMask), bytes + done, n);
    });
}

void
PhysMem::readBytes(PAddr addr, void *dst, std::uint64_t len) const
{
    checkBounds(addr, len);
    auto *bytes = static_cast<std::uint8_t *>(dst);
    forEachPageSpan(addr, len, [&](PAddr cur, std::uint64_t done,
                                   std::uint64_t n) {
        if (const std::uint8_t *page = pageForConst(cur))
            std::memcpy(bytes + done, page + (cur & pageOffsetMask), n);
        else
            std::memset(bytes + done, 0, n);
    });
}

void
PhysMem::zeroPage(Ppn ppn)
{
    checkBounds(ppn << pageShift, pageSize);
    const PageRef ref = pages_[ppn];
    if (ref == PageArena::kNullRef)
        return;
    if (arena_->refs(ref) > 1) {
        // Shared: swap in a fresh zero page instead of copying bytes
        // we are about to clear.
        arena_->decref(ref);
        pages_.set(ppn, arena_->allocZeroed());
        return;
    }
    std::memset(arena_->data(ref), 0, pageSize);
}

void
PhysMem::shareStateFrom(const PhysMem &src)
{
    if (arena_ != src.arena_) {
        // Refs from two arenas do not compare: empty the directory.
        releasePages();
        arena_ = src.arena_;
    }
    pagesRepointed_ += pages_.copyFrom(
        src.pages_, [this](std::size_t ppn, PageRef theirs) {
            if (theirs != PageArena::kNullRef)
                arena_->incref(theirs);
            if (pages_[ppn] != PageArena::kNullRef)
                arena_->decref(pages_[ppn]);
        });
    size_ = src.size_;
    used_ = src.used_;
}

} // namespace uscope::mem
