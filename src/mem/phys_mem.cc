#include "mem/phys_mem.hh"

#include <cstring>

#include "common/logging.hh"
#include "common/random.hh"

namespace uscope::mem
{

PageArena::PageRef
PageArena::allocZeroed()
{
    if (free_.empty()) {
        if (refs_.size() == static_cast<std::size_t>(kNullRef))
            panic("PageArena exhausted its 32-bit slot space");
        if ((refs_.size() & slabPagesMask) == 0) {
            auto slab = std::make_unique<std::uint8_t[]>(
                std::size_t{1} << (slabPagesShift + pageShift));
            slabs_.push_back(std::move(slab));
        }
        refs_.push_back(1);
        const PageRef ref = static_cast<PageRef>(refs_.size() - 1);
        std::memset(data(ref), 0, pageSize);
        return ref;
    }
    const PageRef ref = free_.back();
    free_.pop_back();
    refs_[ref] = 1;
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

namespace
{

/** Initial index capacity; must be a power of two. */
constexpr std::size_t kInitialSlots = 256;

} // namespace

PhysMem::PhysMem(std::uint64_t size)
    : size_(size), arena_(std::make_shared<PageArena>()),
      slots_(kInitialSlots), mask_(kInitialSlots - 1)
{
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

std::size_t
PhysMem::probe(Ppn ppn) const
{
    std::size_t i = mix64(ppn) & mask_;
    while (slots_[i].ref != PageArena::kNullRef && slots_[i].ppn != ppn)
        i = (i + 1) & mask_;
    return i;
}

void
PhysMem::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot &slot : old) {
        if (slot.ref == PageArena::kNullRef)
            continue;
        std::size_t i = mix64(slot.ppn) & mask_;
        while (slots_[i].ref != PageArena::kNullRef)
            i = (i + 1) & mask_;
        slots_[i] = slot;
    }
}

std::uint8_t *
PhysMem::pageFor(PAddr addr)
{
    const Ppn ppn = pageNumber(addr);
    std::size_t i = probe(ppn);
    if (slots_[i].ref == PageArena::kNullRef) {
        // Keep the load factor below ~2/3 so probes stay short.
        if ((used_ + 1) * 3 > slots_.size() * 2) {
            grow();
            i = probe(ppn);
        }
        slots_[i].ppn = ppn;
        slots_[i].ref = arena_->allocZeroed();
        ++used_;
        return arena_->data(slots_[i].ref);
    }
    PageRef ref = slots_[i].ref;
    if (arena_->refs(ref) > 1) {
        // Copy-on-write: un-share before the first write.
        const PageRef fresh = arena_->allocCopyOf(ref);
        arena_->decref(ref);
        slots_[i].ref = fresh;
        ref = fresh;
    }
    return arena_->data(ref);
}

const std::uint8_t *
PhysMem::pageForConst(PAddr addr) const
{
    const std::size_t i = probe(pageNumber(addr));
    return slots_[i].ref == PageArena::kNullRef
               ? nullptr
               : arena_->data(slots_[i].ref);
}

std::uint64_t
PhysMem::read(PAddr addr, unsigned len) const
{
    checkBounds(addr, len);
    std::uint64_t val = 0;
    for (unsigned i = 0; i < len; ++i) {
        const PAddr byte_addr = addr + i;
        const std::uint8_t *page = pageForConst(byte_addr);
        const std::uint8_t byte =
            page ? page[byte_addr & pageOffsetMask] : 0;
        val |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return val;
}

void
PhysMem::write(PAddr addr, std::uint64_t val, unsigned len)
{
    checkBounds(addr, len);
    for (unsigned i = 0; i < len; ++i) {
        const PAddr byte_addr = addr + i;
        pageFor(byte_addr)[byte_addr & pageOffsetMask] =
            static_cast<std::uint8_t>(val >> (8 * i));
    }
}

void
PhysMem::writeBytes(PAddr addr, const void *src, std::uint64_t len)
{
    checkBounds(addr, len);
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    std::uint64_t done = 0;
    while (done < len) {
        const PAddr cur = addr + done;
        const std::uint64_t in_page =
            std::min<std::uint64_t>(len - done,
                                    pageSize - (cur & pageOffsetMask));
        std::memcpy(pageFor(cur) + (cur & pageOffsetMask), bytes + done,
                    in_page);
        done += in_page;
    }
}

void
PhysMem::readBytes(PAddr addr, void *dst, std::uint64_t len) const
{
    checkBounds(addr, len);
    auto *bytes = static_cast<std::uint8_t *>(dst);
    std::uint64_t done = 0;
    while (done < len) {
        const PAddr cur = addr + done;
        const std::uint64_t in_page =
            std::min<std::uint64_t>(len - done,
                                    pageSize - (cur & pageOffsetMask));
        const std::uint8_t *page = pageForConst(cur);
        if (page) {
            std::memcpy(bytes + done, page + (cur & pageOffsetMask),
                        in_page);
        } else {
            std::memset(bytes + done, 0, in_page);
        }
        done += in_page;
    }
}

void
PhysMem::zeroPage(Ppn ppn)
{
    checkBounds(ppn << pageShift, pageSize);
    const std::size_t i = probe(ppn);
    if (slots_[i].ref == PageArena::kNullRef)
        return;
    if (arena_->refs(slots_[i].ref) > 1) {
        // Shared: swap in a fresh zero page instead of copying bytes
        // we are about to clear.
        arena_->decref(slots_[i].ref);
        slots_[i].ref = arena_->allocZeroed();
        return;
    }
    std::memset(arena_->data(slots_[i].ref), 0, pageSize);
}

void
PhysMem::shareStateFrom(const PhysMem &src)
{
    if (arena_ != src.arena_ || slots_.size() != src.slots_.size()) {
        for (const Slot &slot : slots_)
            if (slot.ref != PageArena::kNullRef)
                arena_->decref(slot.ref);
        arena_ = src.arena_;
        slots_.assign(src.slots_.size(), Slot{});
        mask_ = src.mask_;
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot &mine = slots_[i];
        const Slot &theirs = src.slots_[i];
        if (mine.ref == theirs.ref)
            continue;
        if (theirs.ref != PageArena::kNullRef)
            arena_->incref(theirs.ref);
        if (mine.ref != PageArena::kNullRef)
            arena_->decref(mine.ref);
        mine = theirs;
        ++pagesRepointed_;
    }
    size_ = src.size_;
    used_ = src.used_;
}

} // namespace uscope::mem
