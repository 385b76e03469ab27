/**
 * @file
 * Fundamental scalar types shared by every subsystem of the simulator.
 *
 * The simulator models a single physical address space (PhysMem), one or
 * more virtual address spaces (one per simulated process), and a global
 * cycle counter.  All three use 64-bit unsigned integers, but we keep
 * distinct aliases so signatures document which domain a value lives in.
 */

#ifndef USCOPE_COMMON_TYPES_HH
#define USCOPE_COMMON_TYPES_HH

#include <cstdint>
#include <cstddef>

namespace uscope
{

/** A virtual address in some simulated process' address space. */
using VAddr = std::uint64_t;

/** A physical address in the simulated machine's memory map. */
using PAddr = std::uint64_t;

/** A duration or timestamp measured in core clock cycles. */
using Cycles = std::uint64_t;

/**
 * Sentinel "no pending event" cycle returned by nextEventCycle() (see
 * DESIGN.md §10): the core and the fault injector report it when
 * nothing is in flight or scheduled, and os::Machine's minimum of the
 * two is the earliest cycle at which ticking can change architectural
 * or stats state.  As a run budget it means "no limit": os::Machine's
 * run loop saturates its limit here instead of wrapping.
 */
constexpr Cycles kNoEventCycle = ~Cycles{0};

/** Virtual page number (VAddr >> pageShift). */
using Vpn = std::uint64_t;

/** Physical page number (PAddr >> pageShift). */
using Ppn = std::uint64_t;

/** Process context identifier, tags TLB entries (x86 PCID). */
using Pcid = std::uint16_t;

/** Base-2 log of the page size; 4 KiB pages as on x86-64. */
constexpr unsigned pageShift = 12;

/** Page size in bytes. */
constexpr std::uint64_t pageSize = std::uint64_t{1} << pageShift;

/** Base-2 log of the cache line size; 64-byte lines as on x86. */
constexpr unsigned lineShift = 6;

/** Cache line size in bytes. */
constexpr std::uint64_t lineSize = std::uint64_t{1} << lineShift;

/** Mask selecting the offset bits within a page. */
constexpr std::uint64_t pageOffsetMask = pageSize - 1;

/** Mask selecting the offset bits within a cache line. */
constexpr std::uint64_t lineOffsetMask = lineSize - 1;

/** Round an address down to its page base. */
constexpr std::uint64_t
pageBase(std::uint64_t addr)
{
    return addr & ~pageOffsetMask;
}

/** Round an address down to its cache-line base. */
constexpr std::uint64_t
lineBase(std::uint64_t addr)
{
    return addr & ~lineOffsetMask;
}

/** Extract the virtual/physical page number of an address. */
constexpr std::uint64_t
pageNumber(std::uint64_t addr)
{
    return addr >> pageShift;
}

/** Extract the cache-line number of an address. */
constexpr std::uint64_t
lineNumber(std::uint64_t addr)
{
    return addr >> lineShift;
}

} // namespace uscope

#endif // USCOPE_COMMON_TYPES_HH
