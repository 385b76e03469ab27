/**
 * @file
 * EventTrace: a fixed-capacity ring buffer of typed event records.
 *
 * Overhead-when-disabled guarantee: record() is a single predictable
 * branch on a plain bool and an immediate return — no formatting, no
 * allocation, no atomic, no function call (it is inline).  Components
 * therefore call record() unconditionally on hot paths; the simulator
 * only pays for tracing when a harness turned it on.
 *
 * When enabled, a record is two stores into a preallocated ring; when
 * the ring is full the oldest records are overwritten and counted as
 * dropped (reported by drain(), never silently).
 *
 * Ownership rule: an EventTrace belongs to exactly one Machine and is
 * only touched from the thread simulating it, so the hot path needs no
 * locks (see DESIGN.md §observability).
 */

#ifndef USCOPE_OBS_EVENT_TRACE_HH
#define USCOPE_OBS_EVENT_TRACE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/event.hh"

namespace uscope::obs
{

/** The per-Machine event ring. */
class EventTrace
{
  public:
    /** @param capacity Ring slots; rounded up to a power of two.
     *  A zero capacity leaves the ring unallocated (records are
     *  counted but not retained — enable() requires capacity). */
    explicit EventTrace(std::size_t capacity = 0);

    /** Allocate (or resize) the ring and clear it.  Fatal unless
     *  1 <= @p capacity <= the largest power of two in size_t. */
    void reserve(std::size_t capacity);

    bool enabled() const { return enabled_; }

    /** Turn recording on/off.  Enabling with no capacity panics. */
    void setEnabled(bool enabled);

    /** Bind the cycle counter record() stamps events with. */
    void bindClock(const std::uint64_t *cycle) { clock_ = cycle; }

    /** Record one event.  The entire disabled-path cost is this
     *  branch. */
    void
    record(EventKind kind, std::uint8_t a = 0, std::uint16_t b = 0,
           std::uint64_t addr = 0)
    {
        if (!enabled_)
            return;
        recordAt(clock_ ? *clock_ : 0, kind, a, b, addr);
    }

    /** Record with an explicit timestamp.  Sub-events of an atomic
     *  simulation step (e.g. the fetches inside one page walk, which
     *  completes without advancing the core clock) use this to spread
     *  themselves over the latency the step charged. */
    void
    recordAt(std::uint64_t cycle, EventKind kind, std::uint8_t a = 0,
             std::uint16_t b = 0, std::uint64_t addr = 0)
    {
        if (!enabled_)
            return;
        Event &e = ring_[static_cast<std::size_t>(total_) & mask_];
        e.cycle = cycle;
        e.kind = kind;
        e.a = a;
        e.b = b;
        e.addr = addr;
        ++total_;
    }

    /** The cycle record() would stamp right now. */
    std::uint64_t now() const { return clock_ ? *clock_ : 0; }

    std::size_t capacity() const { return ring_.size(); }

    /** Events recorded over this trace's lifetime (incl. dropped). */
    std::uint64_t totalRecorded() const { return total_; }

    /** Events overwritten by wrap-around so far. */
    std::uint64_t dropped() const
    {
        return total_ > ring_.size() ? total_ - ring_.size() : 0;
    }

    /** Copy out the retained events (oldest first) + drop counts. */
    EventLog drain() const;

    /** Forget every recorded event (capacity is kept). */
    void clear() { total_ = 0; }

    /**
     * Adopt @p other's recorded events, counters, and enable flag
     * (snapshot forking, DESIGN.md §12).  The clock binding is NOT
     * copied: it points into the owning Machine's core and would
     * dangle across machines — each trace keeps its own.
     *
     * Only the live slots are copied: no reader (drain(), record()'s
     * overwrite cursor) ever touches a slot past min(total_, size),
     * so the garbage beyond them need not travel.  Restore-heavy
     * paths (differential replay) copy near-empty traces constantly;
     * hauling the full preallocated ring dominated their cost.
     */
    void copyStateFrom(const EventTrace &other)
    {
        enabled_ = other.enabled_;
        total_ = other.total_;
        mask_ = other.mask_;
        if (ring_.size() != other.ring_.size()) {
            ring_ = other.ring_;
            return;
        }
        const std::size_t live = static_cast<std::size_t>(
            std::min<std::uint64_t>(total_, other.ring_.size()));
        std::copy_n(other.ring_.begin(), live, ring_.begin());
    }

  private:
    bool enabled_ = false;
    const std::uint64_t *clock_ = nullptr;
    std::uint64_t total_ = 0;
    std::size_t mask_ = 0;
    std::vector<Event> ring_;
};

} // namespace uscope::obs

#endif // USCOPE_OBS_EVENT_TRACE_HH
