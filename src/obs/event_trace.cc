#include "obs/event_trace.hh"

#include <bit>

#include "common/logging.hh"

namespace uscope::obs
{

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::WalkStart: return "WalkStart";
      case EventKind::WalkStep: return "WalkStep";
      case EventKind::WalkEnd: return "WalkEnd";
      case EventKind::TlbMiss: return "TlbMiss";
      case EventKind::SpecIssue: return "SpecIssue";
      case EventKind::Retire: return "Retire";
      case EventKind::Squash: return "Squash";
      case EventKind::PortConflict: return "PortConflict";
      case EventKind::CacheAccess: return "CacheAccess";
      case EventKind::PageFault: return "PageFault";
      case EventKind::Probe: return "Probe";
      case EventKind::ReplayBoundary: return "ReplayBoundary";
      case EventKind::EpisodeEnd: return "EpisodeEnd";
      case EventKind::FaultInject: return "FaultInject";
    }
    return "?";
}

EventTrace::EventTrace(std::size_t capacity)
{
    if (capacity)
        reserve(capacity);
}

void
EventTrace::reserve(std::size_t capacity)
{
    // Above the largest power of two in size_t, bit_ceil has no
    // representable result (libstdc++ returns 1: a one-slot ring).
    constexpr std::size_t max_capacity = std::bit_floor(~std::size_t{0});
    if (capacity == 0 || capacity > max_capacity)
        fatal("EventTrace::reserve: capacity %zu is not in [1, %zu]",
              capacity, max_capacity);
    ring_.assign(std::bit_ceil(capacity), Event{});
    mask_ = ring_.size() - 1;
    total_ = 0;
}

void
EventTrace::setEnabled(bool enabled)
{
    if (enabled && ring_.empty())
        panic("EventTrace::setEnabled: no ring capacity reserved");
    enabled_ = enabled;
}

EventLog
EventTrace::drain() const
{
    EventLog log;
    log.total = total_;
    log.dropped = dropped();
    const std::uint64_t retained = total_ - log.dropped;
    log.events.reserve(static_cast<std::size_t>(retained));
    for (std::uint64_t i = log.dropped; i < total_; ++i)
        log.events.push_back(
            ring_[static_cast<std::size_t>(i) & mask_]);
    return log;
}

} // namespace uscope::obs
