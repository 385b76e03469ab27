/**
 * @file
 * A hierarchical registry of named metrics.
 *
 * Names are dot-separated paths mirroring the component tree
 * ("core.rob.squashes", "mem.l1d.misses", "vm.walker.steps",
 * "os.faults.replayed").  Three metric kinds exist:
 *
 *  - Counter: a monotonically meaningful uint64 (sums across merges);
 *  - Gauge:   a double (also summed across merges — per-trial gauges
 *             are really totals in a campaign context);
 *  - Latency: a streaming Summary (count/mean/variance/min/max)
 *             merged with Summary::merge, inheriting its determinism
 *             contract.
 *
 * Components implement exportMetrics(MetricRegistry&), writing their
 * existing stats counters into the registry at snapshot time — the
 * hot simulation paths carry no registry pointers and pay nothing.
 *
 * A metric's name is a MetricName: an interned handle to one
 * process-wide copy of its spelling, so registering, copying,
 * comparing and writing names allocates nothing (DESIGN.md §8).
 *
 * Thread-safety / ownership rule: a MetricRegistry (like the Machine
 * whose metrics it exports) is confined to one thread at a time, so
 * registration and updates are lock-free by design.  Cross-thread
 * aggregation happens exclusively through immutable MetricSnapshot
 * values merged in trial-index order by the campaign runner — the
 * same contract Summary::merge already obeys.  Registering the same
 * name twice with the same kind returns the same slot (idempotent);
 * re-registering under a different kind is a simulator bug and panics.
 */

#ifndef USCOPE_OBS_METRICS_HH
#define USCOPE_OBS_METRICS_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"

namespace uscope::obs
{

/**
 * An interned metric name.  The process keeps one immutable copy of
 * each spelling, made on its first use and never freed, so a handle is
 * one pointer: copying it allocates nothing and two handles are equal
 * exactly when their pointers are.  Interning locks a process-wide
 * table; everything else reads only the immutable copy, so handles
 * pass between threads like any value.  Exporters intern their names
 * once, into statics, and so pay no lock per export.  Order is the
 * spelling's (strcmp) order, the order snapshots sort by.
 */
class MetricName
{
  public:
    /** The empty name. */
    MetricName() noexcept : entry_(&kEmpty) {}

    /** The handle of @p spelling, interned on first use. */
    explicit MetricName(std::string_view spelling);

    std::string_view view() const { return entry_->text; }
    std::string str() const { return std::string(entry_->text); }
    /** NUL-terminated spelling (printf). */
    const char *c_str() const { return entry_->text.data(); }
    bool starts_with(std::string_view prefix) const
    {
        return entry_->text.starts_with(prefix);
    }

    /** The spelling as a quoted, escaped JSON string, cached. */
    std::string_view json() const { return entry_->json; }

    /** Dense per-process id: 0 for the empty name, then 1, 2, ... in
     *  interning order (MetricRegistry indexes its slots by it). */
    std::uint32_t id() const { return entry_->id; }

    friend bool
    operator==(MetricName a, MetricName b)
    {
        return a.entry_ == b.entry_;
    }
    friend bool
    operator==(MetricName a, std::string_view b)
    {
        return a.view() == b;
    }
    friend bool
    operator<(MetricName a, MetricName b)
    {
        return a.entry_ != b.entry_ && a.view() < b.view();
    }

  private:
    struct Entry
    {
        std::string_view text;
        std::string_view json;
        std::uint32_t id;
    };
    friend class MetricNameTable;

    static const Entry kEmpty;

    const Entry *entry_;
};

std::ostream &operator<<(std::ostream &os, MetricName name);

enum class MetricKind : std::uint8_t { Counter, Gauge, Latency };

const char *metricKindName(MetricKind kind);

/** A monotonic 64-bit event count. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    void set(std::uint64_t value) { value_ = value; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** A point-in-time double (occupancies, ratios, totals). */
class Gauge
{
  public:
    void set(double value) { value_ = value; }
    void add(double delta) { value_ += delta; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** A latency/size distribution summarized via common/stats Summary. */
class LatencyStat
{
  public:
    void record(double sample) { summary_.add(sample); }
    /** Fold a component-maintained Summary in wholesale. */
    void fold(const Summary &summary) { summary_.merge(summary); }
    const Summary &summary() const { return summary_; }

  private:
    Summary summary_;
};

/** One metric's value, frozen at snapshot time. */
struct MetricValue
{
    MetricName name;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    Summary latency;

    uscope::json::Value toJson() const;

    /** Append toJson().dump() to @p out. */
    void appendJson(std::string &out) const;
};

/** Append {"count","mean","stddev","min","max"} of @p summary — the
 *  compact dump of a latency metric's toJson(). */
void appendJson(std::string &out, const Summary &summary);

/**
 * An immutable, name-sorted capture of a registry.  Snapshots are the
 * unit of cross-thread aggregation: merge() combines two snapshots
 * name-wise (counters and gauges sum, latencies Summary::merge) and
 * is bit-deterministic when applied in a fixed order.
 */
struct MetricSnapshot
{
    /** Sorted by name (strcmp order). */
    std::vector<MetricValue> values;

    bool empty() const { return values.empty(); }
    std::size_t size() const { return values.size(); }

    /** Lookup by exact name; nullptr when absent. */
    const MetricValue *find(std::string_view name) const;

    /**
     * Fold @p other in.  Shared names must agree on kind (else
     * panic); names unique to either side are kept.
     */
    void merge(const MetricSnapshot &other);

    /**
     * A copy with every name prefixed by @p prefix (e.g.
     * "svc.worker3." + "core.issued" -> "svc.worker3.core.issued").
     * A uniform prefix preserves the name-sort order, so the result is
     * still a valid snapshot for merge().  This is how the campaign
     * service tags per-worker metric streams with the worker id
     * without kind collisions against the untagged aggregate.
     */
    MetricSnapshot prefixed(const std::string &prefix) const;

    /** {"name": value-or-summary-object, ...} in name order. */
    uscope::json::Value toJson() const;

    /**
     * Append toJson().dump() to @p out without building the tree,
     * leaving out every metric whose name starts with one of
     * @p skipPrefixes.  Returns the number of metrics written.
     */
    std::size_t
    appendJson(std::string &out,
               std::span<const std::string_view> skipPrefixes = {}) const;
};

/** The registry components export into. */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** Find-or-create; panics if @p name exists with another kind. */
    Counter &counter(MetricName name);
    Gauge &gauge(MetricName name);
    LatencyStat &latency(MetricName name);

    /** The same by spelling, interning it (a lock per call). */
    Counter &counter(std::string_view name)
    {
        return counter(MetricName(name));
    }
    Gauge &gauge(std::string_view name) { return gauge(MetricName(name)); }
    LatencyStat &
    latency(std::string_view name)
    {
        return latency(MetricName(name));
    }

    std::size_t size() const { return slots_.size(); }

    /** Freeze current values, sorted by name. */
    MetricSnapshot snapshot() const;

  private:
    struct Slot
    {
        MetricName name;
        MetricKind kind;
        Counter counter;
        Gauge gauge;
        LatencyStat latency;
    };

    Slot &slot(MetricName name, MetricKind kind);

    /** deque: stable addresses for handed-out references. */
    std::deque<Slot> slots_;
    /** Slot index + 1 by MetricName::id(); 0 where none. */
    std::vector<std::uint32_t> slotOf_;
};

} // namespace uscope::obs

#endif // USCOPE_OBS_METRICS_HH
