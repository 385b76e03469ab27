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
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"

namespace uscope::obs
{

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
    std::string name;
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
    const MetricValue *find(const std::string &name) const;

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
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    LatencyStat &latency(std::string_view name);

    std::size_t size() const { return slots_.size(); }

    /** Freeze current values, sorted by name. */
    MetricSnapshot snapshot() const;

  private:
    struct Slot
    {
        std::string name;
        MetricKind kind;
        Counter counter;
        Gauge gauge;
        LatencyStat latency;
    };

    Slot &slot(std::string_view name, MetricKind kind);

    /** deque: stable addresses for handed-out references, and for the
     *  slot names the index keys view. */
    std::deque<Slot> slots_;
    std::unordered_map<std::string_view, std::size_t> index_;
};

} // namespace uscope::obs

#endif // USCOPE_OBS_METRICS_HH
