#include "obs/metrics.hh"

#include <algorithm>
#include <mutex>
#include <ostream>
#include <unordered_map>

#include "common/logging.hh"

namespace uscope::obs
{

/** The process-wide spellings behind every MetricName. */
class MetricNameTable
{
  public:
    static MetricNameTable &
    instance()
    {
        // Never destroyed: handles held in other translation units'
        // statics stay valid through any order of exit-time teardown.
        static MetricNameTable *const table = new MetricNameTable;
        return *table;
    }

    const MetricName::Entry *
    intern(std::string_view spelling)
    {
        if (spelling.empty())
            return &MetricName::kEmpty;
        const std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = index_.find(spelling); it != index_.end())
            return it->second;
        // deques: neither the strings nor the entries ever move.
        const std::string &text = spellings_.emplace_back(spelling);
        std::string &quoted = spellings_.emplace_back();
        json::appendString(quoted, spelling);
        const MetricName::Entry &entry = entries_.emplace_back(
            MetricName::Entry{text, quoted,
                              static_cast<std::uint32_t>(entries_.size() +
                                                         1)});
        index_.emplace(entry.text, &entry);
        return &entry;
    }

  private:
    std::mutex mutex_;
    std::deque<std::string> spellings_;
    std::deque<MetricName::Entry> entries_;
    std::unordered_map<std::string_view, const MetricName::Entry *> index_;
};

constinit const MetricName::Entry MetricName::kEmpty{"", "\"\"", 0};

MetricName::MetricName(std::string_view spelling)
    : entry_(MetricNameTable::instance().intern(spelling))
{
}

std::ostream &
operator<<(std::ostream &os, MetricName name)
{
    return os << name.view();
}

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Latency: return "latency";
    }
    return "?";
}

json::Value
MetricValue::toJson() const
{
    switch (kind) {
      case MetricKind::Counter:
        return json::Value(counter);
      case MetricKind::Gauge:
        return json::Value(gauge);
      case MetricKind::Latency:
        return json::Value::object()
            .set("count", latency.count())
            .set("mean", latency.mean())
            .set("stddev", latency.stddev())
            .set("min", latency.min())
            .set("max", latency.max());
    }
    return json::Value();
}

void
appendJson(std::string &out, const Summary &summary)
{
    out += "{\"count\":";
    json::appendUint(out, summary.count());
    out += ",\"mean\":";
    json::appendDouble(out, summary.mean());
    out += ",\"stddev\":";
    json::appendDouble(out, summary.stddev());
    out += ",\"min\":";
    json::appendDouble(out, summary.min());
    out += ",\"max\":";
    json::appendDouble(out, summary.max());
    out += '}';
}

void
MetricValue::appendJson(std::string &out) const
{
    switch (kind) {
      case MetricKind::Counter:
        json::appendUint(out, counter);
        break;
      case MetricKind::Gauge:
        json::appendDouble(out, gauge);
        break;
      case MetricKind::Latency:
        obs::appendJson(out, latency);
        break;
    }
}

const MetricValue *
MetricSnapshot::find(std::string_view name) const
{
    const auto it = std::lower_bound(
        values.begin(), values.end(), name,
        [](const MetricValue &v, std::string_view n) {
            return v.name.view() < n;
        });
    if (it == values.end() || it->name != name)
        return nullptr;
    return &*it;
}

namespace
{

/** Fold @p rhs, a metric of the same name, into @p into. */
void
combine(MetricValue &into, const MetricValue &rhs)
{
    if (into.kind != rhs.kind)
        panic("MetricSnapshot::merge: '%s' is a %s here but a %s "
              "in the other snapshot",
              into.name.c_str(), metricKindName(into.kind),
              metricKindName(rhs.kind));
    switch (into.kind) {
      case MetricKind::Counter:
        into.counter += rhs.counter;
        break;
      case MetricKind::Gauge:
        into.gauge += rhs.gauge;
        break;
      case MetricKind::Latency:
        into.latency.merge(rhs.latency);
        break;
    }
}

} // namespace

void
MetricSnapshot::merge(const MetricSnapshot &other)
{
    // The trials of one campaign export the same names: fold in place.
    if (std::equal(values.begin(), values.end(), other.values.begin(),
                   other.values.end(),
                   [](const MetricValue &a, const MetricValue &b) {
                       return a.name == b.name;
                   })) {
        for (std::size_t i = 0; i < values.size(); ++i)
            combine(values[i], other.values[i]);
        return;
    }
    // Merge-join of two name-sorted vectors; preserves sortedness.
    std::vector<MetricValue> merged;
    merged.reserve(values.size() + other.values.size());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < values.size() || j < other.values.size()) {
        if (j >= other.values.size() ||
            (i < values.size() &&
             values[i].name < other.values[j].name)) {
            merged.push_back(std::move(values[i++]));
            continue;
        }
        if (i >= values.size() ||
            other.values[j].name < values[i].name) {
            merged.push_back(other.values[j++]);
            continue;
        }
        MetricValue combined = std::move(values[i++]);
        combine(combined, other.values[j++]);
        merged.push_back(std::move(combined));
    }
    values = std::move(merged);
}

MetricSnapshot
MetricSnapshot::prefixed(const std::string &prefix) const
{
    MetricSnapshot out;
    out.values.reserve(values.size());
    std::string spelling = prefix;
    for (const MetricValue &value : values) {
        spelling.resize(prefix.size());
        spelling += value.name.view();
        MetricValue &tagged = out.values.emplace_back(value);
        tagged.name = MetricName(spelling);
    }
    return out;
}

json::Value
MetricSnapshot::toJson() const
{
    json::Value out = json::Value::object();
    for (const MetricValue &value : values)
        out.set(value.name.str(), value.toJson());
    return out;
}

std::size_t
MetricSnapshot::appendJson(
    std::string &out, std::span<const std::string_view> skipPrefixes) const
{
    out += '{';
    std::size_t written = 0;
    for (const MetricValue &value : values) {
        if (std::any_of(skipPrefixes.begin(), skipPrefixes.end(),
                        [&](std::string_view prefix) {
                            return value.name.starts_with(prefix);
                        }))
            continue;
        if (written++)
            out += ',';
        out += value.name.json();
        out += ':';
        value.appendJson(out);
    }
    out += '}';
    return written;
}

MetricRegistry::Slot &
MetricRegistry::slot(MetricName name, MetricKind kind)
{
    const std::uint32_t id = name.id();
    if (id < slotOf_.size() && slotOf_[id] != 0) {
        Slot &existing = slots_[slotOf_[id] - 1];
        if (existing.kind != kind)
            panic("MetricRegistry: '%s' already registered as a %s, "
                  "now requested as a %s",
                  existing.name.c_str(), metricKindName(existing.kind),
                  metricKindName(kind));
        return existing;
    }
    if (id >= slotOf_.size())
        slotOf_.resize(std::max<std::size_t>(
            {std::size_t{id} + 1, 2 * slotOf_.size(), 64}));
    Slot &added = slots_.emplace_back(
        Slot{name, kind, Counter{}, Gauge{}, LatencyStat{}});
    slotOf_[id] = static_cast<std::uint32_t>(slots_.size());
    return added;
}

Counter &
MetricRegistry::counter(MetricName name)
{
    return slot(name, MetricKind::Counter).counter;
}

Gauge &
MetricRegistry::gauge(MetricName name)
{
    return slot(name, MetricKind::Gauge).gauge;
}

LatencyStat &
MetricRegistry::latency(MetricName name)
{
    return slot(name, MetricKind::Latency).latency;
}

MetricSnapshot
MetricRegistry::snapshot() const
{
    // Exporters register the same names in the same order export after
    // export, so each thread keeps the last registration order it saw
    // and the slot order that sorts it, and sorts again only when the
    // names differ.
    thread_local std::vector<MetricName> lastNames;
    thread_local std::vector<std::uint32_t> lastOrder;
    const bool same = std::equal(
        slots_.begin(), slots_.end(), lastNames.begin(), lastNames.end(),
        [](const Slot &s, MetricName name) { return s.name == name; });
    if (!same) {
        lastNames.clear();
        lastOrder.clear();
        for (const Slot &s : slots_) {
            lastOrder.push_back(static_cast<std::uint32_t>(lastNames.size()));
            lastNames.push_back(s.name);
        }
        std::sort(lastOrder.begin(), lastOrder.end(),
                  [](std::uint32_t a, std::uint32_t b) {
                      return lastNames[a] < lastNames[b];
                  });
    }
    MetricSnapshot snap;
    snap.values.reserve(slots_.size());
    for (const std::uint32_t i : lastOrder) {
        const Slot &s = slots_[i];
        snap.values.push_back(MetricValue{s.name, s.kind, s.counter.value(),
                                          s.gauge.value(),
                                          s.latency.summary()});
    }
    return snap;
}

} // namespace uscope::obs
