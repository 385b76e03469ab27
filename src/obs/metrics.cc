#include "obs/metrics.hh"

#include <algorithm>

#include "common/logging.hh"

namespace uscope::obs
{

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
MetricSnapshot::find(const std::string &name) const
{
    const auto it = std::lower_bound(
        values.begin(), values.end(), name,
        [](const MetricValue &v, const std::string &n) {
            return v.name < n;
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
    for (const MetricValue &value : values) {
        MetricValue tagged = value;
        tagged.name = prefix + value.name;
        out.values.push_back(std::move(tagged));
    }
    return out;
}

json::Value
MetricSnapshot::toJson() const
{
    json::Value out = json::Value::object();
    for (const MetricValue &value : values)
        out.set(value.name, value.toJson());
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
        json::appendString(out, value.name);
        out += ':';
        value.appendJson(out);
    }
    out += '}';
    return written;
}

MetricRegistry::Slot &
MetricRegistry::slot(std::string_view name, MetricKind kind)
{
    const auto it = index_.find(name);
    if (it != index_.end()) {
        Slot &existing = slots_[it->second];
        if (existing.kind != kind)
            panic("MetricRegistry: '%s' already registered as a %s, "
                  "now requested as a %s",
                  existing.name.c_str(), metricKindName(existing.kind),
                  metricKindName(kind));
        return existing;
    }
    Slot &added = slots_.emplace_back(
        Slot{std::string(name), kind, Counter{}, Gauge{}, LatencyStat{}});
    index_.emplace(added.name, slots_.size() - 1);
    return added;
}

Counter &
MetricRegistry::counter(std::string_view name)
{
    return slot(name, MetricKind::Counter).counter;
}

Gauge &
MetricRegistry::gauge(std::string_view name)
{
    return slot(name, MetricKind::Gauge).gauge;
}

LatencyStat &
MetricRegistry::latency(std::string_view name)
{
    return slot(name, MetricKind::Latency).latency;
}

MetricSnapshot
MetricRegistry::snapshot() const
{
    // Sort pointers, then copy each slot once, in name order.
    std::vector<const Slot *> order;
    order.reserve(slots_.size());
    for (const Slot &s : slots_)
        order.push_back(&s);
    std::sort(order.begin(), order.end(),
              [](const Slot *a, const Slot *b) { return a->name < b->name; });
    MetricSnapshot snap;
    snap.values.reserve(order.size());
    for (const Slot *s : order)
        snap.values.push_back(MetricValue{s->name, s->kind,
                                          s->counter.value(),
                                          s->gauge.value(),
                                          s->latency.summary()});
    return snap;
}

} // namespace uscope::obs
