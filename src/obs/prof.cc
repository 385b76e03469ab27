#include "obs/prof.hh"

namespace uscope::obs
{

const char *
obsLevelName(ObsLevel level)
{
    switch (level) {
      case ObsLevel::Off: return "off";
      case ObsLevel::Metrics: return "metrics";
      case ObsLevel::Trace: return "trace";
    }
    return "?";
}

std::optional<ObsLevel>
parseObsLevel(const std::string &name)
{
    for (ObsLevel level :
         {ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Trace}) {
        if (name == obsLevelName(level))
            return level;
    }
    return std::nullopt;
}

json::Value
ProfData::toJson() const
{
    json::Value out = json::Value::object();
    for (const auto &[phase, summary] : phases_) {
        out.set(phase,
                json::Value::object()
                    .set("count", summary.count())
                    .set("total_seconds",
                         summary.mean() *
                             static_cast<double>(summary.count()))
                    .set("mean_seconds", summary.mean())
                    .set("max_seconds", summary.rawMax()));
    }
    return out;
}

ProfData
ProfData::fromJson(const json::Value &value)
{
    ProfData out;
    if (!value.isObject())
        return out;
    for (const auto &[phase, entry] : value.entries()) {
        const json::Value *count = entry.get("count");
        const json::Value *mean = entry.get("mean_seconds");
        const json::Value *max = entry.get("max_seconds");
        if (!count || !mean || !max)
            continue;
        // Rebuild a Summary with the carried moments; m2 (variance)
        // is not transported — display surfaces report count/mean/max.
        out.phases_[phase].merge(Summary::fromParts(
            count->asU64(), mean->asDouble(), 0.0, max->asDouble(),
            max->asDouble()));
    }
    return out;
}

} // namespace uscope::obs
