/**
 * @file
 * Phase profiling (DESIGN.md §14): wall-time latency per named phase,
 * behind a zero-cost-when-off RAII timer.
 *
 * The taxonomy is dot-path phase names, mirroring the metric
 * namespace:
 *
 *   prof.trial.warmup    cold warmup of a trial's Machine
 *   prof.trial.fork      snapshot restore + reseed of a warm fork
 *   prof.trial.run       the trial body itself
 *   prof.trial.export    trace drain + spill write
 *   prof.svc.dispatch    daemon shard assignment + frame send
 *   prof.svc.merge       daemon partial/final aggregate folds
 *   prof.svc.checkpoint  daemon-side checkpoint preload on submit
 *
 * `ProfScope` reads the clock only when handed a non-null ProfData —
 * a disabled caller passes nullptr and pays two pointer compares.
 * Wall times are inherently nondeterministic, so ProfData NEVER flows
 * into TrialOutput::metrics or any fingerprinted surface: it rides
 * side channels only (CampaignResult::prof -> campaign JSON "prof",
 * worker heartbeats -> the daemon's stats reply).
 *
 * ObsLevel — the campaign-wide observability dial — lives here too:
 * it gates both profiling (>= Metrics) and per-trial event tracing
 * (Trace).
 */

#ifndef USCOPE_OBS_PROF_HH
#define USCOPE_OBS_PROF_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/json.hh"
#include "common/stats.hh"

namespace uscope::obs
{

/** The campaign observability dial (--obs=LEVEL). */
enum class ObsLevel : int
{
    Off = 0,     ///< No profiling, no tracing.
    Metrics = 1, ///< Phase profiling + metric export only.
    Trace = 2,   ///< Metrics + per-trial event traces (and spills).
};

/** Printable name ("off", "metrics", "trace"). */
const char *obsLevelName(ObsLevel level);

/** Inverse of obsLevelName; nullopt on anything else. */
std::optional<ObsLevel> parseObsLevel(const std::string &name);

/** Accumulated wall-time per phase (insertion-ordered by name). */
class ProfData
{
  public:
    /** Fold one measured span into @p phase. */
    void
    add(const std::string &phase, double seconds)
    {
        phases_[phase].add(seconds);
    }

    /** Fold another ProfData in (cross-worker aggregation). */
    void
    merge(const ProfData &other)
    {
        for (const auto &[phase, summary] : other.phases_)
            phases_[phase].merge(summary);
    }

    bool empty() const { return phases_.empty(); }
    const std::map<std::string, Summary> &phases() const
    {
        return phases_;
    }

    /** `{phase: {count,total_seconds,mean_seconds,max_seconds}}`. */
    json::Value toJson() const;

    /** Round-trip for the wire (worker -> daemon): toJson() form in,
     *  summaries rebuilt losslessly enough for display (count + total
     *  + mean + max; stddev is not carried). */
    static ProfData fromJson(const json::Value &value);

  private:
    std::map<std::string, Summary> phases_;
};

/**
 * RAII phase timer.  Null @p data disables it entirely — no clock
 * read, no allocation — which is how ObsLevel::Off stays invisible in
 * the A/B bench.
 */
class ProfScope
{
  public:
    ProfScope(ProfData *data, const char *phase)
        : data_(data), phase_(phase)
    {
        if (data_)
            start_ = std::chrono::steady_clock::now();
    }

    ~ProfScope()
    {
        if (data_)
            data_->add(phase_,
                       std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    ProfData *data_;
    const char *phase_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace uscope::obs

#endif // USCOPE_OBS_PROF_HH
