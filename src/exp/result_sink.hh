/**
 * @file
 * Campaign result export.
 *
 * A ResultSink consumes a finished CampaignResult and persists it —
 * the bench trajectory writes JSON reports that downstream tooling
 * (plot scripts, EXPERIMENTS.md regeneration) reads back.  Sinks are
 * deliberately dumb: all schema lives in CampaignResult::toJson.
 */

#ifndef USCOPE_EXP_RESULT_SINK_HH
#define USCOPE_EXP_RESULT_SINK_HH

#include <ostream>
#include <string>

#include "exp/campaign.hh"

namespace uscope::exp
{

/** Consumer of finished campaigns. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    virtual void consume(const CampaignResult &result) = 0;
};

/**
 * Writes each campaign as one pretty-printed JSON document to a
 * caller-owned stream (e.g. std::cout), separated by newlines.
 */
class JsonStreamSink : public ResultSink
{
  public:
    /** @param include_trials Also emit the per-trial result array. */
    explicit JsonStreamSink(std::ostream &os, bool include_trials = true,
                            int indent = 2);

    void consume(const CampaignResult &result) override;

  private:
    std::ostream &os_;
    bool includeTrials_;
    int indent_;
};

/**
 * Writes each campaign to `<dir>/<campaign name>.json`, replacing any
 * previous report of the same name.  The write is atomic (tmp +
 * rename via writeFileAtomic), so a concurrent reader or a kill
 * mid-write never observes a torn report.  Throws SimFatal when the
 * file cannot be written.
 */
class JsonFileSink : public ResultSink
{
  public:
    explicit JsonFileSink(std::string dir, bool include_trials = true,
                          int indent = 2);

    void consume(const CampaignResult &result) override;

    /** Path the most recent consume() wrote to ("" before the first). */
    const std::string &lastPath() const { return lastPath_; }

  private:
    std::string dir_;
    bool includeTrials_;
    int indent_;
    std::string lastPath_;
};

} // namespace uscope::exp

#endif // USCOPE_EXP_RESULT_SINK_HH
