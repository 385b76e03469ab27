/**
 * @file
 * Campaign result export.
 *
 * JsonFileSink persists a finished CampaignResult as the JSON report
 * that downstream tooling (plot scripts, EXPERIMENTS.md regeneration)
 * reads back.  The sink is deliberately dumb: all schema lives in
 * CampaignResult::toJson.
 */

#ifndef USCOPE_EXP_RESULT_SINK_HH
#define USCOPE_EXP_RESULT_SINK_HH

#include <string>

#include "exp/campaign.hh"

namespace uscope::exp
{

/**
 * Writes each campaign, trials included, to `<dir>/<campaign
 * name>.json` (name through sanitizeFileName), pretty-printed and
 * replacing any previous report of the same name.  The write is atomic
 * (tmp + rename via writeFileAtomic), so a concurrent reader or a kill
 * mid-write never observes a torn report.  Throws SimFatal when the
 * file cannot be written.
 */
class JsonFileSink
{
  public:
    explicit JsonFileSink(std::string dir);

    void consume(const CampaignResult &result);

    /** Path the most recent consume() wrote to ("" before the first). */
    const std::string &lastPath() const { return lastPath_; }

  private:
    std::string dir_;
    std::string lastPath_;
};

} // namespace uscope::exp

#endif // USCOPE_EXP_RESULT_SINK_HH
