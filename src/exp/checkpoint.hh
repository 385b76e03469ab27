/**
 * @file
 * Campaign checkpoint/resume.
 *
 * A CampaignSpec with a non-empty checkpointDir persists every
 * finished trial to its own file the moment it completes, each write
 * going through writeFileAtomic (tmp + rename) so a kill at any
 * instant leaves either the previous file or the new one — never a
 * torn one.  A manifest records the spec identity (name, trial count,
 * master seed, cycle budget, retry policy); a rerun whose spec matches
 * the manifest restores completed trials and only executes the rest,
 * and because trials are bit-deterministic in their seed, the resumed
 * campaign's aggregate is bit-identical to an uninterrupted run.
 *
 * The serialization is a self-describing text format, not JSON:
 * doubles must round-trip *bit-exactly* for the resumed aggregate to
 * match, so every double is stored as the 16 hex digits of its bit
 * pattern, and every integer as bare decimal digits (no sign).  Trial
 * payloads (arbitrary json::Value trees) are stored as their compact
 * dump and restored as json::Value::raw, which re-emits the original
 * bytes verbatim.  The same record is the campaign service's trial
 * frame payload, so its bytes are pinned by a test.
 *
 * Failed trials are deliberately *not* persisted: a failure may have
 * been caused by whatever interrupted the campaign, so a resume
 * re-attempts it.  Ok, TimedOut, and Retried trials are deterministic
 * measurements and are skipped on resume.
 *
 * Shard manifests (DESIGN.md §13): the checkpoint directory doubles
 * as the campaign service's durable shard-handoff token.  Several
 * worker *processes* may attach to one directory concurrently — the
 * manifest is written once by the daemon before any shard is
 * dispatched, every worker verifies its own spec against it, and
 * per-trial files are keyed by absolute trial index, so two workers
 * racing on a stolen range write byte-identical files (trials are
 * bit-deterministic in their seed) and the atomic rename makes the
 * race harmless.  A reassigned shard resumes by consulting
 * loadTrial() per index and re-running only what is missing.
 */

#ifndef USCOPE_EXP_CHECKPOINT_HH
#define USCOPE_EXP_CHECKPOINT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/fsio.hh"
#include "exp/campaign.hh"

namespace uscope::exp
{

/** The campaign runner's view of one checkpoint directory. */
class CampaignCheckpoint
{
  public:
    /**
     * Bind to @p spec's checkpointDir (inert when empty).  Creates the
     * directory on demand.  An existing manifest that matches the spec
     * switches the checkpoint into resume mode; a mismatched one (the
     * directory holds some other campaign's state) is discarded with a
     * warning — stale trial files are removed and a fresh manifest
     * written.
     */
    explicit CampaignCheckpoint(const CampaignSpec &spec);

    bool enabled() const { return !dir_.empty(); }

    /** True when a matching manifest was found, i.e. this run resumes
     *  a previous one. */
    bool resuming() const { return resuming_; }

    /**
     * Restore every persisted trial into @p results / @p done (both
     * sized to the trial count).  A file that is missing, corrupt, or
     * whose seed does not match the derivation for its index is
     * skipped with a warning — the trial simply re-runs.  Returns the
     * number of trials restored.
     */
    std::size_t load(std::vector<TrialResult> &results,
                     std::vector<char> &done) const;

    /**
     * Restore one trial, or nullopt when it must (re-)run.  This is
     * the shard-resume primitive (exp::runShardRange, the campaign
     * service): a missing file is a trial that never completed; a
     * truncated, non-parseable, or otherwise invalid file — index
     * mismatch, a seed that does not match the derivation for this
     * index, a persisted Failed status (store() never writes those) —
     * is logged as a warning and treated exactly like a missing one,
     * so a torn checkpoint costs re-running *that trial*, never an
     * aborted campaign.  Inert (always nullopt) when resuming() is
     * false.
     */
    std::optional<TrialResult> loadTrial(std::size_t index) const;

    /**
     * Persist one finished trial (atomic write; Failed trials are
     * skipped — see the file comment).  Best-effort: an I/O failure
     * warns and keeps the campaign running; the un-persisted trial
     * just re-runs on a future resume.
     */
    void store(const TrialResult &result) const;

    /** Lossless text serialization of one trial (see file comment). */
    static std::string serializeTrial(const TrialResult &result);

    /** Append serializeTrial(@p result) JSON-escaped, as the body of
     *  a JSON string (no quotes), in the same single pass. */
    static void appendEscapedTrial(std::string &out,
                                   const TrialResult &result);

    /** Inverse of serializeTrial; nullopt on any malformed input. */
    static std::optional<TrialResult> parseTrial(const std::string &text);

  private:
    std::string manifestPath() const;
    std::string trialPath(std::size_t index) const;
    std::string manifestText() const;

    std::string dir_;
    std::string name_;
    std::size_t trials_ = 0;
    std::uint64_t masterSeed_ = 0;
    std::uint64_t cycleBudget_ = 0;
    unsigned maxRetries_ = 0;
    bool resuming_ = false;
};

} // namespace uscope::exp

#endif // USCOPE_EXP_CHECKPOINT_HH
