/**
 * @file
 * One campaign's shard table (DESIGN.md §13), owned by svc::Scheduler:
 * pure bookkeeping, no sockets, no time.
 *
 * A campaign's [0, trials) grid is cut into contiguous shards, one
 * per worker initially.  A worker that runs dry *steals*: the live
 * shard with the most remaining work is split at its midpoint, the
 * upper half goes to the thief, and the victim is named so it can be
 * sent a shrink.  The victim may complete a few trials past the new
 * boundary before the shrink lands.  That overlap is harmless: trials
 * are bit-deterministic in their seed, and the done-bitmap here makes
 * whichever report arrives second a no-op.
 *
 * Worker death returns its live shards to the pending pool.  `next`
 * (the low-water mark of reported trials) survives, so the inheriting
 * worker resumes there, restoring rather than re-running whatever the
 * dead worker had checkpointed beyond it.
 */

#ifndef USCOPE_SVC_SHARD_HH
#define USCOPE_SVC_SHARD_HH

#include <cstddef>
#include <optional>
#include <vector>

namespace uscope::svc
{

class ShardScheduler
{
  public:
    struct Shard
    {
        std::size_t id = 0;
        std::size_t lo = 0;
        /** One past the last trial this shard covers (shrinks on
         *  steal, never grows). */
        std::size_t hi = 0;
        /** Low-water mark: every trial below it is done.  Advances on
         *  reports and when leading trials are already done (e.g.
         *  restored from a checkpoint). */
        std::size_t next = 0;
        /** Owning worker id, or -1 while pending. */
        int owner = -1;
        bool done = false;
    };

    struct Assignment
    {
        std::size_t shard = 0;
        std::size_t lo = 0;
        std::size_t hi = 0;
        /** Set when this assignment was stolen: the victim shard the
         *  daemon must send a shrink(hi = this->lo) to. */
        std::optional<std::size_t> stolenFrom;
    };

    /** Cut [0, trials) into @p shards contiguous pieces (clamped to
     *  at most one shard per trial, at least one shard). */
    ShardScheduler(std::size_t trials, std::size_t shards);

    /**
     * Claim work for @p worker: a pending shard if any, else a steal
     * (split of the live shard with the most unclaimed trials).
     * nullopt when nothing remains worth assigning.
     */
    std::optional<Assignment> assign(int worker);

    /** A trial report (possibly a duplicate; deduped here).  Returns
     *  true when @p index was new. */
    bool onTrial(std::size_t shard, std::size_t index);

    /** Worker finished its shard. */
    void onShardDone(std::size_t shard);

    /** Return @p worker's live shards to the pending pool; the
     *  returned count is how many shards went back. */
    std::size_t onWorkerDead(int worker);

    bool allDone() const { return completed_ == done_.size(); }
    std::size_t completed() const { return completed_; }
    std::size_t trials() const { return done_.size(); }
    bool isDone(std::size_t index) const { return done_[index] != 0; }
    std::size_t steals() const { return steals_; }

    const Shard &shard(std::size_t id) const { return shards_[id]; }
    std::size_t shardCount() const { return shards_.size(); }

    /** Mark @p index complete outside any shard (daemon-side
     *  checkpoint preload before dispatch). */
    void seedDone(std::size_t index);

  private:
    void advance(Shard &s);

    std::vector<Shard> shards_;
    std::vector<char> done_;
    std::size_t completed_ = 0;
    std::size_t steals_ = 0;
};

} // namespace uscope::svc

#endif // USCOPE_SVC_SHARD_HH
