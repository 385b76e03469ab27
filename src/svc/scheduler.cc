#include "svc/scheduler.hh"

#include <algorithm>
#include <cinttypes>
#include <deque>
#include <map>
#include <optional>

#include "common/fsio.hh"
#include "common/logging.hh"
#include "exp/campaign.hh"
#include "exp/checkpoint.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "svc/registry.hh"
#include "svc/shard.hh"
#include "svc/wire.hh"

namespace uscope::svc
{

namespace
{

constexpr Logger log_{"svc.daemon"};

/** A count as a JSON number. */
json::Value
num(std::size_t n)
{
    return static_cast<std::uint64_t>(n);
}

/** A worker's lifetime counters (a flat JSON object) as a snapshot. */
obs::MetricSnapshot
countersSnapshot(const json::Value &counters)
{
    obs::MetricRegistry registry;
    for (const auto &[name, value] : counters.entries())
        registry.counter(name).set(value.asU64());
    return registry.snapshot();
}

/** The `request` member of a submit, attach, cancel or manifest. */
std::optional<CampaignRequest>
requestOf(const json::Value &msg)
{
    const json::Value *request = msg.get("request");
    return request ? CampaignRequest::fromJson(*request) : std::nullopt;
}

/** An error frame; @p code, when given, is machine-readable (a
 *  "not_found" sends clients back to submit). */
json::Value
errorFrame(std::uint64_t campaign, std::string message,
           const char *code = nullptr)
{
    json::Value frame =
        json::Value::object().set("type", "error").set("campaign", campaign);
    if (code)
        frame.set("code", code);
    frame.set("message", std::move(message));
    return frame;
}

/** Tell a worker its shard now ends at @p hi (0 stops it at the next
 *  trial boundary): steals, cancels and drains all say it this way. */
json::Value
shrinkFrame(std::size_t shard, std::size_t hi)
{
    return json::Value::object()
        .set("type", "shrink")
        .set("shard", num(shard))
        .set("hi", num(hi));
}

} // namespace

struct Scheduler::Impl
{
    struct WorkerSlot
    {
        int id = 0;
        /** Process id, for the stats reply only. */
        long pid = -1;
        /** Spawned and not yet reported dead. */
        bool alive = false;
        /** Said hello; frames can reach it. */
        bool connected = false;
        bool busy = false;
        std::uint64_t campaign = 0;
        std::size_t shard = 0;
        unsigned spawns = 0;
        /** SIGKILLs asked for: heartbeat timeouts, lost links. */
        unsigned kills = 0;
        /** Earliest time a dead slot may respawn. */
        double respawnAt = 0.0;
        /** Warned of the current silence (reset by any frame). */
        bool warned = false;
        double lastBeat = 0.0;
        json::Value counters = json::Value::object();
        /** Its latest prof.trial.* lifetime totals. */
        json::Value prof = json::Value::object();
    };

    /** Per-worker trial credit, given at the dedup point, so the
     *  credits sum to the completed count. */
    struct Credit
    {
        std::uint64_t run = 0;
        std::uint64_t restored = 0;
    };

    struct Campaign
    {
        std::uint64_t id = 0;
        CampaignRequest request;
        /** Its checkpointDir is set with a stateDir. */
        exp::CampaignSpec spec;
        std::unique_ptr<ShardScheduler> sched;
        std::vector<exp::TrialResult> results;
        std::size_t resumed = 0;
        /** Owning client session; 0 (no session has it) when none. */
        std::uint64_t clientKey = 0;
        std::size_t streamEvery = 0;
        std::size_t sinceUpdate = 0;
        unsigned workerDeaths = 0;
        std::map<int, Credit> credits;
        double start = 0.0;
        /** Heartbeat-timeout kills charged per suspect trial; at
         *  DaemonConfig::trialKillLimit the trial is TimedOut. */
        std::map<std::size_t, unsigned> stuckKills;
        /** Trials this campaign gave up on (synthesized TimedOut). */
        std::uint64_t trialTimeouts = 0;
        /** Its manifest under <stateDir>/pending/, if any. */
        std::string pendingFile;
    };

    DaemonConfig config;
    std::uint64_t nextCampaignId = 1;
    std::vector<WorkerSlot> slots;
    std::deque<Campaign> campaigns;
    bool stopping = false;
    /** No new work; stop once idle or past drainDeadline. */
    bool draining = false;
    double drainDeadline = 0.0;
    /** Daemon-lifetime tallies: the svc.daemon.* metrics. */
    obs::MetricRegistry tally;
    /** prof.svc.* phases (dispatch/merge/checkpoint), always on.
     *  Observation only: no decision here reads it. */
    obs::ProfData prof;
    Actions actions;

    explicit Impl(DaemonConfig cfg)
        : config(std::move(cfg)), slots(std::max(config.workers, 1u))
    {
        for (std::size_t i = 0; i < slots.size(); ++i)
            slots[i].id = static_cast<int>(i);
        // Every tally is in the stats reply from the start, zeros too.
        for (const char *name :
             {"bad_frames", "campaigns_accepted", "campaigns_cancelled",
              "campaigns_completed", "campaigns_failed", "reattached",
              "stats_requests", "steals_total", "trial_timeouts",
              "trial_warns", "trials_completed", "trials_restored",
              "worker_deaths"})
            tally.counter(std::string("svc.daemon.") + name);
    }

    void
    act(Action::Kind kind, std::uint64_t target, json::Value frame = {},
        std::string path = {})
    {
        actions.push_back({kind, target, std::move(frame), std::move(path)});
    }

    void
    toClient(std::uint64_t key, json::Value frame)
    {
        if (key != 0)
            act(Action::Kind::ToClient, key, std::move(frame));
    }

    void
    toWorker(const WorkerSlot &slot, json::Value frame)
    {
        if (slot.connected)
            act(Action::Kind::ToWorker, static_cast<std::uint64_t>(slot.id),
                std::move(frame));
    }

    Campaign *
    campaignById(std::uint64_t id)
    {
        for (Campaign &c : campaigns)
            if (c.id == id)
                return &c;
        return nullptr;
    }

    Campaign *
    campaignByIdentity(const CampaignRequest &request)
    {
        const std::string key = request.identityKey();
        for (Campaign &c : campaigns)
            if (c.request.identityKey() == key)
                return &c;
        return nullptr;
    }

    void
    eraseCampaign(std::uint64_t id)
    {
        std::erase_if(campaigns,
                      [id](const Campaign &c) { return c.id == id; });
    }

    WorkerSlot *
    slotById(int id)
    {
        if (id < 0 || id >= static_cast<int>(slots.size()))
            return nullptr;
        return &slots[static_cast<std::size_t>(id)];
    }

    // -----------------------------------------------------------------
    // Worker slots.
    // -----------------------------------------------------------------

    void
    workerDied(double now, WorkerSlot &slot, const char *why)
    {
        log_.warn("worker %d (pid %ld) died: %s", slot.id, slot.pid, why);
        tally.counter("svc.daemon.worker_deaths").inc();
        slot.alive = slot.connected = slot.busy = false;
        slot.pid = -1;
        for (Campaign &c : campaigns)
            if (c.sched->onWorkerDead(slot.id) > 0)
                ++c.workerDeaths;
        // The delay keeps a slot whose worker dies at start-up from
        // respawning at loop frequency.
        slot.respawnAt = now + kRespawnDelaySec;
    }

    /** Respawn every dead slot whose respawn delay has elapsed. */
    void
    maintainWorkers(double now)
    {
        if (stopping || draining)
            return;
        for (WorkerSlot &slot : slots) {
            if (slot.alive || now < slot.respawnAt)
                continue;
            act(Action::Kind::Spawn, static_cast<std::uint64_t>(slot.id));
            slot.alive = true;
            ++slot.spawns;
            slot.warned = false;
            slot.lastBeat = now;
        }
    }

    /** Record a trial that keeps killing workers TimedOut — a
     *  measurement, like a blown cycle budget — so the campaign can
     *  complete.  Not checkpointed: a later resume retries it. */
    void
    synthesizeTimedOut(Campaign &c, std::size_t index)
    {
        if (c.sched->isDone(index))
            return;
        exp::TrialResult result;
        result.index = index;
        result.seed = exp::deriveTrialSeed(c.spec.masterSeed, index);
        result.status = exp::TrialStatus::TimedOut;
        result.error = "gave up after " +
                       std::to_string(config.trialKillLimit) +
                       " worker kills while stuck on this trial";
        c.results[index] = std::move(result);
        c.sched->seedDone(index);
        ++c.trialTimeouts;
        tally.counter("svc.daemon.trial_timeouts").inc();
        ++c.sinceUpdate;
        log_.warn("campaign %" PRIu64 " trial %zu marked TimedOut after "
                  "%u worker kills", c.id, index, config.trialKillLimit);
    }

    /** The warn -> kill -> TimedOut ladder for busy, silent workers
     *  (DESIGN.md §16). */
    void
    checkHeartbeats(double now)
    {
        for (WorkerSlot &slot : slots) {
            if (!slot.busy)
                continue;
            const double silent = now - slot.lastBeat;
            // The trial it is presumably stuck on: its shard's
            // low-water mark (everything below already streamed).
            Campaign *c = campaignById(slot.campaign);
            std::optional<std::size_t> suspect;
            if (c && slot.shard < c->sched->shardCount()) {
                const ShardScheduler::Shard &sh = c->sched->shard(slot.shard);
                if (!sh.done && sh.next < sh.hi)
                    suspect = sh.next;
            }
            if (config.trialWarnSec > 0.0 &&
                silent > config.trialWarnSec && !slot.warned) {
                slot.warned = true;
                tally.counter("svc.daemon.trial_warns").inc();
                log_.warn("worker %d busy and silent for %.1fs "
                          "(campaign %" PRIu64 ", shard %zu, trial "
                          "%lld); SIGKILL at %.1fs",
                          slot.id, silent, slot.campaign, slot.shard,
                          suspect ? static_cast<long long>(*suspect)
                                  : -1ll,
                          config.heartbeatTimeoutSec);
            }
            if (silent <= config.heartbeatTimeoutSec)
                continue;
            // Busy and silent past the timeout: presumed wedged.
            // Charge the kill to the trial the worker was stuck on;
            // at the limit, stop retrying and record it TimedOut.
            if (suspect &&
                ++c->stuckKills[*suspect] >= config.trialKillLimit)
                synthesizeTimedOut(*c, *suspect);
            act(Action::Kind::Kill, static_cast<std::uint64_t>(slot.id));
            ++slot.kills;
            workerDied(now, slot, "heartbeat timeout");
        }
    }

    // -----------------------------------------------------------------
    // Campaign lifecycle.
    // -----------------------------------------------------------------

    /** Partial aggregate over completed trials, in index order — the
     *  same fold the final result uses, with no copies. */
    exp::CampaignAggregate
    partialAggregate(const Campaign &c)
    {
        obs::ProfScope timer(&prof, "prof.svc.merge");
        exp::CampaignAggregate aggregate;
        for (std::size_t i = 0; i < c.results.size(); ++i)
            if (c.sched->isDone(i))
                aggregate.add(c.results[i]);
        return aggregate;
    }

    /** Per-worker credits as `{"<id>": {run, restored}}`. */
    static json::Value
    creditsJson(const Campaign &c)
    {
        json::Value out = json::Value::object();
        for (const auto &[worker, credit] : c.credits)
            out.set(std::to_string(worker),
                    json::Value::object()
                        .set("run", credit.run)
                        .set("restored", credit.restored));
        return out;
    }

    /** Submits and startup resumes alike: build the spec, attach the
     *  durable state, shard, announce.  Returns the error text for
     *  the caller to frame. */
    std::optional<std::string>
    acceptCampaign(double now, const CampaignRequest &request,
                   std::size_t stream_every, std::uint64_t client)
    {
        Campaign c;
        c.id = nextCampaignId++;
        c.request = request;
        try {
            c.spec = buildSpec(c.request);
        } catch (const std::exception &e) {
            return std::string(e.what());
        }
        if (c.spec.trials == 0)
            return std::string("campaign has zero trials");
        c.clientKey = client;
        c.streamEvery = stream_every;
        c.start = now;
        c.results.resize(c.spec.trials);
        c.sched = std::make_unique<ShardScheduler>(c.spec.trials,
                                                   slots.size());

        if (!config.stateDir.empty()) {
            obs::ProfScope timer(&prof, "prof.svc.checkpoint");
            // The durable key, <sanitized name>-<identity hash>, covers
            // all that determines results (not the obs level): the
            // same request after a restart resumes the same state.
            const std::string key =
                sanitizeFileName(c.spec.name) + "-" +
                exp::fnv1aHex(c.request.identityKey()).substr(2);
            c.spec.checkpointDir = config.stateDir + "/" + key;
            const exp::CampaignCheckpoint checkpoint(c.spec);
            for (std::size_t i = 0; checkpoint.resuming() &&
                                    i < c.spec.trials;
                 ++i) {
                if (std::optional<exp::TrialResult> trial =
                        checkpoint.loadTrial(i)) {
                    c.results[i] = std::move(*trial);
                    c.sched->seedDone(i);
                    ++c.resumed;
                }
            }
            // Enough to resubmit the campaign after a restart.
            c.pendingFile = config.stateDir + "/pending/" + key + ".json";
            act(Action::Kind::WriteManifest, c.id,
                json::Value::object()
                    .set("request", c.request.toJson())
                    .set("stream_every", num(c.streamEvery)),
                c.pendingFile);
        }

        toClient(client, json::Value::object()
                             .set("type", "accepted")
                             .set("campaign", c.id)
                             .set("total", num(c.spec.trials))
                             .set("resumed", num(c.resumed)));
        tally.counter("svc.daemon.campaigns_accepted").inc();
        log_.info("campaign %" PRIu64 " '%s' accepted (%zu trials, %zu "
                  "resumed, obs=%s%s)",
                  c.id, c.spec.name.c_str(), c.spec.trials, c.resumed,
                  obs::obsLevelName(c.request.obs),
                  client ? "" : ", orphan resume");
        campaigns.push_back(std::move(c));
        assignIdleWorkers(now);
        finishCompleted(now); // a fully-resumed campaign is already done
        return std::nullopt;
    }

    void
    removePendingManifest(Campaign &c)
    {
        if (!c.pendingFile.empty())
            act(Action::Kind::RemoveManifest, c.id, {},
                std::exchange(c.pendingFile, {}));
    }

    void
    handleSubmit(double now, std::uint64_t client,
                 const CampaignRequest &request, const json::Value &msg)
    {
        if (draining)
            return toClient(client,
                            errorFrame(0, "daemon is draining; resubmit "
                                          "after restart (durable state "
                                          "resumes)"));
        const std::size_t stream_every =
            msg.get("stream_every") ? field(msg, "stream_every")
                                    : config.streamEvery;
        if (std::optional<std::string> error =
                acceptCampaign(now, request, stream_every, client))
            toClient(client, errorFrame(0, std::move(*error)));
    }

    /** Re-bind the running campaign with this request's identity to
     *  @p client and replay its partial at once.  Attach changes who
     *  listens, never what runs, so the fingerprint is unchanged. */
    void
    handleAttach(std::uint64_t client, const CampaignRequest &request,
                 const json::Value &msg)
    {
        Campaign *c = campaignByIdentity(request);
        if (!c)
            return toClient(client,
                            errorFrame(0,
                                       "no running campaign matches this "
                                       "request; submit instead (durable "
                                       "state resumes)",
                                       "not_found"));
        c->clientKey = client;
        if (msg.get("stream_every"))
            c->streamEvery = field(msg, "stream_every");
        tally.counter("svc.daemon.reattached").inc();
        log_.info("campaign %" PRIu64 " re-attached by session %" PRIu64,
                  c->id, client);
        toClient(client, json::Value::object()
                             .set("type", "attached")
                             .set("campaign", c->id)
                             .set("total", num(c->sched->trials()))
                             .set("resumed", num(c->resumed)));
        // Catch the new listener up to the last acked partial right
        // away rather than waiting out streamEvery.
        maybeStreamUpdate(*c, /*force=*/true);
    }

    /** Cancel by id or by identity: busy shards shrink to zero, the
     *  owner and the canceller get the partial aggregate, the
     *  checkpoint stays and the pending manifest goes (a cancel must
     *  not resurrect at the next start). */
    void
    handleCancel(std::uint64_t client, const json::Value &msg)
    {
        Campaign *c = nullptr;
        std::uint64_t id = 0;
        if (msg.get("campaign")) {
            id = field(msg, "campaign");
            c = campaignById(id);
        } else if (const std::optional<CampaignRequest> request =
                       requestOf(msg)) {
            c = campaignByIdentity(*request);
        } else {
            return toClient(client,
                            errorFrame(0, "cancel needs a \"campaign\" "
                                          "id or a \"request\""));
        }
        if (!c)
            return toClient(client,
                            errorFrame(id, "no such campaign", "not_found"));
        for (const WorkerSlot &slot : slots)
            if (slot.busy && slot.campaign == c->id)
                toWorker(slot, shrinkFrame(slot.shard, 0));
        const std::string &dir = c->spec.checkpointDir;
        json::Value frame =
            json::Value::object()
                .set("type", "cancelled")
                .set("campaign", c->id)
                .set("reason", "cancelled by client")
                .set("completed", num(c->sched->completed()))
                .set("total", num(c->sched->trials()))
                .set("aggregate", partialAggregate(*c).toJson())
                .set("credits", creditsJson(*c))
                .set("checkpoint_dir", dir);
        if (c->clientKey != client)
            toClient(c->clientKey, frame);
        toClient(client, std::move(frame));
        removePendingManifest(*c);
        tally.counter("svc.daemon.campaigns_cancelled").inc();
        log_.info("campaign %" PRIu64 " '%s' cancelled: %zu/%zu trials "
                  "done, checkpoint %s",
                  c->id, c->spec.name.c_str(), c->sched->completed(),
                  c->sched->trials(), dir.empty() ? "none" : dir.c_str());
        eraseCampaign(c->id);
    }

    /** Refuse new work and shrink every busy shard to zero; the
     *  manifests stay for the next daemon, and drainProgress stops
     *  once the workers are idle or the grace runs out. */
    void
    beginDrain(double now)
    {
        if (draining || stopping)
            return;
        draining = true;
        drainDeadline = now + kDrainGraceSec;
        log_.info("draining: %zu campaign(s) in flight, grace %.1fs",
                  campaigns.size(), kDrainGraceSec);
        for (const WorkerSlot &slot : slots)
            if (slot.busy)
                toWorker(slot, shrinkFrame(slot.shard, 0));
        // Informational only — the durable state is the contract; a
        // client that misses this learns from the dropped connection.
        for (const Campaign &c : campaigns)
            toClient(c.clientKey, json::Value::object()
                                      .set("type", "draining")
                                      .set("campaign", c.id));
    }

    void
    drainProgress(double now)
    {
        if (!draining || stopping)
            return;
        for (const WorkerSlot &slot : slots) {
            if (!slot.busy)
                continue;
            if (now <= drainDeadline)
                return; // still waiting on a trial boundary
            log_.warn("drain grace expired with busy workers; "
                      "exiting anyway (checkpoints cover the cut)");
            break;
        }
        log_.info("drain complete; %zu campaign(s) left resumable",
                  campaigns.size());
        stop();
    }

    void
    stop()
    {
        stopping = true;
        act(Action::Kind::Stop, 0);
    }

    /** Per-worker metric streams, tagged "svc.worker<id>.". */
    obs::MetricSnapshot
    workerMetrics() const
    {
        obs::MetricSnapshot merged;
        for (const WorkerSlot &slot : slots) {
            obs::MetricSnapshot snap = countersSnapshot(slot.counters);
            if (!snap.empty())
                merged.merge(snap.prefixed(
                    "svc.worker" + std::to_string(slot.id) + "."));
        }
        return merged;
    }

    /** The live ops snapshot (DESIGN.md §14): shard tables, credits,
     *  worker slots, svc.* metrics and the merged prof.* phases. */
    json::Value
    statsFrame(double now)
    {
        tally.counter("svc.daemon.stats_requests").inc();
        json::Value campaign_list = json::Value::array();
        for (const Campaign &c : campaigns) {
            json::Value shard_list = json::Value::array();
            std::uint64_t pending = 0;
            for (std::size_t s = 0; s < c.sched->shardCount(); ++s) {
                const ShardScheduler::Shard &sh = c.sched->shard(s);
                pending += sh.done ? 0 : 1;
                shard_list.push(json::Value::object()
                                    .set("id", num(sh.id))
                                    .set("lo", num(sh.lo))
                                    .set("hi", num(sh.hi))
                                    .set("next", num(sh.next))
                                    .set("owner", sh.owner)
                                    .set("done", sh.done));
            }
            campaign_list.push(
                json::Value::object()
                    .set("id", c.id)
                    .set("name", c.spec.name)
                    .set("recipe", c.request.recipe)
                    .set("obs", obs::obsLevelName(c.request.obs))
                    .set("total", num(c.sched->trials()))
                    .set("completed", num(c.sched->completed()))
                    .set("resumed", num(c.resumed))
                    .set("steals", num(c.sched->steals()))
                    .set("worker_deaths", c.workerDeaths)
                    .set("trial_timeouts", c.trialTimeouts)
                    .set("age_seconds", now - c.start)
                    .set("stream_every", num(c.streamEvery))
                    .set("pending_shards", pending)
                    .set("credits", creditsJson(c))
                    .set("shards", std::move(shard_list)));
        }

        json::Value worker_list = json::Value::array();
        obs::ProfData prof_merged = prof;
        for (const WorkerSlot &slot : slots) {
            worker_list.push(
                json::Value::object()
                    .set("id", slot.id)
                    .set("pid", static_cast<std::int64_t>(slot.pid))
                    .set("busy", slot.busy)
                    .set("spawns", slot.spawns)
                    .set("kills", slot.kills)
                    .set("heartbeat_age_seconds", now - slot.lastBeat)
                    .set("campaign",
                         slot.busy ? slot.campaign : std::uint64_t(0))
                    .set("shard", num(slot.busy ? slot.shard : 0))
                    .set("counters", slot.counters));
            prof_merged.merge(obs::ProfData::fromJson(slot.prof));
        }

        obs::MetricSnapshot metrics = tally.snapshot();
        metrics.merge(workerMetrics());
        return json::Value::object()
            .set("type", "stats")
            .set("uptime_seconds", now)
            .set("shutting_down", stopping)
            .set("draining", draining)
            .set("workers", num(slots.size()))
            .set("campaigns", std::move(campaign_list))
            .set("worker_table", std::move(worker_list))
            .set("metrics", metrics.toJson())
            .set("prof", prof_merged.toJson());
    }

    void
    maybeStreamUpdate(Campaign &c, bool force = false)
    {
        // force (attach catch-up) streams even when the campaign
        // asked for no periodic updates.
        if (!force &&
            (c.streamEvery == 0 || c.sinceUpdate < c.streamEvery))
            return;
        c.sinceUpdate = 0;
        if (c.clientKey == 0)
            return;
        toClient(c.clientKey,
                 json::Value::object()
                     .set("type", "update")
                     .set("campaign", c.id)
                     .set("completed", num(c.sched->completed()))
                     .set("total", num(c.sched->trials()))
                     .set("aggregate", partialAggregate(c).toJson())
                     .set("credits", creditsJson(c))
                     .set("worker_metrics", workerMetrics().toJson()));
    }

    void
    finishCompleted(double now)
    {
        for (auto it = campaigns.begin(); it != campaigns.end();) {
            Campaign &c = *it;
            if (!c.sched->allDone()) {
                ++it;
                continue;
            }
            exp::CampaignResult result;
            result.name = c.spec.name;
            result.trialCount = c.spec.trials;
            result.masterSeed = c.spec.masterSeed;
            result.workers = static_cast<unsigned>(slots.size());
            result.wallSeconds = now - c.start;
            result.resumedTrials = c.resumed;
            result.workerDeaths = c.workerDeaths;
            {
                obs::ProfScope timer(&prof, "prof.svc.merge");
                result.aggregate = exp::aggregateTrials(c.results);
            }
            // The campaign is erased below; its trials move out.
            result.trials = std::move(c.results);
            const std::string fingerprint =
                exp::fnv1aHex(exp::deterministicFingerprint(result));
            removePendingManifest(c);
            tally.counter("svc.daemon.campaigns_completed").inc();
            log_.info("campaign %" PRIu64 " '%s' complete: %zu trials, "
                      "%zu resumed, %u worker deaths, %zu steals, "
                      "fingerprint %s",
                      c.id, result.name.c_str(), result.trialCount,
                      result.resumedTrials, result.workerDeaths,
                      c.sched->steals(), fingerprint.c_str());
            if (c.clientKey != 0) {
                std::string report;
                result.appendJson(report);
                toClient(c.clientKey,
                         json::Value::object()
                             .set("type", "result")
                             .set("campaign", c.id)
                             .set("fingerprint", fingerprint)
                             .set("worker_deaths", c.workerDeaths)
                             .set("steals", num(c.sched->steals()))
                             .set("credits", creditsJson(c))
                             .set("result",
                                  json::Value::raw(std::move(report))));
            }
            it = campaigns.erase(it);
        }
    }

    void
    assignIdleWorkers(double now)
    {
        if (campaigns.empty() || draining)
            return; // keep the idle loop out of the profile
        obs::ProfScope timer(&prof, "prof.svc.dispatch");
        for (WorkerSlot &slot : slots) {
            if (slot.busy || !slot.connected)
                continue;
            for (Campaign &c : campaigns) {
                const std::optional<ShardScheduler::Assignment> a =
                    c.sched->assign(slot.id);
                if (!a)
                    continue;
                if (a->stolenFrom) {
                    tally.counter("svc.daemon.steals_total").inc();
                    const ShardScheduler::Shard &victim =
                        c.sched->shard(*a->stolenFrom);
                    if (const WorkerSlot *owner = slotById(victim.owner))
                        toWorker(*owner, shrinkFrame(victim.id, victim.hi));
                }
                toWorker(slot,
                         json::Value::object()
                             .set("type", "shard")
                             .set("campaign", c.id)
                             .set("shard", num(a->shard))
                             .set("lo", num(a->lo))
                             .set("hi", num(a->hi))
                             .set("checkpoint_dir", c.spec.checkpointDir)
                             .set("request", c.request.toJson()));
                slot.busy = true;
                slot.campaign = c.id;
                slot.shard = a->shard;
                slot.lastBeat = now;
                break;
            }
        }
    }

    // -----------------------------------------------------------------
    // Frames.
    // -----------------------------------------------------------------

    void
    handleTrial(WorkerSlot &slot, const json::Value &msg)
    {
        Campaign *c = campaignById(field(msg, "campaign"));
        if (!c)
            return; // campaign already finished (overlap race)
        const std::size_t index = field(msg, "index");
        const json::Value *data = msg.get("data");
        std::optional<exp::TrialResult> trial =
            data ? exp::CampaignCheckpoint::parseTrial(data->asString())
                 : std::nullopt;
        if (!trial || trial->index != index) {
            log_.warn("worker %d sent an unparseable trial %zu for "
                      "campaign %" PRIu64, slot.id, index, c->id);
            return;
        }
        if (!c->sched->onTrial(field(msg, "shard"), index))
            return;
        // Whatever steal or kill replayed this trial, one worker
        // gets the credit.
        const json::Value *restored = msg.get("restored");
        Credit &credit = c->credits[slot.id];
        if (restored && restored->asBool()) {
            ++credit.restored;
            tally.counter("svc.daemon.trials_restored").inc();
        } else {
            ++credit.run;
        }
        tally.counter("svc.daemon.trials_completed").inc();
        c->results[index] = std::move(*trial);
        ++c->sinceUpdate;
        maybeStreamUpdate(*c);
    }

    void
    handleWorkerFrame(double now, WorkerSlot &slot, const json::Value &msg)
    {
        slot.lastBeat = now;
        slot.warned = false; // it spoke; the silence is over
        if (const json::Value *counters = msg.get("counters"))
            slot.counters = *counters;
        if (const json::Value *worker_prof = msg.get("prof"))
            slot.prof = *worker_prof;

        const std::string type = stringField(msg, "type");
        if (type == "heartbeat")
            return;
        if (type == "trial")
            return handleTrial(slot, msg);
        if (type == "shard_done") {
            slot.busy = false;
            if (Campaign *c = campaignById(field(msg, "campaign")))
                c->sched->onShardDone(field(msg, "shard"));
            return;
        }
        if (type != "error") {
            log_.warn("worker %d sent unexpected '%s'", slot.id,
                      type.c_str());
            return;
        }
        const std::string message = stringField(msg, "message");
        log_.warn("worker %d error: %s", slot.id, message.c_str());
        slot.busy = false;
        if (Campaign *c = campaignById(field(msg, "campaign"))) {
            toClient(c->clientKey, errorFrame(c->id, message));
            // A deterministic build/recipe failure must not resurrect
            // at every daemon restart.
            removePendingManifest(*c);
            tally.counter("svc.daemon.campaigns_failed").inc();
            eraseCampaign(c->id);
        }
    }

    void
    handleClientFrame(double now, std::uint64_t client,
                      const json::Value &msg)
    {
        const std::string type = stringField(msg, "type");
        if (type == "submit" || type == "attach") {
            const std::optional<CampaignRequest> request = requestOf(msg);
            if (!request)
                toClient(client, errorFrame(0, "malformed campaign request"));
            else if (type == "submit")
                handleSubmit(now, client, *request, msg);
            else
                handleAttach(client, *request, msg);
        } else if (type == "cancel") {
            handleCancel(client, msg);
        } else if (type == "drain") {
            log_.info("drain requested by session %" PRIu64, client);
            beginDrain(now);
            toClient(client, json::Value::object().set("type", "draining"));
        } else if (type == "ping") {
            toClient(client, json::Value::object().set("type", "pong"));
        } else if (type == "stats") {
            toClient(client, statsFrame(now));
        } else if (type == "shutdown") {
            log_.info("shutdown requested");
            toClient(client, json::Value::object().set("type", "ok"));
            stop();
        } else {
            toClient(client,
                     errorFrame(0, "unknown message type '" + type + "'"));
        }
    }

    /** A campaign a previous daemon accepted but never finished
     *  resumes as an orphan (clientKey 0, which no session has); its
     *  client may come back by attach. */
    void
    resumeManifest(double now, const std::string &path,
                   const json::Value *manifest)
    {
        const std::optional<CampaignRequest> request =
            manifest ? requestOf(*manifest) : std::nullopt;
        if (!request) {
            log_.warn("dropping unreadable pending manifest %s",
                      path.c_str());
            return act(Action::Kind::RemoveManifest, 0, {}, path);
        }
        log_.info("resuming pending campaign from %s", path.c_str());
        if (std::optional<std::string> error = acceptCampaign(
                now, *request,
                manifest->get("stream_every")
                    ? field(*manifest, "stream_every")
                    : config.streamEvery,
                0)) {
            log_.warn("pending campaign %s no longer builds (%s); "
                      "dropping its manifest",
                      path.c_str(), error->c_str());
            act(Action::Kind::RemoveManifest, 0, {}, path);
        }
    }

};

Scheduler::Scheduler(DaemonConfig config)
    : impl_(std::make_unique<Impl>(std::move(config)))
{
}

Scheduler::~Scheduler() = default;

const Scheduler::Actions &
Scheduler::on(const Event &e)
{
    Impl &s = *impl_;
    s.actions.clear(); // this event's actions replace the last one's
    Impl::WorkerSlot *slot = s.slotById(static_cast<int>(e.source));
    switch (e.kind) {
      case Event::Kind::ClientFrame:
        s.handleClientFrame(e.now, e.source, *e.frame);
        break;
      case Event::Kind::ClientGone:
        // Its campaigns run to completion (durable state survives)
        // with nowhere to stream.
        for (Impl::Campaign &c : s.campaigns)
            if (c.clientKey == e.source)
                c.clientKey = 0;
        break;
      case Event::Kind::WorkerHello:
        if (slot && slot->alive) {
            slot->connected = true;
            slot->lastBeat = e.now;
        }
        break;
      case Event::Kind::WorkerFrame:
        if (slot && slot->connected)
            s.handleWorkerFrame(e.now, *slot, *e.frame);
        break;
      case Event::Kind::WorkerExited:
      case Event::Kind::WorkerLost:
        if (!slot || !slot->alive)
            break;
        if (e.kind == Event::Kind::WorkerLost) {
            // The process may still run, holding a shard: make sure.
            s.act(Action::Kind::Kill, e.source);
            ++slot->kills;
        }
        s.workerDied(e.now, *slot,
                     e.kind == Event::Kind::WorkerExited ? "process exited"
                                                         : "connection lost");
        break;
      case Event::Kind::Tick:
        s.checkHeartbeats(e.now);
        s.maintainWorkers(e.now);
        s.assignIdleWorkers(e.now);
        s.finishCompleted(e.now);
        s.drainProgress(e.now);
        break;
      case Event::Kind::Drain:
        s.beginDrain(e.now);
        break;
      case Event::Kind::BadFrames:
        s.tally.counter("svc.daemon.bad_frames").inc(e.source);
        break;
      case Event::Kind::PendingManifest:
        s.resumeManifest(e.now, std::string(e.path), e.frame);
        break;
    }
    return s.actions;
}

void
Scheduler::spawned(double now, int worker, long pid)
{
    Impl::WorkerSlot *slot = impl_->slotById(worker);
    if (!slot || !slot->alive)
        return;
    slot->pid = pid;
    if (pid < 0)
        impl_->workerDied(now, *slot, "could not start");
}

} // namespace uscope::svc
