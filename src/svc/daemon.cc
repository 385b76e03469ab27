#include "svc/daemon.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <vector>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "exp/campaign.hh"
#include "exp/checkpoint.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "svc/chaos.hh"
#include "svc/registry.hh"
#include "svc/shard.hh"
#include "svc/wire.hh"
#include "svc/worker.hh"

namespace uscope::svc
{

namespace
{

using Clock = std::chrono::steady_clock;

constexpr Logger log_{"svc.daemon"};

/** SIGTERM => drain: finish or checkpoint in-flight shards, persist
 *  resumable manifests, exit cleanly.  The handler only flips a flag;
 *  the poll loop does the work.  Reset at every Daemon::run() so
 *  thread-hosted test daemons are unaffected by a previous run. */
volatile std::sig_atomic_t g_drainRequested = 0;

void
onSigterm(int)
{
    g_drainRequested = 1;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string
selfExePath()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        fatal("svc: readlink(/proc/self/exe): %s",
              std::strerror(errno));
    return std::string(buf, static_cast<std::size_t>(n));
}

/** Campaign names become directory components. */
std::string
sanitizeName(const std::string &name)
{
    std::string out;
    for (char c : name)
        out += (std::isalnum(static_cast<unsigned char>(c)) ||
                c == '-' || c == '_')
                   ? c
                   : '_';
    return out.empty() ? std::string("campaign") : out;
}

/**
 * A worker's lifetime counters as a MetricSnapshot.  The counters
 * object's keys arrive alphabetically sorted (the worker builds it
 * that way), which a snapshot requires; sort defensively anyway.
 */
obs::MetricSnapshot
countersSnapshot(const json::Value &counters)
{
    obs::MetricSnapshot snap;
    for (const auto &[name, value] : counters.entries()) {
        obs::MetricValue v;
        v.name = name;
        v.kind = obs::MetricKind::Counter;
        v.counter = value.asU64();
        snap.values.push_back(std::move(v));
    }
    std::sort(snap.values.begin(), snap.values.end(),
              [](const obs::MetricValue &a, const obs::MetricValue &b) {
                  return a.name < b.name;
              });
    return snap;
}

} // namespace

struct Daemon::Impl
{
    /** One accepted connection; role is decided by its first message
     *  (hello => worker, anything else => client). */
    struct Session
    {
        std::uint64_t key = 0;
        Conn conn;
        int workerId = -1;
    };

    struct WorkerSlot
    {
        int id = 0;
        pid_t pid = -1;
        /** Session key of the live connection, 0 when none. */
        std::uint64_t sessionKey = 0;
        bool busy = false;
        std::uint64_t campaign = 0;
        std::size_t shard = 0;
        unsigned spawns = 0;
        /** Times the daemon itself SIGKILLed this slot (heartbeat
         *  timeouts, lost connections) — distinct from spawns. */
        unsigned kills = 0;
        /** Earliest time maintainWorkers() may respawn this slot. */
        Clock::time_point respawnAt = Clock::now();
        /** The slow-trial warning fired for the current silence
         *  (reset on every heartbeat). */
        bool warned = false;
        bool dieAfterSpent = false;
        Clock::time_point lastBeat = Clock::now();
        json::Value counters = json::Value::object();
        /** Latest prof.trial.* profile this worker streamed (its
         *  lifetime totals; the stats reply merges across slots). */
        json::Value prof = json::Value::object();
    };

    /** Per-worker trial credit, campaign-scoped.  Incremented at the
     *  scheduler's dedup point, so across any steal/kill history the
     *  credits sum to exactly the completed count — the invariant the
     *  per-worker counter tests assert. */
    struct Credit
    {
        std::uint64_t run = 0;
        std::uint64_t restored = 0;
    };

    struct Campaign
    {
        std::uint64_t id = 0;
        CampaignRequest request;
        exp::CampaignSpec spec;
        std::string checkpointDir;
        std::unique_ptr<ShardScheduler> sched;
        std::vector<exp::TrialResult> results;
        std::size_t resumed = 0;
        std::uint64_t clientKey = 0;
        std::size_t streamEvery = 0;
        std::size_t sinceUpdate = 0;
        unsigned workerDeaths = 0;
        std::map<int, Credit> credits;
        Clock::time_point start = Clock::now();
        /** Heartbeat-timeout SIGKILLs charged per suspect trial
         *  index; at DaemonConfig::trialKillLimit the trial is recorded
         *  TimedOut instead of retried forever. */
        std::map<std::size_t, unsigned> stuckKills;
        /** Trials this campaign gave up on (synthesized TimedOut). */
        std::uint64_t trialTimeouts = 0;
        /** The resumable manifest under <stateDir>/pending/, removed
         *  at completion or cancellation; empty without a stateDir. */
        std::string pendingFile;
    };

    /** Daemon-lifetime tallies behind the svc.daemon.* metrics. */
    struct Tally
    {
        std::uint64_t campaignsAccepted = 0;
        std::uint64_t campaignsCompleted = 0;
        std::uint64_t campaignsFailed = 0;
        std::uint64_t trialsCompleted = 0;
        std::uint64_t trialsRestored = 0;
        std::uint64_t stealsTotal = 0;
        std::uint64_t workerDeaths = 0;
        std::uint64_t badFrames = 0;
        std::uint64_t statsRequests = 0;
        std::uint64_t campaignsCancelled = 0;
        std::uint64_t reattached = 0;
        std::uint64_t trialWarns = 0;
        std::uint64_t trialTimeouts = 0;
    };

    DaemonConfig config;
    int listenFd = -1;
    std::uint64_t nextSessionKey = 1;
    std::uint64_t nextCampaignId = 1;
    std::vector<std::unique_ptr<Session>> sessions;
    std::vector<WorkerSlot> slots;
    std::deque<Campaign> campaigns;
    bool shuttingDown = false;
    /** Drain mode: no new work, in-flight shards shrunk to their next
     *  trial boundary, exit once idle (or past the grace window). */
    bool draining = false;
    Clock::time_point drainDeadline{};
    Clock::time_point started = Clock::now();
    Tally tally;
    /** prof.svc.* phases (dispatch/merge/checkpoint).  Always on —
     *  a handful of scopes per campaign event, nowhere near the
     *  per-trial hot path the ObsLevel dial guards. */
    obs::ProfData prof;

    explicit Impl(DaemonConfig cfg) : config(std::move(cfg))
    {
        if (config.socketPath.empty())
            fatal("svc: daemon needs a socket path");
        if (config.workers == 0)
            config.workers = 1;
        if (config.workerExe.empty())
            config.workerExe = selfExePath();
    }

    Session *
    sessionByKey(std::uint64_t key)
    {
        for (auto &s : sessions)
            if (s->key == key)
                return s.get();
        return nullptr;
    }

    Campaign *
    campaignById(std::uint64_t id)
    {
        for (Campaign &c : campaigns)
            if (c.id == id)
                return &c;
        return nullptr;
    }

    // -----------------------------------------------------------------
    // Worker process management.
    // -----------------------------------------------------------------

    void
    spawnWorker(WorkerSlot &slot)
    {
        std::vector<std::string> args;
        args.push_back(config.workerExe);
        args.push_back(kWorkerArg);
        args.push_back("--socket=" + config.socketPath);
        args.push_back("--id=" + std::to_string(slot.id));
        args.push_back("--heartbeat-ms=" +
                       std::to_string(config.heartbeatMs));
        // Forward the daemon's sink config so one --log-level flag
        // (or USCOPE_LOG) configures the whole worker tree uniformly.
        const LogConfig log_config = logConfig();
        args.push_back(std::string("--log-level=") +
                       logLevelName(log_config.level));
        if (log_config.json)
            args.push_back("--log-json");
        if (slot.id == 0 && config.worker0DieAfter &&
            !slot.dieAfterSpent) {
            args.push_back("--die-after-trials=" +
                           std::to_string(config.worker0DieAfter));
            slot.dieAfterSpent = true;
        }
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        const pid_t pid = ::fork();
        if (pid < 0) {
            log_.warn("fork failed for worker %d: %s", slot.id,
                      std::strerror(errno));
            return;
        }
        if (pid == 0) {
            ::execv(config.workerExe.c_str(), argv.data());
            // exec failed; nothing sane to do in the child.
            ::_exit(127);
        }
        slot.pid = pid;
        ++slot.spawns;
        slot.busy = false;
        slot.warned = false;
        slot.lastBeat = Clock::now();
        log_.info("spawned worker %d (pid %d, attempt %u)", slot.id,
                  static_cast<int>(pid), slot.spawns);
    }

    void
    handleWorkerDeath(WorkerSlot &slot, const char *why)
    {
        log_.warn("worker %d (pid %d) died: %s", slot.id,
                  static_cast<int>(slot.pid), why);
        ++tally.workerDeaths;
        if (Session *s = sessionByKey(slot.sessionKey))
            s->conn.close();
        slot.sessionKey = 0;
        slot.pid = -1;
        slot.busy = false;

        for (Campaign &c : campaigns) {
            if (c.sched->onWorkerDead(slot.id) > 0)
                ++c.workerDeaths;
        }
        // The delay keeps a slot whose worker dies at exec from forking
        // at poll-loop frequency.
        slot.respawnAt =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   kRespawnDelaySec));
    }

    /** Respawn every dead slot whose respawn delay has elapsed. */
    void
    maintainWorkers()
    {
        if (shuttingDown || draining)
            return;
        const Clock::time_point now = Clock::now();
        for (WorkerSlot &slot : slots)
            if (slot.pid < 0 && now >= slot.respawnAt)
                spawnWorker(slot);
    }

    void
    reapChildren()
    {
        for (;;) {
            int status = 0;
            const pid_t pid = ::waitpid(-1, &status, WNOHANG);
            if (pid <= 0)
                return;
            for (WorkerSlot &slot : slots) {
                if (slot.pid == pid)
                    handleWorkerDeath(slot, "process exited");
            }
        }
    }

    /** The trial a silent busy worker is presumably stuck on: its
     *  shard's low-water mark (everything below already streamed). */
    std::optional<std::size_t>
    suspectTrial(const WorkerSlot &slot)
    {
        Campaign *c = campaignById(slot.campaign);
        if (!c || slot.shard >= c->sched->shardCount())
            return std::nullopt;
        const ShardScheduler::Shard &sh = c->sched->shard(slot.shard);
        if (sh.done || sh.next >= sh.hi)
            return std::nullopt;
        return sh.next;
    }

    /**
     * Give up on a trial that keeps killing workers: record it
     * TimedOut — a measurement ("this input wedges its worker"),
     * mirroring the cycle-budget semantics — so the campaign can
     * complete instead of crash-looping forever.  Deliberately not
     * checkpointed: a later resume retries it with a fresh budget.
     */
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
        ++tally.trialTimeouts;
        ++c.sinceUpdate;
        log_.warn("campaign %llu trial %zu marked TimedOut after %u "
                  "worker kills",
                  static_cast<unsigned long long>(c.id), index,
                  config.trialKillLimit);
    }

    /**
     * The slow-trial escalation ladder (DESIGN.md §16): a busy
     * worker silent past trialWarnSec earns one warning; past
     * heartbeatTimeoutSec it is SIGKILLed (its shard is reassigned —
     * the retry rung); a trial whose retries keep killing workers is
     * recorded TimedOut at the trialKillLimit.
     */
    void
    checkHeartbeats()
    {
        for (WorkerSlot &slot : slots) {
            if (!slot.busy || slot.pid < 0)
                continue;
            const double silent = secondsSince(slot.lastBeat);
            if (config.trialWarnSec > 0.0 &&
                silent > config.trialWarnSec && !slot.warned) {
                slot.warned = true;
                ++tally.trialWarns;
                const std::optional<std::size_t> suspect =
                    suspectTrial(slot);
                log_.warn("worker %d busy and silent for %.1fs "
                          "(campaign %llu, shard %zu, trial %lld); "
                          "SIGKILL at %.1fs",
                          slot.id, silent,
                          static_cast<unsigned long long>(
                              slot.campaign),
                          slot.shard,
                          suspect ? static_cast<long long>(*suspect)
                                  : -1ll,
                          config.heartbeatTimeoutSec);
            }
            if (silent <= config.heartbeatTimeoutSec)
                continue;
            // Busy and silent past the timeout: presumed wedged.
            // Charge the kill to the trial the worker was stuck on;
            // at the limit, stop retrying and record it TimedOut.
            if (const std::optional<std::size_t> suspect =
                    suspectTrial(slot)) {
                Campaign *c = campaignById(slot.campaign);
                if (c && ++c->stuckKills[*suspect] >=
                             config.trialKillLimit)
                    synthesizeTimedOut(*c, *suspect);
            }
            ::kill(slot.pid, SIGKILL);
            ++slot.kills;
            handleWorkerDeath(slot, "heartbeat timeout");
        }
    }

    // -----------------------------------------------------------------
    // Campaign lifecycle.
    // -----------------------------------------------------------------

    void
    sendError(Session &to, std::uint64_t campaign_id,
              const std::string &message)
    {
        to.conn.send(json::Value::object()
                         .set("type", "error")
                         .set("campaign", campaign_id)
                         .set("message", message));
    }

    /** <stateDir>/<sanitized name>-<identity hash>: the stable,
     *  request-derived key both the checkpoint dir and the pending
     *  manifest use. */
    std::string
    durableKey(const CampaignRequest &request,
               const exp::CampaignSpec &spec) const
    {
        return sanitizeName(spec.name) + "-" +
               exp::fnv1aHex(request.identityKey()).substr(2);
    }

    std::string
    pendingDir() const
    {
        return config.stateDir + "/pending";
    }

    /**
     * Persist the resumable manifest: enough to resubmit this
     * campaign verbatim after a daemon restart (clean drain or
     * kill -9 alike).  Removed when the campaign completes or is
     * cancelled; scanned by resumePendingCampaigns() at startup.
     */
    void
    writePendingManifest(Campaign &c)
    {
        if (config.stateDir.empty())
            return;
        std::error_code ec;
        std::filesystem::create_directories(pendingDir(), ec);
        if (ec)
            return;
        c.pendingFile =
            pendingDir() + "/" + durableKey(c.request, c.spec) +
            ".json";
        const json::Value manifest =
            json::Value::object()
                .set("request", c.request.toJson())
                .set("stream_every",
                     static_cast<std::uint64_t>(c.streamEvery));
        writeFileAtomic(c.pendingFile, manifest.dump());
    }

    void
    removePendingManifest(Campaign &c)
    {
        if (c.pendingFile.empty())
            return;
        ::unlink(c.pendingFile.c_str());
        c.pendingFile.clear();
    }

    /**
     * Common accept path for client submits and startup resumes:
     * build the spec, attach durable state (checkpoint preload +
     * pending manifest), shard, announce.  Returns the error text
     * instead of sending it so each caller can frame it properly.
     */
    std::optional<std::string>
    acceptCampaign(const CampaignRequest &request,
                   std::size_t stream_every, Session *client)
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
        c.clientKey = client ? client->key : 0;
        c.streamEvery = stream_every;
        c.results.resize(c.spec.trials);
        c.sched = std::make_unique<ShardScheduler>(c.spec.trials,
                                                   config.workers);

        if (!config.stateDir.empty()) {
            obs::ProfScope timer(&prof, "prof.svc.checkpoint");
            // The durable identity covers everything that determines
            // results; same request => same directory => a daemon
            // restart resumes instead of restarting.  (identityKey
            // excludes the obs level, so resubmitting at --obs=trace
            // resumes the same durable state.)
            c.checkpointDir = config.stateDir + "/" +
                              durableKey(c.request, c.spec);
            c.spec.checkpointDir = c.checkpointDir;
            const exp::CampaignCheckpoint checkpoint(c.spec);
            if (checkpoint.resuming()) {
                for (std::size_t i = 0; i < c.spec.trials; ++i) {
                    std::optional<exp::TrialResult> trial =
                        checkpoint.loadTrial(i);
                    if (!trial)
                        continue;
                    c.results[i] = std::move(*trial);
                    c.sched->seedDone(i);
                    ++c.resumed;
                }
            }
            writePendingManifest(c);
        }

        if (client)
            client->conn.send(
                json::Value::object()
                    .set("type", "accepted")
                    .set("campaign", c.id)
                    .set("total",
                         static_cast<std::uint64_t>(c.spec.trials))
                    .set("resumed",
                         static_cast<std::uint64_t>(c.resumed)));
        ++tally.campaignsAccepted;
        log_.info("campaign %llu '%s' accepted (%zu trials, %zu "
                  "resumed, obs=%s%s)",
                  static_cast<unsigned long long>(c.id),
                  c.spec.name.c_str(), c.spec.trials, c.resumed,
                  obs::obsLevelName(c.request.obs),
                  client ? "" : ", orphan resume");
        campaigns.push_back(std::move(c));
        assignIdleWorkers();
        finishCompleted(); // a fully-resumed campaign is already done
        return std::nullopt;
    }

    void
    handleSubmit(Session &client, const json::Value &msg)
    {
        const json::Value *request_json = msg.get("request");
        std::optional<CampaignRequest> request =
            request_json ? CampaignRequest::fromJson(*request_json)
                         : std::nullopt;
        if (!request) {
            sendError(client, 0, "malformed campaign request");
            return;
        }
        if (draining) {
            sendError(client, 0,
                      "daemon is draining; resubmit after restart "
                      "(durable state resumes)");
            return;
        }
        const std::size_t stream_every =
            msg.get("stream_every") ? field(msg, "stream_every")
                                    : config.streamEvery;
        if (std::optional<std::string> error =
                acceptCampaign(*request, stream_every, &client))
            sendError(client, 0, *error);
    }

    /**
     * {"type":"attach"}: re-bind a running campaign — matched by
     * CampaignRequest::identityKey(), its stable id — to this
     * session and replay the current partial immediately, so a
     * reconnecting client resumes streaming from the last acked
     * state.  The final fingerprint is byte-identical to a never-
     * disconnected run by construction: attach changes who is
     * listening, never what executes.
     */
    void
    handleAttach(Session &client, const json::Value &msg)
    {
        const json::Value *request_json = msg.get("request");
        std::optional<CampaignRequest> request =
            request_json ? CampaignRequest::fromJson(*request_json)
                         : std::nullopt;
        if (!request) {
            sendError(client, 0, "malformed campaign request");
            return;
        }
        const std::string key = request->identityKey();
        for (Campaign &c : campaigns) {
            if (c.request.identityKey() != key)
                continue;
            c.clientKey = client.key;
            if (msg.get("stream_every"))
                c.streamEvery = field(msg, "stream_every");
            ++tally.reattached;
            log_.info("campaign %llu re-attached by session %llu",
                      static_cast<unsigned long long>(c.id),
                      static_cast<unsigned long long>(client.key));
            client.conn.send(
                json::Value::object()
                    .set("type", "attached")
                    .set("campaign", c.id)
                    .set("total", static_cast<std::uint64_t>(
                                      c.sched->trials()))
                    .set("resumed",
                         static_cast<std::uint64_t>(c.resumed)));
            // Catch the new listener up to the last acked partial
            // right away rather than waiting out streamEvery.
            maybeStreamUpdate(c, /*force=*/true);
            return;
        }
        client.conn.send(
            json::Value::object()
                .set("type", "error")
                .set("campaign", std::uint64_t(0))
                .set("code", "not_found")
                .set("message",
                     "no running campaign matches this request; "
                     "submit instead (durable state resumes)"));
    }

    /**
     * Stop a campaign: dispatch ceases now (the campaign leaves the
     * queue), in-flight shards are reaped at the next trial boundary
     * (a shrink-to-zero rides the same channel steals use; the
     * worker's current_hi hook honours it at its next heartbeat),
     * the checkpoint dir survives for a later resume, and both the
     * owner and the canceller get the partial aggregate, the credits
     * and where the durable state lives.  The pending manifest goes
     * away — an explicit cancel must not resurrect at the next daemon
     * restart.  An unknown id (0 never names a campaign) gets a
     * not_found error.
     */
    void
    cancelCampaign(std::uint64_t id, Session &canceller)
    {
        for (auto it = campaigns.begin(); it != campaigns.end();
             ++it) {
            if (it->id != id)
                continue;
            Campaign &c = *it;
            for (WorkerSlot &slot : slots) {
                if (!slot.busy || slot.campaign != c.id)
                    continue;
                if (Session *ws = sessionByKey(slot.sessionKey))
                    ws->conn.send(
                        json::Value::object()
                            .set("type", "shrink")
                            .set("shard",
                                 static_cast<std::uint64_t>(
                                     slot.shard))
                            .set("hi", std::uint64_t(0)));
            }
            const json::Value frame =
                json::Value::object()
                    .set("type", "cancelled")
                    .set("campaign", c.id)
                    .set("reason", "cancelled by client")
                    .set("completed", static_cast<std::uint64_t>(
                                          c.sched->completed()))
                    .set("total", static_cast<std::uint64_t>(
                                      c.sched->trials()))
                    .set("aggregate", partialAggregate(c).toJson())
                    .set("credits", creditsJson(c))
                    .set("checkpoint_dir", c.checkpointDir);
            Session *owner = sessionByKey(c.clientKey);
            if (owner)
                owner->conn.send(frame);
            if (&canceller != owner)
                canceller.conn.send(frame);
            removePendingManifest(c);
            ++tally.campaignsCancelled;
            log_.info("campaign %llu '%s' cancelled: %zu/%zu "
                      "trials done, checkpoint %s",
                      static_cast<unsigned long long>(c.id),
                      c.spec.name.c_str(),
                      c.sched->completed(), c.sched->trials(),
                      c.checkpointDir.empty()
                          ? "none"
                          : c.checkpointDir.c_str());
            campaigns.erase(it);
            return;
        }
        canceller.conn.send(json::Value::object()
                                .set("type", "error")
                                .set("campaign", id)
                                .set("code", "not_found")
                                .set("message", "no such campaign"));
    }

    /** {"type":"cancel"}: by numeric id, or by request identity
     *  (the same match attach uses). */
    void
    handleCancel(Session &client, const json::Value &msg)
    {
        if (msg.get("campaign")) {
            cancelCampaign(field(msg, "campaign"), client);
            return;
        }
        if (const json::Value *request_json = msg.get("request")) {
            if (std::optional<CampaignRequest> request =
                    CampaignRequest::fromJson(*request_json)) {
                const std::string key = request->identityKey();
                std::uint64_t id = 0;
                for (const Campaign &c : campaigns) {
                    if (c.request.identityKey() == key) {
                        id = c.id;
                        break;
                    }
                }
                cancelCampaign(id, client);
                return;
            }
        }
        sendError(client, 0,
                  "cancel needs a \"campaign\" id or a \"request\"");
    }

    /**
     * Startup scan of <stateDir>/pending/: every manifest is a
     * campaign a previous daemon accepted but never finished (drain,
     * crash, kill -9).  Resume each as an orphan — clientKey 0, which
     * no session ever has (keys start at 1) — so the work completes
     * whether or not its client ever returns; a returning client
     * finds it by identity via {"type":"attach"}.
     */
    void
    resumePendingCampaigns()
    {
        if (config.stateDir.empty())
            return;
        std::error_code ec;
        std::filesystem::directory_iterator it(pendingDir(), ec);
        if (ec)
            return;
        // Deterministic resume order (directory order is not).
        std::vector<std::filesystem::path> manifests;
        for (const auto &entry : it)
            if (entry.path().extension() == ".json")
                manifests.push_back(entry.path());
        std::sort(manifests.begin(), manifests.end());
        for (const std::filesystem::path &path : manifests) {
            std::ifstream in(path, std::ios::binary);
            std::string text(
                (std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
            const std::optional<json::Value> manifest =
                json::Value::parse(text);
            const json::Value *request_json =
                manifest ? manifest->get("request") : nullptr;
            std::optional<CampaignRequest> request =
                request_json
                    ? CampaignRequest::fromJson(*request_json)
                    : std::nullopt;
            if (!request) {
                log_.warn("dropping unreadable pending manifest %s",
                          path.c_str());
                ::unlink(path.c_str());
                continue;
            }
            log_.info("resuming pending campaign from %s",
                      path.c_str());
            if (std::optional<std::string> error = acceptCampaign(
                    *request,
                    manifest->get("stream_every")
                        ? field(*manifest, "stream_every")
                        : config.streamEvery,
                    nullptr)) {
                log_.warn("pending campaign %s no longer builds "
                          "(%s); dropping its manifest",
                          path.c_str(), error->c_str());
                ::unlink(path.c_str());
            }
        }
    }

    /**
     * Drain (SIGTERM or {"type":"drain"}): stop accepting work, stop
     * every in-flight shard at its next trial boundary (shrink-to-
     * zero; completed trials are already checkpointed by the workers
     * as they go), keep every pending manifest so the next daemon
     * resumes the cut campaigns, and exit once all workers are idle
     * or the grace window runs out.
     */
    void
    beginDrain()
    {
        if (draining || shuttingDown)
            return;
        draining = true;
        drainDeadline =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(kDrainGraceSec));
        log_.info("draining: %zu campaign(s) in flight, grace %.1fs",
                  campaigns.size(), kDrainGraceSec);
        for (WorkerSlot &slot : slots) {
            if (!slot.busy)
                continue;
            if (Session *ws = sessionByKey(slot.sessionKey))
                ws->conn.send(json::Value::object()
                                  .set("type", "shrink")
                                  .set("shard",
                                       static_cast<std::uint64_t>(
                                           slot.shard))
                                  .set("hi", std::uint64_t(0)));
        }
        // Informational only — the durable state is the contract; a
        // client that misses this learns from the dropped connection.
        for (Campaign &c : campaigns)
            if (Session *owner = sessionByKey(c.clientKey))
                owner->conn.send(json::Value::object()
                                     .set("type", "draining")
                                     .set("campaign", c.id));
    }

    void
    drainProgress()
    {
        if (g_drainRequested) {
            g_drainRequested = 0;
            log_.info("SIGTERM received; draining");
            beginDrain();
        }
        if (!draining || shuttingDown)
            return;
        for (const WorkerSlot &slot : slots) {
            if (!slot.busy || slot.pid < 0)
                continue;
            if (Clock::now() <= drainDeadline)
                return; // still waiting on a trial boundary
            log_.warn("drain grace expired with busy workers; "
                      "exiting anyway (checkpoints cover the cut)");
            break;
        }
        log_.info("drain complete; %zu campaign(s) left resumable",
                  campaigns.size());
        shuttingDown = true;
    }

    /** Partial aggregate over completed trials, in index order —
     *  the same fold the final result uses. */
    exp::CampaignAggregate
    partialAggregate(const Campaign &c)
    {
        obs::ProfScope timer(&prof, "prof.svc.merge");
        std::vector<exp::TrialResult> done;
        for (std::size_t i = 0; i < c.results.size(); ++i)
            if (c.sched->isDone(i))
                done.push_back(c.results[i]);
        return exp::aggregateTrials(done);
    }

    /** Campaign-scoped per-worker credits as `{"<id>": {run,
     *  restored}}` — the telemetry behind the counter-sum tests. */
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

    /** Per-worker metric streams, tagged "svc.worker<id>.". */
    obs::MetricSnapshot
    workerMetrics() const
    {
        obs::MetricSnapshot merged;
        for (const WorkerSlot &slot : slots) {
            obs::MetricSnapshot snap =
                countersSnapshot(slot.counters);
            if (snap.empty())
                continue;
            merged.merge(snap.prefixed(
                "svc.worker" + std::to_string(slot.id) + "."));
        }
        return merged;
    }

    /** Daemon-lifetime counters, tagged "svc.daemon.". */
    obs::MetricSnapshot
    daemonMetrics() const
    {
        const json::Value counters =
            json::Value::object()
                .set("bad_frames", tally.badFrames)
                .set("campaigns_accepted", tally.campaignsAccepted)
                .set("campaigns_cancelled",
                     tally.campaignsCancelled)
                .set("campaigns_completed",
                     tally.campaignsCompleted)
                .set("campaigns_failed", tally.campaignsFailed)
                .set("reattached", tally.reattached)
                .set("stats_requests", tally.statsRequests)
                .set("steals_total", tally.stealsTotal)
                .set("trial_timeouts", tally.trialTimeouts)
                .set("trial_warns", tally.trialWarns)
                .set("trials_completed", tally.trialsCompleted)
                .set("trials_restored", tally.trialsRestored)
                .set("worker_deaths", tally.workerDeaths);
        return countersSnapshot(counters).prefixed("svc.daemon.");
    }

    /**
     * The live ops snapshot (DESIGN.md §14): every campaign's shard
     * table and per-worker credits, every worker slot's process
     * state, the merged svc.daemon.* + svc.worker<id>.* metrics, and
     * the daemon's prof.svc.* phases folded with each worker's
     * streamed prof.trial.* lifetime totals.
     */
    void
    handleStats(Session &client)
    {
        ++tally.statsRequests;

        json::Value campaign_list = json::Value::array();
        for (Campaign &c : campaigns) {
            json::Value shard_list = json::Value::array();
            std::uint64_t pending = 0;
            for (std::size_t s = 0; s < c.sched->shardCount();
                 ++s) {
                const ShardScheduler::Shard &sh = c.sched->shard(s);
                if (!sh.done)
                    ++pending;
                shard_list.push(
                    json::Value::object()
                        .set("id",
                             static_cast<std::uint64_t>(sh.id))
                        .set("lo",
                             static_cast<std::uint64_t>(sh.lo))
                        .set("hi",
                             static_cast<std::uint64_t>(sh.hi))
                        .set("next",
                             static_cast<std::uint64_t>(sh.next))
                        .set("owner", sh.owner)
                        .set("done", sh.done));
            }
            campaign_list.push(
                json::Value::object()
                    .set("id", c.id)
                    .set("name", c.spec.name)
                    .set("recipe", c.request.recipe)
                    .set("obs", obs::obsLevelName(c.request.obs))
                    .set("total", static_cast<std::uint64_t>(
                                      c.sched->trials()))
                    .set("completed",
                         static_cast<std::uint64_t>(
                             c.sched->completed()))
                    .set("resumed",
                         static_cast<std::uint64_t>(c.resumed))
                    .set("steals", static_cast<std::uint64_t>(
                                       c.sched->steals()))
                    .set("worker_deaths", c.workerDeaths)
                    .set("trial_timeouts", c.trialTimeouts)
                    .set("age_seconds", secondsSince(c.start))
                    .set("stream_every",
                         static_cast<std::uint64_t>(c.streamEvery))
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
                    .set("pid", static_cast<int>(slot.pid))
                    .set("busy", slot.busy)
                    .set("spawns", slot.spawns)
                    .set("kills", slot.kills)
                    .set("heartbeat_age_seconds",
                         secondsSince(slot.lastBeat))
                    .set("campaign",
                         slot.busy ? slot.campaign
                                   : std::uint64_t(0))
                    .set("shard",
                         static_cast<std::uint64_t>(
                             slot.busy ? slot.shard : 0))
                    .set("counters", slot.counters));
            prof_merged.merge(obs::ProfData::fromJson(slot.prof));
        }

        obs::MetricSnapshot metrics = daemonMetrics();
        metrics.merge(workerMetrics());

        client.conn.send(
            json::Value::object()
                .set("type", "stats")
                .set("uptime_seconds", secondsSince(started))
                .set("shutting_down", shuttingDown)
                .set("draining", draining)
                .set("workers",
                     static_cast<std::uint64_t>(slots.size()))
                .set("campaigns", std::move(campaign_list))
                .set("worker_table", std::move(worker_list))
                .set("metrics", metrics.toJson())
                .set("prof", prof_merged.toJson()));
    }

    void
    maybeStreamUpdate(Campaign &c, bool force = false)
    {
        // force (attach catch-up) streams even when the campaign
        // asked for no periodic updates.
        if (!force && (c.streamEvery == 0 ||
                       c.sinceUpdate < c.streamEvery))
            return;
        c.sinceUpdate = 0;
        Session *client = sessionByKey(c.clientKey);
        if (!client || !client->conn.open())
            return;
        client->conn.send(
            json::Value::object()
                .set("type", "update")
                .set("campaign", c.id)
                .set("completed",
                     static_cast<std::uint64_t>(
                         c.sched->completed()))
                .set("total", static_cast<std::uint64_t>(
                                  c.sched->trials()))
                .set("aggregate", partialAggregate(c).toJson())
                .set("credits", creditsJson(c))
                .set("worker_metrics", workerMetrics().toJson()));
    }

    void
    finishCompleted()
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
            result.workers = config.workers;
            result.wallSeconds = secondsSince(c.start);
            result.resumedTrials = c.resumed;
            result.workerDeaths = c.workerDeaths;
            {
                obs::ProfScope timer(&prof, "prof.svc.merge");
                result.aggregate = exp::aggregateTrials(c.results);
            }
            // The campaign is erased below; its trials move out.
            result.trials = std::move(c.results);
            const std::string fingerprint = exp::fnv1aHex(
                exp::deterministicFingerprint(result));

            // Chaos site: die between the merge and the result send —
            // the worst possible moment.  Trials are checkpointed and
            // the pending manifest still exists, so a restarted
            // daemon must resume, re-merge, and produce the same
            // fingerprint.
            if (chaosAbortMerge()) {
                log_.warn("chaos: aborting mid-merge of campaign "
                          "%llu",
                          static_cast<unsigned long long>(c.id));
                ::_exit(42);
            }

            removePendingManifest(c);
            ++tally.campaignsCompleted;
            log_.info("campaign %llu '%s' complete: %zu trials, "
                      "%zu resumed, %u worker deaths, %zu steals, "
                      "fingerprint %s",
                      static_cast<unsigned long long>(c.id),
                      result.name.c_str(), result.trialCount,
                      result.resumedTrials, result.workerDeaths,
                      c.sched->steals(), fingerprint.c_str());

            if (Session *client = sessionByKey(c.clientKey)) {
                std::string report;
                result.appendJson(report);
                client->conn.send(
                    json::Value::object()
                        .set("type", "result")
                        .set("campaign", c.id)
                        .set("fingerprint", fingerprint)
                        .set("worker_deaths", c.workerDeaths)
                        .set("steals",
                             static_cast<std::uint64_t>(
                                 c.sched->steals()))
                        .set("credits", creditsJson(c))
                        .set("result",
                             json::Value::raw(std::move(report))));
            }
            it = campaigns.erase(it);
        }
    }

    void
    assignIdleWorkers()
    {
        if (campaigns.empty() || draining)
            return; // keep the idle poll loop out of the profile
        obs::ProfScope timer(&prof, "prof.svc.dispatch");
        for (WorkerSlot &slot : slots) {
            if (slot.busy || slot.sessionKey == 0)
                continue;
            Session *session = sessionByKey(slot.sessionKey);
            if (!session || !session->conn.open())
                continue;
            for (Campaign &c : campaigns) {
                std::optional<ShardScheduler::Assignment> a =
                    c.sched->assign(slot.id);
                if (!a)
                    continue;
                if (a->stolenFrom) {
                    ++tally.stealsTotal;
                    const ShardScheduler::Shard &victim =
                        c.sched->shard(*a->stolenFrom);
                    for (WorkerSlot &other : slots) {
                        if (other.id != victim.owner ||
                            other.sessionKey == 0)
                            continue;
                        if (Session *os =
                                sessionByKey(other.sessionKey))
                            os->conn.send(
                                json::Value::object()
                                    .set("type", "shrink")
                                    .set("shard",
                                         static_cast<std::uint64_t>(
                                             victim.id))
                                    .set("hi",
                                         static_cast<std::uint64_t>(
                                             victim.hi)));
                    }
                }
                session->conn.send(
                    json::Value::object()
                        .set("type", "shard")
                        .set("campaign", c.id)
                        .set("shard",
                             static_cast<std::uint64_t>(a->shard))
                        .set("lo",
                             static_cast<std::uint64_t>(a->lo))
                        .set("hi",
                             static_cast<std::uint64_t>(a->hi))
                        .set("checkpoint_dir", c.checkpointDir)
                        .set("request", c.request.toJson()));
                slot.busy = true;
                slot.campaign = c.id;
                slot.shard = a->shard;
                slot.lastBeat = Clock::now();
                break;
            }
        }
    }

    // -----------------------------------------------------------------
    // Message dispatch.
    // -----------------------------------------------------------------

    void
    handleWorkerMessage(Session &session, const json::Value &msg,
                        const std::string &type)
    {
        WorkerSlot &slot = slots[static_cast<std::size_t>(
            session.workerId)];
        slot.lastBeat = Clock::now();
        slot.warned = false; // it spoke; the silence is over
        if (const json::Value *counters = msg.get("counters"))
            slot.counters = *counters;
        if (const json::Value *worker_prof = msg.get("prof"))
            slot.prof = *worker_prof;

        if (type == "heartbeat")
            return;
        if (type == "trial") {
            Campaign *c = campaignById(field(msg, "campaign"));
            if (!c)
                return; // campaign already finished (overlap race)
            const std::size_t index = field(msg, "index");
            const std::size_t shard = field(msg, "shard");
            const json::Value *data = msg.get("data");
            std::optional<exp::TrialResult> trial =
                data ? exp::CampaignCheckpoint::parseTrial(
                           data->asString())
                     : std::nullopt;
            if (!trial || trial->index != index) {
                log_.warn("worker %d sent an unparseable trial %zu "
                          "for campaign %llu",
                          slot.id, index,
                          static_cast<unsigned long long>(c->id));
                return;
            }
            if (c->sched->onTrial(shard, index)) {
                // Credit exactly at the dedup point: whatever steal
                // or kill races replayed this trial, precisely one
                // worker gets it — so per-worker credits always sum
                // to the completed count.
                const json::Value *restored_v = msg.get("restored");
                Credit &credit = c->credits[slot.id];
                if (restored_v && restored_v->asBool()) {
                    ++credit.restored;
                    ++tally.trialsRestored;
                } else {
                    ++credit.run;
                }
                ++tally.trialsCompleted;
                c->results[index] = std::move(*trial);
                ++c->sinceUpdate;
                maybeStreamUpdate(*c);
            }
            return;
        }
        if (type == "shard_done") {
            slot.busy = false;
            Campaign *c = campaignById(field(msg, "campaign"));
            if (c)
                c->sched->onShardDone(field(msg, "shard"));
            return;
        }
        if (type == "error") {
            const std::uint64_t campaign_id = field(msg, "campaign");
            log_.warn("worker %d error: %s", slot.id,
                      stringField(msg, "message").c_str());
            slot.busy = false;
            if (Campaign *c = campaignById(campaign_id)) {
                if (Session *client = sessionByKey(c->clientKey))
                    sendError(*client, campaign_id,
                              stringField(msg, "message"));
                // A deterministic build/recipe failure must not
                // resurrect at every daemon restart.
                removePendingManifest(*c);
                ++tally.campaignsFailed;
                for (auto it = campaigns.begin();
                     it != campaigns.end(); ++it) {
                    if (it->id == campaign_id) {
                        campaigns.erase(it);
                        break;
                    }
                }
            }
            return;
        }
        log_.warn("worker %d sent unexpected '%s'", slot.id,
                  type.c_str());
    }

    void
    handleMessage(Session &session, const json::Value &msg)
    {
        const std::string type = stringField(msg, "type");

        if (type == "hello") {
            const int id = static_cast<int>(field(msg, "id"));
            if (id < 0 ||
                id >= static_cast<int>(slots.size())) {
                log_.warn("hello from unknown worker id %d", id);
                session.conn.close();
                return;
            }
            session.workerId = id;
            WorkerSlot &slot = slots[static_cast<std::size_t>(id)];
            slot.sessionKey = session.key;
            slot.lastBeat = Clock::now();
            return;
        }
        if (session.workerId >= 0) {
            handleWorkerMessage(session, msg, type);
            return;
        }

        // Client messages.
        if (type == "submit") {
            handleSubmit(session, msg);
        } else if (type == "attach") {
            handleAttach(session, msg);
        } else if (type == "cancel") {
            handleCancel(session, msg);
        } else if (type == "drain") {
            log_.info("drain requested by session %llu",
                      static_cast<unsigned long long>(session.key));
            beginDrain();
            session.conn.send(
                json::Value::object().set("type", "draining"));
        } else if (type == "ping") {
            session.conn.send(
                json::Value::object().set("type", "pong"));
        } else if (type == "list") {
            json::Value recipes = json::Value::array();
            for (const auto &[name, description] :
                 CampaignRegistry::global().list())
                recipes.push(json::Value::object()
                                 .set("recipe", name)
                                 .set("description", description));
            session.conn.send(json::Value::object()
                                  .set("type", "recipes")
                                  .set("recipes",
                                       std::move(recipes)));
        } else if (type == "stats") {
            handleStats(session);
        } else if (type == "shutdown") {
            log_.info("shutdown requested");
            shuttingDown = true;
            session.conn.send(
                json::Value::object().set("type", "ok"));
        } else {
            sendError(session, 0,
                      "unknown message type '" + type + "'");
        }
    }

    void
    dropSession(std::size_t index)
    {
        Session &session = *sessions[index];
        if (session.workerId >= 0) {
            WorkerSlot &slot = slots[static_cast<std::size_t>(
                session.workerId)];
            if (slot.sessionKey == session.key) {
                slot.sessionKey = 0;
                if (slot.pid >= 0) {
                    ::kill(slot.pid, SIGKILL);
                    ++slot.kills;
                }
                handleWorkerDeath(slot, "connection lost");
            }
        } else {
            // A vanished client orphans its campaigns; they run to
            // completion (durable state survives) with nowhere to
            // stream.
            for (Campaign &c : campaigns)
                if (c.clientKey == session.key)
                    c.clientKey = 0;
        }
        sessions.erase(sessions.begin() +
                       static_cast<std::ptrdiff_t>(index));
    }

    // -----------------------------------------------------------------
    // The loop.
    // -----------------------------------------------------------------

    int
    run()
    {
        if (!config.stateDir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(config.stateDir, ec);
            if (ec)
                fatal("svc: cannot create state dir '%s': %s",
                      config.stateDir.c_str(),
                      ec.message().c_str());
        }
        listenFd = listenUnix(config.socketPath);
        log_.info("listening on %s (%u workers)",
                  config.socketPath.c_str(), config.workers);

        // SIGTERM = drain.  Restore on exit so thread-hosted test
        // daemons do not leave the handler behind.
        g_drainRequested = 0;
        struct sigaction drain_action = {};
        drain_action.sa_handler = onSigterm;
        struct sigaction prev_action = {};
        ::sigaction(SIGTERM, &drain_action, &prev_action);

        seedChaosRole(1); // decorrelate from workers' streams

        slots.resize(config.workers);
        for (unsigned i = 0; i < config.workers; ++i) {
            slots[i].id = static_cast<int>(i);
            spawnWorker(slots[i]);
        }

        // Campaigns a previous daemon left behind resume before the
        // first client connects.
        resumePendingCampaigns();

        while (!shuttingDown) {
            std::vector<pollfd> fds;
            fds.push_back(pollfd{listenFd, POLLIN, 0});
            for (auto &s : sessions) {
                short events = POLLIN;
                // A session with buffered outbound bytes (a slow
                // client) needs a POLLOUT wakeup to drain.
                if (s->conn.wantWrite())
                    events |= POLLOUT;
                fds.push_back(pollfd{s->conn.fd(), events, 0});
            }
            ::poll(fds.data(),
                   static_cast<nfds_t>(fds.size()), 100);

            if (fds[0].revents & POLLIN) {
                for (;;) {
                    if (!waitReadable(listenFd, 0))
                        break;
                    const int fd = acceptUnix(listenFd);
                    if (fd < 0)
                        break;
                    auto session = std::make_unique<Session>();
                    session->key = nextSessionKey++;
                    session->conn = Conn(fd);
                    // Never let one stalled peer block the loop: all
                    // daemon-side sends buffer and drain on POLLOUT.
                    session->conn.setBuffered(true);
                    sessions.push_back(std::move(session));
                }
            }

            // Pump every session; collect messages, then dispatch.
            // (Dispatch can add sessions — submits spawn nothing, but
            // worker deaths respawn — so iterate by index.)
            for (std::size_t i = 0; i < sessions.size();) {
                Session &session = *sessions[i];
                session.conn.flushOut();
                const bool alive = session.conn.pump();
                while (std::optional<json::Value> msg =
                           session.conn.next()) {
                    handleMessage(session, *msg);
                    if (shuttingDown)
                        break;
                }
                // A malformed frame is the sender's bug, not ours:
                // answer each one with a structured error instead of
                // swallowing it silently (DESIGN.md §14).
                if (const std::size_t bad =
                        session.conn.takeBadFrames()) {
                    tally.badFrames += bad;
                    log_.warn("session %llu sent %zu malformed "
                              "frame(s)",
                              static_cast<unsigned long long>(
                                  session.key),
                              bad);
                    for (std::size_t b = 0; b < bad; ++b)
                        session.conn.send(
                            json::Value::object()
                                .set("type", "error")
                                .set("campaign", std::uint64_t(0))
                                .set("message",
                                     "malformed frame (not valid "
                                     "JSON)"));
                }
                if (!alive || !session.conn.open()) {
                    if (session.conn.corruptStream()) {
                        ++tally.badFrames;
                        log_.warn("session %llu sent an oversized "
                                  "frame; dropping connection",
                                  static_cast<unsigned long long>(
                                      session.key));
                        session.conn.sendFinal(
                            json::Value::object()
                                .set("type", "error")
                                .set("campaign", std::uint64_t(0))
                                .set("message",
                                     "oversized frame exceeds the "
                                     "256 MiB limit"));
                    }
                    dropSession(i);
                    continue;
                }
                ++i;
            }

            reapChildren();
            checkHeartbeats();
            maintainWorkers();
            assignIdleWorkers();
            finishCompleted();
            drainProgress();
        }

        // Give buffered terminal frames (draining/cancelled) one
        // last blocking push before the sockets close.
        for (auto &s : sessions)
            s->conn.flushOut();
        shutdownWorkers();
        ::close(listenFd);
        ::unlink(config.socketPath.c_str());
        log_.info("daemon exiting");
        ::sigaction(SIGTERM, &prev_action, nullptr);
        return 0;
    }

    void
    shutdownWorkers()
    {
        for (WorkerSlot &slot : slots) {
            if (Session *s = sessionByKey(slot.sessionKey))
                s->conn.send(json::Value::object()
                                 .set("type", "shutdown"));
            else if (slot.pid >= 0)
                // Still starting: it holds no shard, and no shutdown
                // frame can reach it once the listener closes.
                ::kill(slot.pid, SIGKILL);
        }
        // Grace period, then the axe.
        retryUntil(Clock::now() + std::chrono::seconds(2),
                   std::chrono::milliseconds(20), [&] {
                       bool any = false;
                       for (WorkerSlot &slot : slots) {
                           if (slot.pid >= 0 &&
                               ::waitpid(slot.pid, nullptr, WNOHANG) ==
                                   slot.pid)
                               slot.pid = -1;
                           any = any || slot.pid >= 0;
                       }
                       return !any;
                   });
        for (WorkerSlot &slot : slots) {
            if (slot.pid < 0)
                continue;
            ::kill(slot.pid, SIGKILL);
            ::waitpid(slot.pid, nullptr, 0);
            slot.pid = -1;
        }
    }
};

Daemon::Daemon(DaemonConfig config)
    : impl_(std::make_unique<Impl>(std::move(config)))
{
}

Daemon::~Daemon() = default;

int
Daemon::run()
{
    return impl_->run();
}

} // namespace uscope::svc
