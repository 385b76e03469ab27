#include "svc/worker.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "exp/campaign.hh"
#include "exp/checkpoint.hh"
#include "obs/cli.hh"
#include "obs/prof.hh"
#include "svc/chaos.hh"
#include "svc/registry.hh"
#include "svc/wire.hh"

namespace uscope::svc
{

namespace
{

using Clock = std::chrono::steady_clock;

constexpr Logger log_{"svc.worker"};

/** Everything one worker process accumulates and reports. */
struct WorkerLoop
{
    const WorkerOptions &opts;
    Conn conn;
    std::deque<json::Value> inbox;
    bool shutdown = false;

    // Lifetime counters, streamed with every heartbeat; the daemon
    // tags them into per-worker metric streams (obs::MetricSnapshot::
    // prefixed) so a campaign's update frames show who did what.
    std::uint64_t trialsRun = 0;
    std::uint64_t trialsRestored = 0;
    std::uint64_t shardsDone = 0;
    std::uint64_t simCycles = 0;
    /** Trials emitted ever, for --die-after-trials. */
    std::size_t emitted = 0;
    /** The trial frame under construction; its capacity is reused. */
    std::string frame;

    /** One executor per process: beginCampaign flushes anonymous
     *  warmup snapshots but keeps structureKey-matched ones — the
     *  cross-campaign Machine-pool warmth this architecture buys. */
    exp::TrialExecutor executor;

    Clock::time_point lastBeat = Clock::now();

    explicit WorkerLoop(const WorkerOptions &o, int fd)
        : opts(o), conn(fd)
    {
    }

    json::Value
    counters() const
    {
        return json::Value::object()
            .set("shards_done", shardsDone)
            .set("sim_cycles", simCycles)
            .set("trials_restored", trialsRestored)
            .set("trials_run", trialsRun);
    }

    void
    heartbeat()
    {
        const auto now = Clock::now();
        if (now - lastBeat < std::chrono::milliseconds(opts.heartbeatMs))
            return;
        lastBeat = now;
        // Chaos sites: a skipped or late beat is indistinguishable
        // (to the daemon) from a congested or wedged worker — the
        // heartbeat-timeout machinery must absorb both.
        if (chaosDropHeartbeat())
            return;
        if (const int delay_ms = chaosHeartbeatDelayMs())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay_ms));
        json::Value beat = json::Value::object()
                               .set("type", "heartbeat")
                               .set("id", opts.id)
                               .set("counters", counters());
        if (!executor.prof().empty())
            beat.set("prof", executor.prof().toJson());
        conn.send(std::move(beat));
    }

    /** Drain the socket into the inbox; false once the daemon is
     *  gone and nothing is left to process. */
    bool
    drain()
    {
        const bool alive = conn.pump();
        while (std::optional<json::Value> msg = conn.next())
            inbox.push_back(std::move(*msg));
        return alive;
    }

    void runShard(const json::Value &msg);
    int run();
};

void
WorkerLoop::runShard(const json::Value &msg)
{
    const json::Value *request_json = msg.get("request");
    std::optional<CampaignRequest> request =
        request_json ? CampaignRequest::fromJson(*request_json)
                     : std::nullopt;
    if (!request) {
        conn.send(json::Value::object()
                      .set("type", "error")
                      .set("id", opts.id)
                      .set("message", "malformed shard request"));
        return;
    }

    const std::uint64_t campaign = field(msg, "campaign");
    const std::uint64_t shard_id = field(msg, "shard");
    const std::size_t lo = field(msg, "lo");
    std::size_t hi = field(msg, "hi");

    exp::CampaignSpec spec;
    try {
        spec = buildSpec(*request);
    } catch (const std::exception &e) {
        conn.send(json::Value::object()
                      .set("type", "error")
                      .set("id", opts.id)
                      .set("campaign", campaign)
                      .set("message", e.what()));
        return;
    }
    spec.checkpointDir = stringField(msg, "checkpoint_dir");
    // Trace spills land under the campaign's durable state dir so
    // `svc_client trace` (and the daemon) can find every worker's
    // files in one place; without durable state there is nowhere
    // cross-process to spill, so tracing stays in-process only.
    if (spec.obsLevel >= obs::ObsLevel::Trace &&
        !spec.checkpointDir.empty())
        spec.traceSpillDir = spec.checkpointDir + "/traces";

    executor.beginCampaign(spec);

    std::optional<exp::CampaignCheckpoint> checkpoint;
    if (!spec.checkpointDir.empty())
        checkpoint.emplace(spec);

    bool lost = false; // daemon connection died mid-shard
    const auto current_hi = [&]() -> std::size_t {
        if (!conn.pump() && !conn.open()) {
            lost = true;
            return 0;
        }
        while (std::optional<json::Value> m = conn.next()) {
            const std::string type = stringField(*m, "type");
            if (type == "shrink" && field(*m, "shard") == shard_id) {
                hi = std::min<std::size_t>(hi, field(*m, "hi"));
            } else if (type == "shutdown") {
                shutdown = true;
            } else {
                inbox.push_back(std::move(*m));
            }
        }
        if (shutdown)
            return 0;
        heartbeat();
        return hi;
    };

    const auto emit = [&](exp::TrialResult &&result, bool restored) {
        restored ? ++trialsRestored : ++trialsRun;
        simCycles += result.output.simCycles;
        frame.clear();
        appendTrialFrame(frame, opts.id, campaign, shard_id, result,
                         restored);
        conn.sendFrame(frame);
        ++emitted;
        if (opts.dieAfterTrials && emitted >= opts.dieAfterTrials) {
            // The deterministic crash hook: die exactly like kill -9
            // would — mid-shard, no destructors, no goodbyes.
            ::raise(SIGKILL);
        }
    };

    exp::runShardRange(spec, lo, hi, executor,
                       checkpoint ? &*checkpoint : nullptr, emit,
                       current_hi,
                       static_cast<unsigned>(opts.id));
    ++shardsDone;
    if (!lost && !shutdown) {
        json::Value done = json::Value::object()
                               .set("type", "shard_done")
                               .set("id", opts.id)
                               .set("campaign", campaign)
                               .set("shard", shard_id)
                               .set("counters", counters());
        if (!executor.prof().empty())
            done.set("prof", executor.prof().toJson());
        conn.send(std::move(done));
    }
}

int
WorkerLoop::run()
{
    conn.send(json::Value::object()
                  .set("type", "hello")
                  .set("id", opts.id)
                  .set("pid", static_cast<std::uint64_t>(::getpid())));

    while (!shutdown) {
        if (inbox.empty())
            waitReadable(conn.fd(), opts.heartbeatMs);
        const bool alive = drain();
        while (!inbox.empty() && !shutdown) {
            const json::Value msg = std::move(inbox.front());
            inbox.pop_front();
            const std::string type = stringField(msg, "type");
            if (type == "shard")
                runShard(msg);
            else if (type == "shutdown")
                shutdown = true;
            else if (type != "shrink") // stale shrinks are expected
                log_.warn("worker %d: unexpected message type '%s'",
                          opts.id, type.c_str());
        }
        if (!alive && inbox.empty())
            break; // daemon is gone; nothing left to do
        heartbeat();
    }
    return 0;
}

} // namespace

void
appendTrialFrame(std::string &out, int worker, std::uint64_t campaign,
                 std::uint64_t shard, const exp::TrialResult &result,
                 bool restored)
{
    // The length prefix is patched in once the payload is written.
    const std::size_t start = out.size();
    out.append(4, '\0');
    out += "{\"type\":\"trial\",\"id\":";
    json::appendInt(out, worker);
    out += ",\"campaign\":";
    json::appendUint(out, campaign);
    out += ",\"shard\":";
    json::appendUint(out, shard);
    out += ",\"index\":";
    json::appendUint(out, result.index);
    out += restored ? ",\"restored\":true" : ",\"restored\":false";
    out += ",\"data\":\"";
    exp::CampaignCheckpoint::appendEscapedTrial(out, result);
    out += "\"}";
    const auto n = static_cast<std::uint32_t>(out.size() - start - 4);
    for (std::size_t i = 0; i < 4; ++i)
        out[start + i] = static_cast<char>((n >> (24 - 8 * i)) & 0xff);
}

int
runWorkerMain(const WorkerOptions &options)
{
    // The daemon may still be mid-listen when a worker launches.
    int fd = -1;
    retryUntil(Clock::now() + std::chrono::seconds(5),
               std::chrono::milliseconds(50), [&] {
                   fd = connectUnix(options.socketPath);
                   return fd >= 0;
               });
    if (fd < 0) {
        log_.warn("worker %d: cannot connect to '%s'", options.id,
                  options.socketPath.c_str());
        return 1;
    }
    WorkerLoop loop(options, fd);
    return loop.run();
}

bool
maybeRunWorkerMain(int argc, char **argv, int *exit_code)
{
    if (argc < 2 || std::string(argv[1]) != kWorkerArg)
        return false;
    configureLogFromEnv();
    WorkerOptions options;
    // The daemon writes these flags; a value that does not parse ends
    // the worker with a usage error instead of becoming 0 (a 0 ms
    // heartbeat would spin).
    const auto usageError = [&](const std::string &arg) {
        log_.error("bad value in '%s'", arg.c_str());
        *exit_code = 2;
        return true;
    };
    const auto numberOf =
        [](const std::string &text, std::uint64_t lo,
           std::uint64_t hi) -> std::optional<std::uint64_t> {
        const std::optional<std::uint64_t> n =
            obs::parseUnsignedValue(text.c_str());
        return n && *n >= lo && *n <= hi ? n : std::nullopt;
    };
    constexpr std::uint64_t maxInt = std::numeric_limits<int>::max();
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto valueOf = [&](const char *prefix)
            -> std::optional<std::string> {
            const std::size_t n = std::string(prefix).size();
            if (arg.rfind(prefix, 0) == 0)
                return arg.substr(n);
            return std::nullopt;
        };
        if (auto v = valueOf("--socket=")) {
            options.socketPath = *v;
        } else if (auto v = valueOf("--id=")) {
            const auto n = numberOf(*v, 0, maxInt);
            if (!n)
                return usageError(arg);
            options.id = static_cast<int>(*n);
        } else if (auto v = valueOf("--die-after-trials=")) {
            const auto n = numberOf(*v, 0, SIZE_MAX);
            if (!n)
                return usageError(arg);
            options.dieAfterTrials = static_cast<std::size_t>(*n);
        } else if (auto v = valueOf("--heartbeat-ms=")) {
            const auto n = numberOf(*v, 1, maxInt);
            if (!n)
                return usageError(arg);
            options.heartbeatMs = static_cast<int>(*n);
        } else if (const LogFlag log = applyLogFlag(arg);
                   log == LogFlag::BadValue) {
            return usageError(arg);
        } else if (log == LogFlag::NotLogFlag) {
            log_.warn("ignoring unknown flag '%s'", arg.c_str());
        }
    }
    // Decorrelate this worker's chaos streams from its siblings'
    // (they all inherit the same USCOPE_SVC_CHAOS).
    seedChaosRole(0x40000000ull + static_cast<std::uint64_t>(options.id));
    if (options.socketPath.empty()) {
        log_.warn("no --socket= given");
        *exit_code = 1;
        return true;
    }
    *exit_code = runWorkerMain(options);
    return true;
}

} // namespace uscope::svc
