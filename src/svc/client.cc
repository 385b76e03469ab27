#include "svc/client.hh"

#include <chrono>
#include <thread>

#include "common/logging.hh"
#include "svc/chaos.hh"

namespace uscope::svc
{

namespace
{

constexpr Logger log_{"svc.client"};

} // namespace

Client::Client(const std::string &socket_path, int connect_timeout_ms)
{
    // connected() stays false on a timeout; callers decide.
    retryUntil(std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(connect_timeout_ms),
               std::chrono::milliseconds(20), [&] {
                   const int fd = connectUnix(socket_path);
                   if (fd >= 0)
                       conn_ = Conn(fd);
                   return fd >= 0;
               });
}

std::optional<json::Value>
Client::nextMessage(int timeout_ms)
{
    // Chaos site: a client that reads late is back-pressure against
    // the daemon's per-session outbound buffer — the condition the
    // POLLOUT drain path exists for.
    if (const int stall_ms = chaosClientStallMs())
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stall_ms));
    for (;;) {
        if (std::optional<json::Value> msg = conn_.next())
            return msg;
        if (!conn_.open())
            return std::nullopt;
        if (!waitReadable(conn_.fd(), timeout_ms))
            return std::nullopt;
        if (!conn_.pump() && !conn_.open()) {
            // Drain whatever arrived with the hangup.
            if (std::optional<json::Value> msg = conn_.next())
                return msg;
            return std::nullopt;
        }
    }
}

bool
Client::ping(int timeout_ms)
{
    if (!conn_.send(json::Value::object().set("type", "ping")))
        return false;
    const std::optional<json::Value> reply = nextMessage(timeout_ms);
    return reply && stringField(*reply, "type") == "pong";
}

/** The shared submit/attach wait loop: stream updates until a
 *  terminal frame (result, cancelled, not-found, error). */
SubmitResult
Client::waitOutcome(
    const std::function<void(const json::Value &)> &on_update)
{
    SubmitResult out;
    // No overall timeout: a campaign takes as long as it takes.  The
    // per-wait timeout only bounds how often we notice a dead daemon.
    for (;;) {
        const std::optional<json::Value> frame = nextMessage(1000);
        if (!frame) {
            if (!conn_.open()) {
                out.error = "daemon connection lost";
                return out;
            }
            continue;
        }
        const std::string type = stringField(*frame, "type");
        if (type == "accepted" || type == "attached") {
            out.campaignId = field(*frame, "campaign");
            out.totalTrials = field(*frame, "total");
            out.resumedTrials = field(*frame, "resumed");
        } else if (type == "update") {
            ++out.updates;
            if (on_update)
                on_update(*frame);
        } else if (type == "result") {
            out.ok = true;
            out.campaignId = field(*frame, "campaign");
            out.fingerprint = stringField(*frame, "fingerprint");
            out.workerDeaths =
                static_cast<unsigned>(field(*frame, "worker_deaths"));
            out.steals = field(*frame, "steals");
            if (const json::Value *credits = frame->get("credits"))
                out.credits = *credits;
            if (const json::Value *result = frame->get("result"))
                out.resultJson = result->dump();
            return out;
        } else if (type == "cancelled") {
            out.cancelled = true;
            out.campaignId = field(*frame, "campaign");
            out.error = stringField(*frame, "reason");
            out.totalTrials = field(*frame, "total");
            if (const json::Value *agg = frame->get("aggregate"))
                out.partialJson = agg->dump();
            if (const json::Value *credits = frame->get("credits"))
                out.credits = *credits;
            return out;
        } else if (type == "error") {
            out.error = stringField(*frame, "message");
            out.notFound =
                stringField(*frame, "code") == "not_found";
            return out;
        } else {
            log_.warn("unexpected frame type '%s'", type.c_str());
        }
    }
}

SubmitResult
Client::submit(const CampaignRequest &request,
               std::size_t stream_every,
               const std::function<void(const json::Value &)> &on_update)
{
    json::Value msg = json::Value::object()
                          .set("type", "submit")
                          .set("request", request.toJson());
    if (stream_every)
        msg.set("stream_every",
                static_cast<std::uint64_t>(stream_every));
    if (!conn_.send(msg)) {
        SubmitResult out;
        out.error = "daemon connection lost on submit";
        return out;
    }
    return waitOutcome(on_update);
}

SubmitResult
Client::attach(const CampaignRequest &request,
               std::size_t stream_every,
               const std::function<void(const json::Value &)> &on_update)
{
    json::Value msg = json::Value::object()
                          .set("type", "attach")
                          .set("request", request.toJson());
    if (stream_every)
        msg.set("stream_every",
                static_cast<std::uint64_t>(stream_every));
    if (!conn_.send(msg)) {
        SubmitResult out;
        out.error = "daemon connection lost on attach";
        return out;
    }
    return waitOutcome(on_update);
}

SubmitResult
Client::roundTripCancel(const json::Value &msg, int timeout_ms)
{
    SubmitResult out;
    if (!conn_.send(msg)) {
        out.error = "daemon connection lost on cancel";
        return out;
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    // Skip any in-flight update frames from a concurrent submit on
    // this connection; the reply is the next cancelled/error frame.
    for (;;) {
        const std::optional<json::Value> frame = nextMessage(timeout_ms);
        if (!frame) {
            if (!conn_.open() ||
                std::chrono::steady_clock::now() >= deadline) {
                out.error = "no cancel reply from daemon";
                return out;
            }
            continue;
        }
        const std::string type = stringField(*frame, "type");
        if (type == "cancelled") {
            out.cancelled = true;
            out.ok = true;
            out.campaignId = field(*frame, "campaign");
            out.error = stringField(*frame, "reason");
            out.totalTrials = field(*frame, "total");
            if (const json::Value *agg = frame->get("aggregate"))
                out.partialJson = agg->dump();
            if (const json::Value *credits = frame->get("credits"))
                out.credits = *credits;
            return out;
        }
        if (type == "error") {
            out.error = stringField(*frame, "message");
            out.notFound =
                stringField(*frame, "code") == "not_found";
            return out;
        }
    }
}

SubmitResult
Client::cancel(std::uint64_t campaign_id, int timeout_ms)
{
    return roundTripCancel(json::Value::object()
                               .set("type", "cancel")
                               .set("campaign", campaign_id),
                           timeout_ms);
}

SubmitResult
Client::cancel(const CampaignRequest &request, int timeout_ms)
{
    return roundTripCancel(json::Value::object()
                               .set("type", "cancel")
                               .set("request", request.toJson()),
                           timeout_ms);
}

bool
Client::drainDaemon(int timeout_ms)
{
    if (!conn_.send(json::Value::object().set("type", "drain")))
        return false;
    const std::optional<json::Value> reply = nextMessage(timeout_ms);
    return reply && stringField(*reply, "type") == "draining";
}

std::optional<json::Value>
Client::stats(int timeout_ms)
{
    if (!conn_.send(json::Value::object().set("type", "stats")))
        return std::nullopt;
    // Skip any in-flight update frames from a concurrent submit on
    // this connection; the stats reply is the next "stats" frame.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const std::optional<json::Value> reply =
            nextMessage(timeout_ms);
        if (reply && stringField(*reply, "type") == "stats")
            return reply;
        if (!reply || std::chrono::steady_clock::now() >= deadline)
            return std::nullopt;
    }
}

bool
Client::shutdownDaemon(int timeout_ms)
{
    if (!conn_.send(json::Value::object().set("type", "shutdown")))
        return false;
    const std::optional<json::Value> reply = nextMessage(timeout_ms);
    return reply && stringField(*reply, "type") == "ok";
}

} // namespace uscope::svc
