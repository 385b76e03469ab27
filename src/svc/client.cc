#include "svc/client.hh"

#include <algorithm>
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
        if (!conn_.pump() && !conn_.open())
            return conn_.next(); // whatever arrived with the hangup
    }
}

bool
Client::roundTrip(const char *type, const char *reply_type,
                  int timeout_ms)
{
    if (!conn_.send(json::Value::object().set("type", type)))
        return false;
    const std::optional<json::Value> reply = nextMessage(timeout_ms);
    return reply && stringField(*reply, "type") == reply_type;
}

bool
Client::ping(int timeout_ms)
{
    return roundTrip("ping", "pong", timeout_ms);
}

namespace
{

/** Fold a terminal frame (result, cancelled, error) into @p out; false
 *  for any other frame. */
bool
takeOutcome(const json::Value &frame, const std::string &type,
            SubmitResult &out)
{
    if (type == "result") {
        out.ok = true;
        out.fingerprint = stringField(frame, "fingerprint");
        out.workerDeaths =
            static_cast<unsigned>(field(frame, "worker_deaths"));
        out.steals = field(frame, "steals");
        if (const json::Value *result = frame.get("result"))
            out.resultJson = result->dump();
    } else if (type == "cancelled") {
        out.cancelled = true;
        out.error = stringField(frame, "reason");
        out.totalTrials = field(frame, "total");
        if (const json::Value *agg = frame.get("aggregate"))
            out.partialJson = agg->dump();
    } else if (type == "error") {
        out.error = stringField(frame, "message");
        out.notFound = stringField(frame, "code") == "not_found";
        return true;
    } else {
        return false;
    }
    out.campaignId = field(frame, "campaign");
    if (const json::Value *credits = frame.get("credits"))
        out.credits = *credits;
    return true;
}

} // namespace

/** The shared submit/attach path: send, then stream updates until a
 *  terminal frame (result, cancelled, not-found, error). */
SubmitResult
Client::follow(const char *type, const CampaignRequest &request,
               std::size_t stream_every,
               const std::function<void(const json::Value &)> &on_update)
{
    SubmitResult out;
    json::Value msg = json::Value::object()
                          .set("type", type)
                          .set("request", request.toJson());
    if (stream_every)
        msg.set("stream_every",
                static_cast<std::uint64_t>(stream_every));
    if (!conn_.send(msg)) {
        out.error = std::string("daemon connection lost on ") + type;
        return out;
    }
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
        const std::string kind = stringField(*frame, "type");
        if (kind == "accepted" || kind == "attached") {
            out.campaignId = field(*frame, "campaign");
            out.totalTrials = field(*frame, "total");
            out.resumedTrials = field(*frame, "resumed");
        } else if (kind == "update") {
            ++out.updates;
            if (on_update)
                on_update(*frame);
        } else if (takeOutcome(*frame, kind, out)) {
            return out;
        } else {
            log_.warn("unexpected frame type '%s'", kind.c_str());
        }
    }
}

SubmitResult
Client::submit(const CampaignRequest &request,
               std::size_t stream_every,
               const std::function<void(const json::Value &)> &on_update)
{
    return follow("submit", request, stream_every, on_update);
}

SubmitResult
Client::attach(const CampaignRequest &request,
               std::size_t stream_every,
               const std::function<void(const json::Value &)> &on_update)
{
    return follow("attach", request, stream_every, on_update);
}

std::optional<json::Value>
Client::awaitReply(const json::Value &msg,
                   std::initializer_list<std::string_view> types,
                   int timeout_ms)
{
    if (!conn_.send(msg))
        return std::nullopt;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    // Skip any in-flight update (or result) frames from a concurrent
    // submit on this connection.
    for (;;) {
        std::optional<json::Value> reply = nextMessage(timeout_ms);
        if (reply && std::find(types.begin(), types.end(),
                               stringField(*reply, "type")) != types.end())
            return reply;
        if (!conn_.open() || std::chrono::steady_clock::now() >= deadline)
            return std::nullopt;
    }
}

SubmitResult
Client::roundTripCancel(const json::Value &msg, int timeout_ms)
{
    SubmitResult out;
    const std::optional<json::Value> reply =
        awaitReply(msg, {"cancelled", "error"}, timeout_ms);
    if (!reply)
        out.error = "no cancel reply from daemon";
    else if (takeOutcome(*reply, stringField(*reply, "type"), out))
        out.ok = out.cancelled;
    return out;
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
    return roundTrip("drain", "draining", timeout_ms);
}

std::optional<json::Value>
Client::stats(int timeout_ms)
{
    return awaitReply(json::Value::object().set("type", "stats"),
                      {"stats"}, timeout_ms);
}

bool
Client::shutdownDaemon(int timeout_ms)
{
    return roundTrip("shutdown", "ok", timeout_ms);
}

} // namespace uscope::svc
