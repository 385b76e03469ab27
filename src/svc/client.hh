/**
 * @file
 * Blocking client for uscope-campaignd (DESIGN.md §13): connect,
 * submit a CampaignRequest, stream update frames through a callback,
 * return the final result.  One Client is one connection, confined to
 * one thread; concurrent submissions open one Client each (as
 * tests/test_svc's two-client suite does).
 */

#ifndef USCOPE_SVC_CLIENT_HH
#define USCOPE_SVC_CLIENT_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "common/json.hh"
#include "svc/registry.hh"
#include "svc/wire.hh"

namespace uscope::svc
{

/** The daemon's final answer for one submission. */
struct SubmitResult
{
    bool ok = false;
    /** Error text when !ok. */
    std::string error;
    /** The daemon-assigned campaign id (from the accepted/attached
     *  frame) — what cancel-by-id takes. */
    std::uint64_t campaignId = 0;
    /** The campaign was cancelled; `error` carries the reason and
     *  `partialJson` the partial aggregate the daemon computed at
     *  cancellation. */
    bool cancelled = false;
    /** attach() only: no running campaign matched the request —
     *  submit() instead (durable state makes that a resume). */
    bool notFound = false;
    /** Partial aggregate JSON from a cancelled frame (compact). */
    std::string partialJson;
    /** exp::fnv1aHex of the campaign's deterministic fingerprint —
     *  the value every service-vs-in-process comparison checks. */
    std::string fingerprint;
    unsigned workerDeaths = 0;
    std::size_t steals = 0;
    std::size_t totalTrials = 0;
    /** Trials restored from durable state instead of executed. */
    std::size_t resumedTrials = 0;
    /** Update frames received while the campaign ran. */
    std::size_t updates = 0;
    /** Per-worker campaign-scoped trial credits from the result
     *  frame: `{"<worker id>": {"run": N, "restored": N}}` — credited
     *  at the daemon's dedup point, so each worker-executed trial is
     *  counted exactly once no matter what steal/kill races replayed
     *  it.  Daemon-side checkpoint preloads bypass the workers and
     *  land in resumedTrials instead; run + restored + resumedTrials
     *  always equals totalTrials. */
    json::Value credits;
    /** The full result frame's "result" member (compact JSON). */
    std::string resultJson;
};

class Client
{
  public:
    /** Connect to @p socket_path, retrying for up to
     *  @p connect_timeout_ms (daemons take a moment to bind). */
    explicit Client(const std::string &socket_path,
                    int connect_timeout_ms = 5000);

    bool connected() const { return conn_.open(); }

    /** Round-trip a ping; the wait-ready probe. */
    bool ping(int timeout_ms = 2000);

    /**
     * Submit and block until the result (or error) frame.
     * @p stream_every asks for an update every N completed trials
     * (0 = daemon default); each update frame is handed to
     * @p on_update (compact JSON object) as it arrives.
     */
    SubmitResult submit(
        const CampaignRequest &request, std::size_t stream_every = 0,
        const std::function<void(const json::Value &)> &on_update = {});

    /**
     * Attach to a campaign already running in the daemon — matched by
     * the request's identityKey(), the same stable id the checkpoint
     * dir is keyed by — and stream it to completion exactly like
     * submit() would.  The daemon re-binds the campaign's update
     * stream to this connection and replays the current partial
     * immediately, so a client that crashed mid-submit reconnects,
     * attaches, and ends with a fingerprint byte-identical to an
     * uninterrupted run.  When nothing matches, `notFound` is set —
     * callers typically fall back to submit(), which resumes from
     * durable state when there is any.
     */
    SubmitResult attach(
        const CampaignRequest &request, std::size_t stream_every = 0,
        const std::function<void(const json::Value &)> &on_update = {});

    /**
     * Cancel a running campaign by id (or, with @p request, by
     * identity).  On success the returned SubmitResult has
     * cancelled = true and carries the partial aggregate; the
     * campaign's checkpoint dir is preserved, so resubmitting later
     * resumes where the cancel cut.
     */
    SubmitResult cancel(std::uint64_t campaign_id,
                        int timeout_ms = 10000);
    SubmitResult cancel(const CampaignRequest &request,
                        int timeout_ms = 10000);

    /** Ask the daemon to drain: stop accepting work, stop in-flight
     *  shards at the next trial boundary (checkpointing as they go),
     *  persist resumable manifests, and exit.  True when the daemon
     *  acknowledged. */
    bool drainDaemon(int timeout_ms = 5000);

    /**
     * One live ops snapshot (DESIGN.md §14): campaigns in flight
     * with shard tables and per-worker credits, the worker table,
     * merged svc.* metrics, and prof.* phase latencies.  nullopt on
     * timeout or a lost daemon.
     */
    std::optional<json::Value> stats(int timeout_ms = 5000);

    /** Ask the daemon to exit; true when it acknowledged. */
    bool shutdownDaemon(int timeout_ms = 5000);

  private:
    std::optional<json::Value> nextMessage(int timeout_ms);
    /** Send {"type": @p type}; true when @p reply_type answers. */
    bool roundTrip(const char *type, const char *reply_type,
                   int timeout_ms);
    SubmitResult follow(
        const char *type, const CampaignRequest &request,
        std::size_t stream_every,
        const std::function<void(const json::Value &)> &on_update);
    /** Send @p msg; the first reply of one of @p types, if any. */
    std::optional<json::Value>
    awaitReply(const json::Value &msg,
               std::initializer_list<std::string_view> types,
               int timeout_ms);
    SubmitResult roundTripCancel(const json::Value &msg,
                                 int timeout_ms);

    Conn conn_;
};

} // namespace uscope::svc

#endif // USCOPE_SVC_CLIENT_HH
