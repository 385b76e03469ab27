/**
 * @file
 * The campaign service's wire layer (DESIGN.md §13): length-prefixed
 * JSON frames over local (AF_UNIX) stream sockets.
 *
 * Every message — client submissions, shard dispatches, per-trial
 * results, heartbeats — is one *frame*: a 4-byte big-endian payload
 * length followed by that many bytes of compact JSON.  The explicit
 * prefix makes framing independent of JSON syntax (trial payloads may
 * embed anything), keeps the reader allocation-bounded (oversized
 * lengths are rejected before any buffering), and lets FrameSplitter
 * be a pure, unit-testable byte machine with no socket in sight.
 *
 * Sockets stay in blocking mode.  Reads always use MSG_DONTWAIT —
 * Conn::pump() drains whatever the kernel has and never blocks; the
 * daemon's poll() loop and the worker's poll()-with-timeout decide
 * when pumping is worthwhile.  Writes come in two flavours: workers
 * and clients block (frames are small; the kernel buffer absorbs
 * them), while the daemon's sessions run in *buffered* mode —
 * setBuffered() turns send() into append-to-outbound-queue plus an
 * opportunistic MSG_DONTWAIT flush, and the poll() loop drains the
 * rest on POLLOUT.  A stalled `svc_client stream` therefore slows
 * only its own stream: the daemon never blocks in send() and a
 * partially-written frame can never interleave with the next one.
 * All writes use MSG_NOSIGNAL so a vanished peer surfaces as a clean
 * `false`, never SIGPIPE.
 */

#ifndef USCOPE_SVC_WIRE_HH
#define USCOPE_SVC_WIRE_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "common/json.hh"

namespace uscope::svc
{

/** Frames above this are a protocol violation (or an attack on the
 *  daemon's memory); the connection is dropped. */
constexpr std::size_t kMaxFrameBytes = 256u << 20;

/** A buffered connection whose unsent backlog exceeds this is a peer
 *  that stopped reading long ago; it is marked failed and dropped
 *  rather than allowed to grow the daemon without bound. */
constexpr std::size_t kMaxOutboundBytes = 256u << 20;

/** Prepend the 4-byte big-endian length to @p payload. */
std::string encodeFrame(const std::string &payload);

/**
 * Incremental frame decoder: feed() arbitrary byte chunks, next()
 * pops complete payloads in arrival order.  Pure logic — the unit
 * tests drive it with pathological fragmentations no real socket
 * would produce.
 */
class FrameSplitter
{
  public:
    void feed(const char *data, std::size_t len);

    /** Pop the next complete frame payload, if any. */
    std::optional<std::string> next();

    /** Set when a frame declared a length above kMaxFrameBytes; the
     *  stream is unrecoverable past this point. */
    bool corrupt() const { return corrupt_; }

  private:
    std::string buf_;
    std::deque<std::string> ready_;
    bool corrupt_ = false;
};

/**
 * One framed-JSON connection.  Owns the fd; move-only.  A Conn is
 * confined to one thread (daemon loop or worker loop) — there is no
 * internal locking.
 */
class Conn
{
  public:
    Conn() = default;
    explicit Conn(int fd) : fd_(fd) {}
    ~Conn();
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;
    Conn(Conn &&other) noexcept;
    Conn &operator=(Conn &&other) noexcept;

    int fd() const { return fd_; }
    bool open() const { return fd_ >= 0 && !failed_; }
    void close();

    /** Frame + send @p msg.  Blocking by default; with setBuffered()
     *  the frame is queued and drained by flushOut() instead.  False
     *  when the peer is gone (or the outbound cap is blown); the
     *  connection is marked failed and further sends no-op. */
    bool send(const json::Value &msg);

    /** send() for a frame already encoded (encodeFrame's bytes). */
    bool sendFrame(const std::string &frame);

    /**
     * Switch send() to non-blocking buffered mode: frames append to
     * an outbound queue, each send() opportunistically flushes with
     * MSG_DONTWAIT, and the owner drains the remainder via flushOut()
     * when poll() reports POLLOUT.  The daemon runs every session
     * this way so one stalled client cannot wedge the loop.
     */
    void setBuffered(bool on) { buffered_ = on; }

    /** True when buffered bytes await a POLLOUT-driven flush. */
    bool wantWrite() const { return outOff_ < out_.size(); }

    /** Unsent buffered bytes. */
    std::size_t pendingOut() const { return out_.size() - outOff_; }

    /**
     * Push buffered bytes until the kernel refuses (EAGAIN) or the
     * queue empties.  False when the peer is gone — the connection is
     * marked failed, same as a blocking-send failure.
     */
    bool flushOut();

    /**
     * Drain every byte the kernel currently has (MSG_DONTWAIT) into
     * the splitter.  Returns false when the peer hung up or the
     * stream is corrupt — received frames already split remain
     * poppable via next().
     */
    bool pump();

    /** Pop the next complete received message.  Frames that fail
     *  JSON parsing are dropped with a warning (one bad message must
     *  not wedge the stream) and counted — takeBadFrames() lets the
     *  daemon answer each with a structured error frame instead of
     *  swallowing the problem silently. */
    std::optional<json::Value> next();

    /** Number of non-JSON frames next() dropped since the last call
     *  (the counter resets on read). */
    std::size_t takeBadFrames();

    /** True when the peer declared an oversized frame; the stream is
     *  unrecoverable (pump() already marked the connection failed). */
    bool corruptStream() const { return splitter_.corrupt(); }

    /**
     * Best-effort send that ignores the failed flag: the last-gasp
     * structured error reply on an already-doomed connection (e.g.
     * telling an oversized-frame sender *why* it is being dropped).
     * The fd must still be open; errors are ignored.
     */
    void sendFinal(const json::Value &msg);

  private:
    bool writeFrame(const std::string &frame);

    int fd_ = -1;
    bool failed_ = false;
    bool buffered_ = false;
    std::size_t badFrames_ = 0;
    FrameSplitter splitter_;
    /** Buffered-mode outbound queue: bytes [outOff_, out_.size()) are
     *  still unsent.  Compacted as the flusher advances. */
    std::string out_;
    std::size_t outOff_ = 0;
};

/** Unsigned member @p key of @p msg; @p fallback when absent or not
 *  a number. */
std::uint64_t field(const json::Value &msg, const char *key,
                    std::uint64_t fallback = 0);

/** String member @p key of @p msg; empty when absent. */
std::string stringField(const json::Value &msg, const char *key);

/**
 * Bind + listen on @p path (unlinking any stale socket first).
 * Throws SimFatal on failure — a daemon that cannot listen has
 * nothing else to do.
 */
int listenUnix(const std::string &path);

/** Connect to @p path; -1 on failure (callers retry — the daemon may
 *  still be binding). */
int connectUnix(const std::string &path);

/** Accept one pending connection; -1 when none is pending. */
int acceptUnix(int listen_fd);

/** poll() @p fd for readability; true when readable (or hung up)
 *  within @p timeout_ms. */
bool waitReadable(int fd, int timeout_ms);

/**
 * Call @p attempt until it returns true or @p deadline passes; false
 * when every attempt failed.  The first wait is 0.1 ms and each wait
 * doubles up to @p max_wait, never sleeping past the deadline, so the
 * last attempt runs at or after it.  Every start-up and stop wait of
 * the service goes through here (DESIGN.md §13): a peer that is ready
 * within a millisecond is seen within about a millisecond, and a slow
 * one is polled no more often than every @p max_wait.
 */
bool retryUntil(std::chrono::steady_clock::time_point deadline,
                std::chrono::microseconds max_wait,
                const std::function<bool()> &attempt);

} // namespace uscope::svc

#endif // USCOPE_SVC_WIRE_HH
