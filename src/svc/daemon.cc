#include "svc/daemon.hh"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/fsio.hh"
#include "common/logging.hh"
#include "svc/chaos.hh"
#include "svc/scheduler.hh"
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
 *  the loop hands it to the scheduler.  Reset at every Daemon::run()
 *  so thread-hosted test daemons are unaffected by a previous run. */
volatile std::sig_atomic_t g_drainRequested = 0;

void
onSigterm(int)
{
    g_drainRequested = 1;
}

std::string
selfExePath()
{
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (ec)
        fatal("svc: readlink(/proc/self/exe): %s", ec.message().c_str());
    return exe.string();
}

/** The reply to a frame the wire layer could not take. */
json::Value
frameError(const char *message)
{
    return json::Value::object()
        .set("type", "error")
        .set("campaign", std::uint64_t(0))
        .set("message", message);
}

/** Session::worker before a hello: the peer is a client. */
constexpr int kClient = -1;
/** Session::worker once its worker's death is reported. */
constexpr int kRetired = -2;

} // namespace

/** The I/O driver around svc::Scheduler: one loop turns poll() and
 *  waitpid() results into events and carries out their actions. */
struct Daemon::Impl
{
    /** One accepted connection; role is decided by its first message
     *  (hello => worker, anything else => client). */
    struct Session
    {
        std::uint64_t key = 0;
        Conn conn;
        int worker = kClient;
    };

    DaemonConfig config;
    Scheduler sched;
    int listenFd = -1;
    std::uint64_t nextSessionKey = 1;
    std::vector<Session> sessions;
    /** Process id per worker slot, -1 when none. */
    std::vector<pid_t> pids;
    bool dieAfterSpent = false;
    bool stop = false;
    const Clock::time_point started = Clock::now();

    explicit Impl(DaemonConfig cfg)
        : config(std::move(cfg)), sched(config),
          pids(std::max(config.workers, 1u), -1)
    {
        if (config.socketPath.empty())
            fatal("svc: daemon needs a socket path");
        if (config.workerExe.empty())
            config.workerExe = selfExePath();
    }

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - started)
            .count();
    }

    Session *
    workerSession(int id)
    {
        for (Session &s : sessions)
            if (s.worker == id)
                return &s;
        return nullptr;
    }

    // -----------------------------------------------------------------
    // Worker processes.
    // -----------------------------------------------------------------

    void
    spawnWorker(int id)
    {
        // Forward the daemon's sink config so one --log-level flag
        // (or USCOPE_LOG) configures the whole worker tree uniformly.
        const LogConfig log_config = logConfig();
        std::vector<std::string> args = {
            config.workerExe, kWorkerArg, "--socket=" + config.socketPath,
            "--id=" + std::to_string(id),
            "--heartbeat-ms=" + std::to_string(config.heartbeatMs),
            std::string("--log-level=") + logLevelName(log_config.level)};
        if (log_config.json)
            args.push_back("--log-json");
        if (id == 0 && config.worker0DieAfter && !dieAfterSpent) {
            args.push_back("--die-after-trials=" +
                           std::to_string(config.worker0DieAfter));
            dieAfterSpent = true;
        }
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        const pid_t pid = ::fork();
        if (pid == 0) {
            ::execv(config.workerExe.c_str(), argv.data());
            // exec failed; nothing sane to do in the child.
            ::_exit(127);
        }
        if (pid < 0)
            log_.warn("fork failed for worker %d: %s", id,
                      std::strerror(errno));
        else
            log_.info("spawned worker %d (pid %d)", id,
                      static_cast<int>(pid));
        pids[static_cast<std::size_t>(id)] = pid < 0 ? -1 : pid;
        sched.spawned(now(), id, pid);
    }

    /** Forget worker @p id's process, SIGKILLing it if it still runs,
     *  and its connection, once the scheduler counts it dead. */
    void
    retire(int id)
    {
        pid_t &pid = pids[static_cast<std::size_t>(id)];
        if (pid >= 0)
            ::kill(pid, SIGKILL);
        pid = -1;
        if (Session *s = workerSession(id)) {
            s->conn.close();
            s->worker = kRetired;
        }
    }

    void
    reapChildren()
    {
        for (;;) {
            const pid_t pid = ::waitpid(-1, nullptr, WNOHANG);
            if (pid <= 0)
                return;
            const auto it = std::find(pids.begin(), pids.end(), pid);
            if (it == pids.end())
                continue; // killed and retired already
            *it = -1; // reaped: nothing left to kill
            const int id = static_cast<int>(it - pids.begin());
            retire(id);
            on(Event::Kind::WorkerExited, static_cast<std::uint64_t>(id));
        }
    }

    void
    shutdownWorkers()
    {
        for (std::size_t id = 0; id < pids.size(); ++id) {
            if (Session *s = workerSession(static_cast<int>(id)))
                s->conn.send(json::Value::object()
                                 .set("type", "shutdown"));
            else if (pids[id] >= 0)
                // Still starting: it holds no shard, and no shutdown
                // frame can reach it once the listener closes.
                ::kill(pids[id], SIGKILL);
        }
        // Grace period, then the axe.
        retryUntil(Clock::now() + std::chrono::seconds(2),
                   std::chrono::milliseconds(20), [&] {
                       bool any = false;
                       for (pid_t &pid : pids) {
                           if (pid >= 0 &&
                               ::waitpid(pid, nullptr, WNOHANG) == pid)
                               pid = -1;
                           any = any || pid >= 0;
                       }
                       return !any;
                   });
        for (pid_t &pid : pids) {
            if (pid < 0)
                continue;
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
            pid = -1;
        }
    }

    // -----------------------------------------------------------------
    // Events in, actions out.
    // -----------------------------------------------------------------

    void
    execute(const Scheduler::Actions &actions)
    {
        for (const Action &a : actions) {
            const int worker = static_cast<int>(a.target);
            switch (a.kind) {
              case Action::Kind::ToClient:
                for (Session &s : sessions)
                    if (s.key == a.target)
                        s.conn.send(a.frame);
                break;
              case Action::Kind::ToWorker:
                if (Session *s = workerSession(worker))
                    s->conn.send(a.frame);
                break;
              case Action::Kind::Spawn:
                spawnWorker(worker);
                break;
              case Action::Kind::Kill:
                retire(worker);
                break;
              case Action::Kind::WriteManifest: {
                std::error_code ec;
                std::filesystem::create_directories(
                    std::filesystem::path(a.path).parent_path(), ec);
                if (!ec)
                    writeFileAtomic(a.path, a.frame.dump());
                break;
              }
              case Action::Kind::RemoveManifest:
                ::unlink(a.path.c_str());
                break;
              case Action::Kind::Stop:
                stop = true;
                break;
            }
        }
    }

    /** Hand the scheduler one event and carry out its actions. */
    void
    on(Event::Kind kind, std::uint64_t source = 0,
       const json::Value *frame = nullptr, std::string_view path = {})
    {
        execute(sched.on({kind, now(), source, frame, path}));
    }

    void
    dispatch(Session &session, const json::Value &msg)
    {
        if (session.worker >= 0)
            return on(Event::Kind::WorkerFrame,
                      static_cast<std::uint64_t>(session.worker), &msg);
        if (session.worker == kRetired)
            return;
        if (stringField(msg, "type") != "hello")
            return on(Event::Kind::ClientFrame, session.key, &msg);
        // A hello must name a running worker not yet connected.
        const std::uint64_t id = field(msg, "id", pids.size());
        if (id >= pids.size() || pids[id] < 0 ||
            workerSession(static_cast<int>(id))) {
            log_.warn("hello from unknown worker id %" PRIu64, id);
            session.conn.close();
            return;
        }
        session.worker = static_cast<int>(id);
        on(Event::Kind::WorkerHello, id);
    }

    /** Every manifest a previous daemon left under <stateDir>/pending/,
     *  in path order (directory order is not deterministic). */
    void
    resumePendingCampaigns()
    {
        if (config.stateDir.empty())
            return;
        std::error_code ec;
        std::filesystem::directory_iterator it(
            config.stateDir + "/pending", ec);
        if (ec)
            return;
        std::vector<std::filesystem::path> manifests;
        for (const auto &entry : it)
            if (entry.path().extension() == ".json")
                manifests.push_back(entry.path());
        std::sort(manifests.begin(), manifests.end());
        for (const std::filesystem::path &path : manifests) {
            std::ifstream in(path, std::ios::binary);
            const std::string text(
                (std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
            const std::optional<json::Value> manifest =
                json::Value::parse(text);
            on(Event::Kind::PendingManifest, 0,
               manifest ? &*manifest : nullptr, path.string());
        }
    }

    /** Flush, pump and dispatch every session; answer malformed
     *  frames; drop the sessions that hung up. */
    void
    serveSessions()
    {
        for (std::size_t i = 0; i < sessions.size();) {
            Session &session = sessions[i];
            session.conn.flushOut();
            const bool alive = session.conn.pump();
            while (std::optional<json::Value> msg = session.conn.next()) {
                dispatch(session, *msg);
                if (stop)
                    break;
            }
            // A malformed frame is the sender's bug, not ours: answer
            // each one with a structured error instead of swallowing
            // it silently (DESIGN.md §14).
            if (const std::size_t bad = session.conn.takeBadFrames()) {
                on(Event::Kind::BadFrames, bad);
                log_.warn("session %" PRIu64 " sent %zu malformed frame(s)",
                          session.key, bad);
                for (std::size_t b = 0; b < bad; ++b)
                    session.conn.send(
                        frameError("malformed frame (not valid JSON)"));
            }
            if (alive && session.conn.open()) {
                ++i;
                continue;
            }
            if (session.conn.corruptStream()) {
                on(Event::Kind::BadFrames, 1);
                log_.warn("session %" PRIu64 " sent an oversized frame; "
                          "dropping connection", session.key);
                session.conn.sendFinal(frameError(
                    "oversized frame exceeds the 256 MiB limit"));
            }
            const int worker = session.worker;
            const std::uint64_t key = session.key;
            sessions.erase(sessions.begin() +
                           static_cast<std::ptrdiff_t>(i));
            if (worker >= 0)
                on(Event::Kind::WorkerLost,
                   static_cast<std::uint64_t>(worker));
            else if (worker == kClient)
                on(Event::Kind::ClientGone, key);
        }
    }

    int
    run()
    {
        if (!config.stateDir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(config.stateDir, ec);
            if (ec)
                fatal("svc: cannot create state dir '%s': %s",
                      config.stateDir.c_str(), ec.message().c_str());
        }
        listenFd = listenUnix(config.socketPath);
        log_.info("listening on %s (%zu workers)",
                  config.socketPath.c_str(), pids.size());

        // SIGTERM = drain.  Restore on exit so thread-hosted test
        // daemons do not leave the handler behind.
        g_drainRequested = 0;
        struct sigaction drain_action = {};
        drain_action.sa_handler = onSigterm;
        struct sigaction prev_action = {};
        ::sigaction(SIGTERM, &drain_action, &prev_action);

        seedChaosRole(1); // decorrelate from workers' streams

        // The first tick spawns the pool; campaigns a previous daemon
        // left behind resume before the first client connects.
        on(Event::Kind::Tick);
        resumePendingCampaigns();

        while (!stop) {
            std::vector<pollfd> fds;
            fds.push_back(pollfd{listenFd, POLLIN, 0});
            // A session with buffered outbound bytes (a slow client)
            // needs a POLLOUT wakeup to drain.
            for (const Session &s : sessions)
                fds.push_back(pollfd{
                    s.conn.fd(),
                    static_cast<short>(POLLIN |
                                       (s.conn.wantWrite() ? POLLOUT : 0)),
                    0});
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);

            if (fds[0].revents & POLLIN) {
                int fd = -1;
                while (waitReadable(listenFd, 0) &&
                       (fd = acceptUnix(listenFd)) >= 0) {
                    sessions.push_back(Session{nextSessionKey++, Conn(fd)});
                    // Never let one stalled peer block the loop: all
                    // daemon-side sends buffer and drain on POLLOUT.
                    sessions.back().conn.setBuffered(true);
                }
            }
            serveSessions();
            reapChildren();
            if (g_drainRequested) {
                g_drainRequested = 0;
                log_.info("SIGTERM received; draining");
                on(Event::Kind::Drain);
            }
            on(Event::Kind::Tick);
        }

        // Give buffered terminal frames (draining/cancelled) one
        // last blocking push before the sockets close.
        for (Session &s : sessions)
            s.conn.flushOut();
        shutdownWorkers();
        ::close(listenFd);
        ::unlink(config.socketPath.c_str());
        log_.info("daemon exiting");
        ::sigaction(SIGTERM, &prev_action, nullptr);
        return 0;
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
