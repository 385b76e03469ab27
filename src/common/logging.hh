/**
 * @file
 * Status and error reporting: one process-wide log sink (DESIGN.md
 * §14) and the gem5-style free functions that write to it.
 *
 *  - panic():  a simulator bug — a condition that should be impossible
 *              regardless of user input.  Emits one `error` line, then
 *              throws SimPanic (so tests can assert on it).
 *  - fatal():  the simulation cannot continue because of a user error
 *              (bad configuration, invalid arguments).  Emits one
 *              `error` line, then throws SimFatal.
 *  - warn():   something may be modelled imprecisely; keep going.
 *
 * All three write under the component "sim".  Higher layers log
 * through component-tagged `Logger` fronts onto the same sink:
 *
 *     static const Logger log("svc.daemon");
 *     log.info("worker %d spawned (pid %d)", id, pid);
 *
 * Every line carries a monotonic wall timestamp (seconds since
 * process start — steady_clock, so log deltas are real durations even
 * if NTP steps the wall clock mid-campaign), a severity, and the
 * component tag.  Two output shapes, chosen per process:
 *
 *   pretty (default):  [  12.345s] warn  svc.daemon: message
 *   NDJSON (--log-json / USCOPE_LOG=json):
 *       {"ts":12.345,"level":"warn","component":"svc.daemon",
 *        "msg":"message"}
 *
 * Configuration is per-process: `configureLogFromEnv()` reads
 * `USCOPE_LOG` (comma-separated tokens: a level name `error|warn|
 * info|debug`, and/or `json`); every binary also accepts
 * `--log-level=L` / `--log-json` (parsed by applyLogFlag), and the
 * daemon forwards them to its workers so one flag configures the
 * whole worker tree.  The level gates every line, warn() included: a
 * warn() from deep inside a Machine is dropped at --log-level=error
 * like any other warn line.
 *
 * The observation-must-not-perturb contract: logging formats and
 * emits only — it never touches simulation state, and campaign
 * fingerprints are proven (tests/test_log) byte-identical at every
 * level, error through debug, pretty and NDJSON alike.
 *
 * Thread safety: the sink config is written during process startup
 * and read with relaxed atomics; line emission serializes on an
 * internal mutex so concurrent lines never interleave mid-line.
 */

#ifndef USCOPE_COMMON_LOGGING_HH
#define USCOPE_COMMON_LOGGING_HH

#include <cstdarg>
#include <optional>
#include <stdexcept>
#include <string>

namespace uscope
{

/** Thrown by panic(): an internal simulator invariant was violated. */
class SimPanic : public std::logic_error
{
  public:
    explicit SimPanic(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(): the user asked for something unsupported. */
class SimFatal : public std::runtime_error
{
  public:
    explicit SimFatal(const std::string &msg) : std::runtime_error(msg) {}
};

/** printf-style formatting into a std::string. */
std::string vformat(const char *fmt, std::va_list ap);
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an internal simulator bug and throw SimPanic. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user error and throw SimFatal. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a non-fatal modelling caveat. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Severity, most to least severe.  A sink at level L emits lines
 *  with severity <= L. */
enum class LogLevel : int
{
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/** Printable name ("error", "warn", "info", "debug"). */
const char *logLevelName(LogLevel level);

/** Inverse of logLevelName; nullopt on anything else. */
std::optional<LogLevel> parseLogLevel(const std::string &name);

/** The process-wide sink configuration. */
struct LogConfig
{
    LogLevel level = LogLevel::Info;
    /** NDJSON lines instead of pretty ones. */
    bool json = false;
};

/** Install @p config as the process-wide sink. */
void configureLog(const LogConfig &config);

/** Current sink configuration. */
LogConfig logConfig();

/**
 * Configure from `USCOPE_LOG` — comma-separated tokens, each either a
 * level name or `json` (e.g. `USCOPE_LOG=debug,json`).  Unrecognized
 * tokens warn and are ignored; an unset/empty variable leaves the
 * defaults.  Idempotent and cheap; call it at the top of main().
 */
void configureLogFromEnv();

/** What applyLogFlag made of one command-line argument. */
enum class LogFlag
{
    /** Not `--log-level=...` or `--log-json`; the sink is untouched. */
    NotLogFlag,
    /** A log flag, now applied to the process-wide sink. */
    Applied,
    /** `--log-level` without one of error|warn|info|debug; the sink is
     *  untouched and the caller reports its own usage error. */
    BadValue,
};

/** Apply @p arg to the sink if it is `--log-level=LEVEL` or
 *  `--log-json`. */
LogFlag applyLogFlag(const std::string &arg);

/** True when a line at @p level would be emitted (cheap gate for
 *  callers that want to skip formatting work entirely). */
bool logEnabled(LogLevel level);

/**
 * One component's front onto the shared sink.  Cheap to construct
 * (stores a pointer); intended as a namespace-scope or static-local
 * constant per component.
 */
class Logger
{
  public:
    explicit constexpr Logger(const char *component)
        : component_(component)
    {
    }

    const char *component() const { return component_; }

    void error(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));
    void warn(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));
    void info(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));
    void debug(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

    /** The core emitter the convenience fronts funnel into. */
    void vlog(LogLevel level, const char *fmt, std::va_list ap) const;

  private:
    const char *component_;
};

} // namespace uscope

#endif // USCOPE_COMMON_LOGGING_HH
