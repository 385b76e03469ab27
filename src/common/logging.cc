#include "common/logging.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/json.hh"

namespace uscope
{

namespace
{

/** Process-start anchor for the monotonic timestamp column.  A
 *  function-local static so the first log line from any translation
 *  unit initializes it without an ordering hazard. */
std::chrono::steady_clock::time_point
processStart()
{
    static const auto start = std::chrono::steady_clock::now();
    return start;
}

double
secondsSinceStart()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         processStart())
        .count();
}

std::atomic<int> sinkLevel{static_cast<int>(LogLevel::Info)};
std::atomic<bool> sinkJson{false};

/** Serializes emission so concurrent lines never interleave. */
std::mutex &
emitLock()
{
    static std::mutex lock;
    return lock;
}

void
emitLine(LogLevel level, const char *component, const std::string &msg)
{
    const double ts = secondsSinceStart();
    const std::string line =
        sinkJson.load(std::memory_order_relaxed)
            ? format("{\"ts\":%.6f,\"level\":\"%s\",\"component\":"
                     "\"%s\",\"msg\":\"%s\"}",
                     ts, logLevelName(level), component,
                     json::Value::escape(msg).c_str())
            : format("[%9.3fs] %-5s %s: %s", ts, logLevelName(level),
                     component, msg.c_str());
    std::lock_guard<std::mutex> guard(emitLock());
    std::fprintf(stderr, "%s\n", line.c_str());
    // Structured output is often tailed live (svc_client stats
    // --watch, CI smoke scripts); keep it unbuffered at line
    // granularity.
    std::fflush(stderr);
}

/** The component panic()/fatal()/warn() lines carry. */
constexpr Logger simLog{"sim"};

} // anonymous namespace

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list ap2;
    va_copy(ap2, ap);
    const int len = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out(len > 0 ? static_cast<std::size_t>(len) : 0, '\0');
    if (len > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

std::string
format(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string out = vformat(fmt, ap);
    va_end(ap);
    return out;
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    simLog.error("%s", msg.c_str());
    throw SimPanic(msg);
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    simLog.error("%s", msg.c_str());
    throw SimFatal(msg);
}

void
warn(const char *fmt, ...)
{
    if (!logEnabled(LogLevel::Warn))
        return;
    std::va_list ap;
    va_start(ap, fmt);
    simLog.vlog(LogLevel::Warn, fmt, ap);
    va_end(ap);
}

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Error: return "error";
      case LogLevel::Warn: return "warn";
      case LogLevel::Info: return "info";
      case LogLevel::Debug: return "debug";
    }
    return "?";
}

std::optional<LogLevel>
parseLogLevel(const std::string &name)
{
    for (LogLevel level : {LogLevel::Error, LogLevel::Warn,
                           LogLevel::Info, LogLevel::Debug}) {
        if (name == logLevelName(level))
            return level;
    }
    return std::nullopt;
}

void
configureLog(const LogConfig &config)
{
    sinkLevel.store(static_cast<int>(config.level),
                    std::memory_order_relaxed);
    sinkJson.store(config.json, std::memory_order_relaxed);
}

LogConfig
logConfig()
{
    LogConfig config;
    config.level = static_cast<LogLevel>(
        sinkLevel.load(std::memory_order_relaxed));
    config.json = sinkJson.load(std::memory_order_relaxed);
    return config;
}

void
configureLogFromEnv()
{
    const char *value = std::getenv("USCOPE_LOG");
    if (!value || !*value)
        return;
    LogConfig config = logConfig();
    std::string token;
    const std::string spec = value;
    for (std::size_t pos = 0; pos <= spec.size(); ++pos) {
        if (pos < spec.size() && spec[pos] != ',') {
            token += spec[pos];
            continue;
        }
        if (token == "json")
            config.json = true;
        else if (auto level = parseLogLevel(token))
            config.level = *level;
        else if (!token.empty())
            warn("USCOPE_LOG: unrecognized token '%s' (expected a "
                 "level error|warn|info|debug, or 'json')",
                 token.c_str());
        token.clear();
    }
    configureLog(config);
}

LogFlag
applyLogFlag(const std::string &arg)
{
    const std::string levelFlag = "--log-level";
    LogConfig config = logConfig();
    if (arg == "--log-json") {
        config.json = true;
    } else if (arg == levelFlag || arg.rfind(levelFlag + "=", 0) == 0) {
        const std::optional<LogLevel> level =
            arg == levelFlag
                ? std::nullopt
                : parseLogLevel(arg.substr(levelFlag.size() + 1));
        if (!level)
            return LogFlag::BadValue;
        config.level = *level;
    } else {
        return LogFlag::NotLogFlag;
    }
    configureLog(config);
    return LogFlag::Applied;
}

bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <=
           sinkLevel.load(std::memory_order_relaxed);
}

void
Logger::vlog(LogLevel level, const char *fmt, std::va_list ap) const
{
    if (!logEnabled(level))
        return;
    emitLine(level, component_, vformat(fmt, ap));
}

#define USCOPE_LOG_FRONT(name, level)                                  \
    void Logger::name(const char *fmt, ...) const                      \
    {                                                                  \
        if (!logEnabled(level))                                        \
            return;                                                    \
        std::va_list ap;                                               \
        va_start(ap, fmt);                                             \
        vlog(level, fmt, ap);                                          \
        va_end(ap);                                                    \
    }

USCOPE_LOG_FRONT(error, LogLevel::Error)
USCOPE_LOG_FRONT(warn, LogLevel::Warn)
USCOPE_LOG_FRONT(info, LogLevel::Info)
USCOPE_LOG_FRONT(debug, LogLevel::Debug)

#undef USCOPE_LOG_FRONT

} // namespace uscope
