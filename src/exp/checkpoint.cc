#include "exp/checkpoint.hh"

#include <bit>
#include <charconv>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <unistd.h>

#include "common/logging.hh"

namespace uscope::exp
{

namespace
{

constexpr Logger log_{"exp.checkpoint"};

constexpr const char *trialMagic = "uscope-trial-v1";
constexpr const char *manifestMagic = "uscope-campaign-v1";

/** Doubles persist as the hex of their bit pattern — the only text
 *  encoding that round-trips NaN payloads and signed zeros exactly.
 *  Always 16 lowercase digits. */
void
appendHexBits(std::string &out, double value)
{
    std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    char buf[16];
    for (int i = 15; i >= 0; --i, bits >>= 4)
        buf[i] = "0123456789abcdef"[bits & 0xf];
    out.append(buf, sizeof buf);
}

void
appendSummary(std::string &out, const Summary &summary)
{
    json::appendUint(out, summary.count());
    for (const double part : {summary.mean(), summary.m2(),
                              summary.rawMin(), summary.rawMax()}) {
        out += ' ';
        appendHexBits(out, part);
    }
}

/**
 * Writes a trial record either as is or JSON-escaped: as the body of
 * the JSON string that carries it in a service frame.  The two differ
 * only in newlines and in the bytes of blobs, so one writer emits both
 * and the frame needs no second pass over the record.
 */
template <bool Escaped>
struct RecordWriter
{
    std::string &out;

    void
    newline()
    {
        if constexpr (Escaped)
            out += "\\n";
        else
            out += '\n';
    }

    /** `key <len>\n<bytes>\n`: the length prefix makes arbitrary
     *  bytes (exception texts, JSON dumps) safe to embed. */
    void
    blob(const char *key, std::string_view bytes)
    {
        out += key;
        out += ' ';
        json::appendUint(out, bytes.size());
        newline();
        if constexpr (Escaped)
            json::appendEscaped(out, bytes);
        else
            out += bytes;
        newline();
    }

    /** blob() of a metric name, from its cached escaped form. */
    void
    name(const char *key, obs::MetricName name)
    {
        if constexpr (Escaped) {
            const std::string_view quoted = name.json();
            out += key;
            out += ' ';
            json::appendUint(out, name.view().size());
            newline();
            out += quoted.substr(1, quoted.size() - 2);
            newline();
        } else {
            blob(key, name.view());
        }
    }
};

template <bool Escaped>
void
writeTrial(std::string &out, const TrialResult &result)
{
    RecordWriter<Escaped> w{out};
    out += trialMagic;
    w.newline();
    out += "index ";
    json::appendUint(out, result.index);
    w.newline();
    out += "seed ";
    json::appendUint(out, result.seed);
    w.newline();
    out += "status ";
    out += trialStatusName(result.status);
    w.newline();
    out += "attempts ";
    json::appendUint(out, result.attempts);
    w.newline();
    out += "wall ";
    appendHexBits(out, result.wallSeconds);
    w.newline();
    out += "sim_cycles ";
    json::appendUint(out, result.output.simCycles);
    w.newline();
    w.blob("error", result.error);
    w.blob("payload", result.output.payload.isNull()
                          ? std::string()
                          : result.output.payload.dump());
    out += "metric ";
    appendSummary(out, result.output.metric);
    w.newline();
    const ms::MicroscopeStats &scope = result.output.scope;
    out += "scope";
    for (const std::uint64_t count :
         {scope.handleFaults, scope.pivotFaults, scope.foreignFaults,
          scope.episodes, scope.totalReplays}) {
        out += ' ';
        json::appendUint(out, count);
    }
    w.newline();
    out += "metrics ";
    json::appendUint(out, result.output.metrics.values.size());
    w.newline();
    for (const obs::MetricValue &value : result.output.metrics.values) {
        switch (value.kind) {
          case obs::MetricKind::Counter:
            w.name("counter", value.name);
            json::appendUint(out, value.counter);
            break;
          case obs::MetricKind::Gauge:
            w.name("gauge", value.name);
            appendHexBits(out, value.gauge);
            break;
          case obs::MetricKind::Latency:
            w.name("latency", value.name);
            appendSummary(out, value.latency);
            break;
        }
        w.newline();
    }
    out += "end";
    w.newline();
}

/**
 * Cursor over the serialized text.  Every accessor clears `ok` on
 * malformed input instead of throwing, so parseTrial reduces to a
 * straight-line read followed by one validity check.  Numbers are
 * unsigned digit strings: a sign, a base prefix or anything but
 * digits after them fails the read.
 */
struct Reader
{
    std::string_view s;
    std::size_t pos = 0;
    bool ok = true;

    std::string_view
    word()
    {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n'))
            ++pos;
        const std::size_t start = pos;
        while (pos < s.size() && s[pos] != ' ' && s[pos] != '\n')
            ++pos;
        if (start == pos)
            ok = false;
        return s.substr(start, pos - start);
    }

    void
    expect(std::string_view token)
    {
        if (word() != token)
            ok = false;
    }

    std::uint64_t
    number(std::string_view w, int base)
    {
        std::uint64_t v = 0;
        const auto [end, ec] =
            std::from_chars(w.data(), w.data() + w.size(), v, base);
        if (ec != std::errc() || end != w.data() + w.size())
            ok = false;
        return v;
    }

    std::uint64_t u64() { return number(word(), 10); }

    double
    bits()
    {
        const std::string_view w = word();
        if (w.size() != 16)
            ok = false;
        return std::bit_cast<double>(number(w, 16));
    }

    Summary
    summary()
    {
        const std::uint64_t count = u64();
        const double mean = bits();
        const double m2 = bits();
        const double min = bits();
        const double max = bits();
        return Summary::fromParts(count, mean, m2, min, max);
    }

    /** The bytes of a length-prefixed blob: exactly one '\n' after the
     *  length token, then @p len raw bytes. */
    std::string_view
    blob(std::uint64_t len)
    {
        if (pos >= s.size() || s[pos] != '\n' || len > s.size() - pos - 1) {
            ok = false;
            return {};
        }
        ++pos;
        const std::string_view bytes = s.substr(pos, len);
        pos += len;
        return bytes;
    }
};

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in)
        return std::nullopt;
    return buffer.str();
}

std::optional<TrialStatus>
statusFromName(std::string_view name)
{
    for (TrialStatus status :
         {TrialStatus::Ok, TrialStatus::Failed, TrialStatus::TimedOut,
          TrialStatus::Retried}) {
        if (name == trialStatusName(status))
            return status;
    }
    return std::nullopt;
}

} // namespace

std::string
CampaignCheckpoint::serializeTrial(const TrialResult &result)
{
    std::string out;
    writeTrial<false>(out, result);
    return out;
}

void
CampaignCheckpoint::appendEscapedTrial(std::string &out,
                                       const TrialResult &result)
{
    writeTrial<true>(out, result);
}

std::optional<TrialResult>
CampaignCheckpoint::parseTrial(const std::string &text)
{
    Reader r{text};
    if (r.word() != trialMagic)
        return std::nullopt;

    TrialResult out;
    r.expect("index");
    out.index = r.u64();
    r.expect("seed");
    out.seed = r.u64();
    r.expect("status");
    const std::optional<TrialStatus> status = statusFromName(r.word());
    if (!status)
        return std::nullopt;
    out.status = *status;
    r.expect("attempts");
    out.attempts = static_cast<unsigned>(r.u64());
    r.expect("wall");
    out.wallSeconds = r.bits();
    r.expect("sim_cycles");
    out.output.simCycles = r.u64();
    r.expect("error");
    out.error = r.blob(r.u64());
    r.expect("payload");
    const std::string_view payload = r.blob(r.u64());
    if (!payload.empty())
        out.output.payload = json::Value::raw(std::string(payload));
    r.expect("metric");
    out.output.metric = r.summary();
    r.expect("scope");
    out.output.scope.handleFaults = r.u64();
    out.output.scope.pivotFaults = r.u64();
    out.output.scope.foreignFaults = r.u64();
    out.output.scope.episodes = r.u64();
    out.output.scope.totalReplays = r.u64();
    r.expect("metrics");
    const std::uint64_t entries = r.u64();
    std::vector<obs::MetricValue> &values = out.output.metrics.values;
    for (std::uint64_t i = 0; r.ok && i < entries; ++i) {
        obs::MetricValue value;
        const std::string_view kind = r.word();
        value.name = obs::MetricName(r.blob(r.u64()));
        // A snapshot is sorted by unique name; anything else is not
        // one this code wrote.
        if (!values.empty() && !(values.back().name < value.name))
            return std::nullopt;
        if (kind == "counter") {
            value.kind = obs::MetricKind::Counter;
            value.counter = r.u64();
        } else if (kind == "gauge") {
            value.kind = obs::MetricKind::Gauge;
            value.gauge = r.bits();
        } else if (kind == "latency") {
            value.kind = obs::MetricKind::Latency;
            value.latency = r.summary();
        } else {
            return std::nullopt;
        }
        values.push_back(std::move(value));
    }
    r.expect("end");
    if (!r.ok || out.attempts == 0)
        return std::nullopt;
    return out;
}

std::string
CampaignCheckpoint::manifestPath() const
{
    return dir_ + "/manifest.txt";
}

std::string
CampaignCheckpoint::trialPath(std::size_t index) const
{
    return dir_ + "/trial_" + std::to_string(index) + ".ckpt";
}

std::string
CampaignCheckpoint::manifestText() const
{
    std::string out;
    out += manifestMagic;
    out += '\n';
    RecordWriter<false>{out}.blob("name", name_);
    out += "trials ";
    json::appendUint(out, trials_);
    out += "\nmaster_seed ";
    json::appendUint(out, masterSeed_);
    out += "\ncycle_budget ";
    json::appendUint(out, cycleBudget_);
    out += "\nmax_retries ";
    json::appendUint(out, maxRetries_);
    out += '\n';
    return out;
}

CampaignCheckpoint::CampaignCheckpoint(const CampaignSpec &spec)
    : dir_(spec.checkpointDir), name_(spec.name), trials_(spec.trials),
      masterSeed_(spec.masterSeed), cycleBudget_(spec.cycleBudget),
      maxRetries_(spec.maxRetries)
{
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("CampaignCheckpoint: cannot create directory '%s': %s",
              dir_.c_str(), ec.message().c_str());

    const std::optional<std::string> existing = readFile(manifestPath());
    if (existing && *existing == manifestText()) {
        resuming_ = true;
        return;
    }
    if (existing)
        log_.warn("campaign '%s': checkpoint directory '%s' holds a "
                  "different campaign's state; discarding it",
                  name_.c_str(), dir_.c_str());

    // Fresh start: stale trial files (possibly from a campaign with a
    // different trial count) must not be picked up by load().
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        const std::string file = entry.path().filename().string();
        if (file.rfind("trial_", 0) == 0)
            std::filesystem::remove(entry.path(), ec);
    }
    writeFileAtomic(manifestPath(), manifestText());
}

std::optional<TrialResult>
CampaignCheckpoint::loadTrial(std::size_t index) const
{
    if (!resuming_ || index >= trials_)
        return std::nullopt;
    const std::optional<std::string> text = readFile(trialPath(index));
    if (!text)
        return std::nullopt; // never completed — just run it
    std::optional<TrialResult> trial = parseTrial(*text);
    if (!trial) {
        // Truncated or non-parseable (e.g. the write raced a power
        // cut on a filesystem that defeated the fsync dance): the
        // file carries no usable result, so the trial re-runs — a
        // per-trial cost, never a campaign abort.
        log_.warn("campaign '%s': checkpoint '%s' is truncated or "
                  "non-parseable; re-running trial %zu",
                  name_.c_str(), trialPath(index).c_str(), index);
        return std::nullopt;
    }
    // The seed re-derivation is the integrity check: a file that
    // parsed but does not carry the seed this campaign would hand
    // this trial is stale or tampered with, and re-running is always
    // safe.  A persisted Failed status is equally impossible —
    // store() never writes those — so it gets the same treatment.
    const bool valid =
        trial->index == index &&
        trial->status != TrialStatus::Failed &&
        trial->seed ==
            deriveRetrySeed(masterSeed_, index, trial->attempts - 1);
    if (!valid) {
        log_.warn("campaign '%s': checkpoint '%s' is stale or "
                  "inconsistent with this campaign; re-running trial "
                  "%zu",
                  name_.c_str(), trialPath(index).c_str(), index);
        return std::nullopt;
    }
    return trial;
}

std::size_t
CampaignCheckpoint::load(std::vector<TrialResult> &results,
                         std::vector<char> &done) const
{
    if (!resuming_)
        return 0;
    std::size_t restored = 0;
    for (std::size_t index = 0; index < trials_; ++index) {
        std::optional<TrialResult> trial = loadTrial(index);
        if (!trial)
            continue;
        results[index] = std::move(*trial);
        done[index] = 1;
        ++restored;
    }
    if (restored)
        log_.info("campaign '%s': resumed %zu of %zu trials from "
                  "'%s'",
                  name_.c_str(), restored, trials_, dir_.c_str());
    return restored;
}

void
CampaignCheckpoint::store(const TrialResult &result) const
{
    if (dir_.empty() || result.status == TrialStatus::Failed)
        return;
    try {
        writeFileAtomic(trialPath(result.index),
                        serializeTrial(result));
    } catch (const std::exception &e) {
        // Best-effort: a full disk must degrade the *checkpoint*, not
        // the campaign; the trial simply re-runs on a future resume.
        log_.warn("campaign '%s': could not checkpoint trial %zu: %s",
                  name_.c_str(), result.index, e.what());
    }
}

} // namespace uscope::exp
