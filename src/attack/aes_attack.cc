#include "attack/aes_attack.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "core/microscope.hh"
#include "crypto/aes_codegen.hh"

namespace uscope::attack
{

namespace
{

/** Everything one AES attack run needs, wired once. */
struct AesRig
{
    os::Machine machine;
    AesEnclave enclave;
    std::array<std::uint8_t, 16> ct{};

    explicit AesRig(const AesAttackConfig &config)
        : machine(config.machine),
          enclave(machine.kernel(), config.key.data(), config.keyBits)
    {
        auto &kernel = machine.kernel();
        ct = enclave.loadPlaintext(kernel, config.plaintext.data());

        // Seal the enclave after the image is loaded (SGX builds and
        // measures pages in, then locks them).  The round keys are
        // the secret; the tables are sealed too — the attacker's
        // probes below model same-set Prime+Probe conflict timing,
        // which needs only physical-address knowledge, not reads of
        // enclave data.
        const crypto::AesVictimLayout &layout = enclave.layout;
        for (unsigned t = 0; t < 5; ++t)
            kernel.declareEnclave(enclave.pid, layout.tableVa(t),
                                  pageSize);
        kernel.declareEnclave(enclave.pid, layout.rk, pageSize);
        kernel.declareEnclave(enclave.pid, layout.input, pageSize);
    }

    /**
     * Model the cache state a warm system would have after enclave
     * setup: table lines scattered across the hierarchy.
     */
    void
    warmTables(std::uint64_t seed)
    {
        Rng rng(seed);
        const mem::HitLevel levels[4] = {
            mem::HitLevel::L1, mem::HitLevel::L2, mem::HitLevel::L3,
            mem::HitLevel::Dram};
        for (unsigned t = 0; t < 5; ++t)
            for (unsigned line = 0; line < 16; ++line)
                machine.kernel().installPhysAt(
                    enclave.tablePa[t] + line * lineSize,
                    levels[rng.below(4)]);
    }
};

/** Machine + module metrics, snapshotted after a finished run. */
obs::MetricSnapshot
snapshotRun(const os::Machine &machine, const ms::Microscope &scope)
{
    obs::MetricRegistry registry;
    machine.exportMetrics(registry);
    scope.exportMetrics(registry);
    return registry.snapshot();
}

/** The fixed key of aesPrefixWarmup's enclave. */
constexpr std::array<std::uint8_t, 16> prefixKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

} // namespace

std::set<unsigned>
majorityLines(const std::vector<std::set<unsigned>> &windows)
{
    std::array<std::size_t, 16> votes{};
    for (const std::set<unsigned> &lines : windows)
        for (unsigned line : lines)
            ++votes[line];
    std::set<unsigned> majority;
    for (unsigned line = 0; line < 16; ++line)
        if (votes[line] * 2 > windows.size())
            majority.insert(line);
    return majority;
}

AesEnclave::AesEnclave(os::Kernel &kernel, const std::uint8_t *key,
                       unsigned key_bits)
    : decKey(key, key_bits, true), encKey(key, key_bits, false)
{
    pid = kernel.createProcess("aes-enclave");
    layout = crypto::setupAesVictim(kernel, pid, decKey);
    for (unsigned t = 0; t < 5; ++t)
        tablePa[t] = *kernel.translate(pid, layout.tableVa(t));
    program = std::make_shared<const cpu::Program>(
        crypto::buildAesDecryptProgram(layout));
}

std::array<std::uint8_t, 16>
AesEnclave::loadPlaintext(os::Kernel &kernel,
                          const std::uint8_t *plaintext) const
{
    std::array<std::uint8_t, 16> ct{};
    crypto::encryptBlock(encKey, plaintext, ct.data());
    crypto::loadCiphertext(kernel, pid, layout, ct.data());
    return ct;
}

void
AesEnclave::primeTables(os::Kernel &kernel, unsigned upto) const
{
    for (unsigned t = 0; t < upto; ++t)
        kernel.primeRange(tablePa[t], 1024);
}

LineProbe
AesEnclave::probeTable(os::Kernel &kernel, unsigned table) const
{
    LineProbe probe;
    for (unsigned line = 0; line < 16; ++line) {
        const os::ProbeResult r =
            kernel.timedProbePhys(tablePa[table] + line * lineSize);
        probe.latency[line] = r.latency;
        probe.level[line] = r.level;
    }
    return probe;
}

std::set<unsigned>
AesEnclave::round1Td1Lines(const std::uint8_t *ct) const
{
    // Round 1 indexes Td1 with bits 16..23 of each word of the
    // whitened input ct ^ rk[0..3] (crypto::traceDecryption's
    // indices[0][1]).  The words are big-endian, so word j's index is
    // ciphertext byte 4j+1 XOR byte 1 of round-key word j.
    const std::vector<std::uint32_t> &rk = decKey.roundKeys();
    std::set<unsigned> lines;
    for (unsigned j = 0; j < 4; ++j)
        lines.insert(crypto::tableLineOf(
            static_cast<std::uint8_t>(ct[4 * j + 1] ^ (rk[j] >> 16))));
    return lines;
}

std::shared_ptr<const void>
aesPrefixWarmup(os::Machine &m)
{
    os::Kernel &kernel = m.kernel();
    auto enclave = std::make_shared<AesEnclave>(kernel, prefixKey.data(),
                                                128);
    const std::uint8_t warm_plain[16] = {};
    enclave->loadPlaintext(kernel, warm_plain);
    for (unsigned run = 0; run < aesPrefixWarmRuns; ++run) {
        kernel.startOnContext(enclave->pid, 0, enclave->program);
        m.runUntilHalted(0, 50'000'000);
    }
    return enclave;
}

std::set<unsigned>
LineProbe::hitLines(Cycles hit_threshold) const
{
    std::set<unsigned> hits;
    for (unsigned line = 0; line < 16; ++line)
        if (latency[line] < hit_threshold)
            hits.insert(line);
    return hits;
}

Fig11Result
runFig11(const AesAttackConfig &config)
{
    AesRig rig(config);
    const AesEnclave &enclave = rig.enclave;
    os::Kernel &kernel = rig.machine.kernel();
    Fig11Result result;

    ms::Microscope scope(rig.machine);
    ms::AttackRecipe recipe;
    recipe.victim = enclave.pid;
    recipe.replayHandle = enclave.layout.td0;
    recipe.pivot = enclave.layout.rk;
    recipe.confidence = config.replaysPerEpisode;
    recipe.maxEpisodes = 1;
    recipe.walkPlan = ms::PageWalkPlan::longest();
    recipe.onReplay = [&](const ms::ReplayEvent &) {
        result.replays.push_back(enclave.probeTable(kernel, 1));
        return true;
    };
    recipe.beforeResume = [&](const ms::ReplayEvent &) {
        // "Before each of the next two replays, the Replayer primes
        // the cache hierarchy, evicting all the lines of the tables."
        enclave.primeTables(kernel);
    };
    scope.setRecipe(std::move(recipe));

    // Replay 0 runs against warm (unprimed) cache state, giving the
    // mixed L1 / L2-L3 / memory latencies of Figure 11's first panel.
    rig.warmTables(config.machine.seed * 17 + 5);

    scope.arm();
    kernel.startOnContext(enclave.pid, 0, enclave.program);
    rig.machine.runUntilHalted(0, 50'000'000);
    scope.disarm();

    // Ground truth: the window behind the round-1 t0 Td0 fault covers
    // every independent round-1 lookup, i.e. all four Td1 accesses.
    result.expectedLines = enclave.round1Td1Lines(rig.ct.data());

    for (std::size_t i = 1; i < result.replays.size(); ++i)
        result.measuredLines.push_back(
            result.replays[i].hitLines());

    result.consistentAcrossPrimedReplays =
        !result.measuredLines.empty();
    for (const auto &lines : result.measuredLines)
        result.consistentAcrossPrimedReplays &=
            lines == result.measuredLines.front();
    result.matchesGroundTruth =
        result.consistentAcrossPrimedReplays &&
        !result.measuredLines.empty() &&
        result.measuredLines.front() == result.expectedLines;

    // §4.3: average the channel over replays.  A line counts as hot
    // when a strict majority of primed replays saw it hot, so isolated
    // fault-layer evictions (which only ever remove hits — jitter and
    // misses push latencies up, never below the threshold) are voted
    // down as replaysPerEpisode grows.
    result.majorityLines = majorityLines(result.measuredLines);
    result.majorityMatchesGroundTruth =
        !result.measuredLines.empty() &&
        result.majorityLines == result.expectedLines;
    result.totalCycles = rig.machine.cycle();
    result.metrics = snapshotRun(rig.machine, scope);
    result.events = rig.machine.observer().trace.drain();
    return result;
}

std::array<std::set<unsigned>, 4>
AesExtractionResult::roundLines(unsigned round) const
{
    std::array<std::set<unsigned>, 4> lines;
    for (const AesEpisode &episode : episodes) {
        if (episode.round != round)
            continue;
        for (unsigned t = 0; t < 4; ++t)
            lines[t].insert(episode.lines[t].begin(),
                            episode.lines[t].end());
    }
    return lines;
}

std::vector<std::array<std::array<std::optional<unsigned>, 4>, 4>>
AesExtractionResult::attributeLines(unsigned rounds) const
{
    std::vector<std::array<std::array<std::optional<unsigned>, 4>, 4>>
        out(rounds);
    auto episode_at = [this](unsigned round,
                             unsigned group) -> const AesEpisode * {
        for (const AesEpisode &e : episodes)
            if (e.round == round && e.group == group)
                return &e;
        return nullptr;
    };

    for (unsigned r = 1; r <= rounds; ++r) {
        for (unsigned t = 0; t < 4; ++t) {
            for (unsigned g = 0; g < 4; ++g) {
                const AesEpisode *cur = episode_at(r, g);
                if (!cur)
                    continue;
                std::set<unsigned> diff = cur->lines[t];
                if (g < 3) {
                    if (const AesEpisode *next = episode_at(r, g + 1))
                        for (unsigned line : next->lines[t])
                            diff.erase(line);
                }
                // A singleton difference pins the group's line; an
                // empty one means it collides with a later group's.
                if (diff.size() == 1)
                    out[r - 1][g][t] = *diff.begin();
            }
        }
    }
    return out;
}

AesExtractionResult
runAesExtraction(const AesAttackConfig &config)
{
    AesRig rig(config);
    const AesEnclave &enclave = rig.enclave;
    os::Kernel &kernel = rig.machine.kernel();
    AesExtractionResult result;
    const unsigned rounds = enclave.decKey.rounds();
    const unsigned inner_groups = (rounds - 1) * 4;

    // Per-episode scratch, keyed by the engine's episode counter.
    // Handle-window tables (Td1..Td3) keep one line set per primed
    // replay and classify by strict majority (§4.3 denoising):
    // noiselessly identical to the first replay, and under a FaultPlan
    // a single evicted line cannot erase a hit once replaysPerEpisode
    // outvotes it.
    struct Scratch
    {
        std::set<unsigned> td0;
        std::array<std::vector<std::set<unsigned>>, 4> windows;
        bool stable = true;
    };
    std::vector<Scratch> scratch(inner_groups + 2);

    ms::Microscope scope(rig.machine);
    ms::AttackRecipe recipe;
    recipe.victim = enclave.pid;
    recipe.replayHandle = enclave.layout.td0;
    recipe.pivot = enclave.layout.rk;
    recipe.confidence = config.replaysPerEpisode;
    recipe.maxEpisodes = 0;
    recipe.walkPlan = ms::PageWalkPlan::longest();

    recipe.onReplay = [&](const ms::ReplayEvent &ev) {
        if (ev.episode >= scratch.size())
            return true;
        Scratch &s = scratch[ev.episode];
        for (unsigned t = 1; t < 4; ++t) {
            std::set<unsigned> now =
                enclave.probeTable(kernel, t).hitLines();
            s.stable &= s.windows[t].empty() || now == s.windows[t][0];
            s.windows[t].push_back(std::move(now));
        }
        return true;
    };
    recipe.beforeResume = [&](const ms::ReplayEvent &) {
        enclave.primeTables(kernel, 5);
    };
    recipe.onEpisodeEnd = [&](const ms::ReplayEvent &) {
        // Prime so the pivot window (which measures Td0) is clean.
        enclave.primeTables(kernel, 5);
    };
    recipe.onPivot = [&](const ms::ReplayEvent &ev) {
        // The pivot fault follows the window that re-ran this group's
        // Td0 access and the younger groups' — probe Td0 (and Td4,
        // which only the last pivot's window can have touched).
        const std::uint64_t episode = ev.episode ? ev.episode - 1 : 0;
        if (episode < scratch.size())
            scratch[episode].td0 =
                enclave.probeTable(kernel, 0).hitLines();
        result.td4Lines =
            enclave.probeTable(kernel, 4).hitLines();
    };
    scope.setRecipe(std::move(recipe));

    enclave.primeTables(kernel, 5);
    scope.arm();
    kernel.startOnContext(enclave.pid, 0, enclave.program);
    rig.machine.runUntilHalted(0, 500'000'000);
    scope.disarm();
    rig.machine.runUntilHalted(0, 10'000'000);

    result.totalReplays = scope.stats().totalReplays;
    result.totalFaults = kernel.faultCount(enclave.pid);

    std::uint8_t plaintext[16];
    crypto::readPlaintext(kernel, enclave.pid, enclave.layout, plaintext);
    result.plaintextCorrect =
        std::equal(plaintext, plaintext + 16, config.plaintext.begin());

    for (unsigned e = 0; e < inner_groups; ++e) {
        if (scratch[e].windows[1].empty())
            continue;
        AesEpisode episode;
        episode.round = 1 + e / 4;
        episode.group = e % 4;
        // Slot 0 (Td0, pivot window) is a single probe; slots 1..3
        // resolve by majority over the episode's primed replays.
        episode.lines[0] = scratch[e].td0;
        for (unsigned t = 1; t < 4; ++t)
            episode.lines[t] = majorityLines(scratch[e].windows[t]);
        episode.stable = scratch[e].stable;
        result.episodes.push_back(std::move(episode));
    }
    result.metrics = snapshotRun(rig.machine, scope);
    result.events = rig.machine.observer().trace.drain();
    return result;
}

std::array<std::optional<unsigned>, 16>
recoverRound1Nibbles(const AesExtractionResult &result)
{
    std::array<std::optional<unsigned>, 16> nibbles;
    const auto attribution = result.attributeLines(1);
    if (attribution.empty())
        return nibbles;

    for (unsigned g = 0; g < 4; ++g) {
        for (unsigned t = 0; t < 4; ++t) {
            const auto line = attribution[0][g][t];
            if (!line)
                continue;
            // Figure 8a index sources: t_g reads
            //   Td0[s_g >> 24], Td1[(s_{g+3} >> 16) & 0xff],
            //   Td2[(s_{g+2} >> 8) & 0xff], Td3[s_{g+1} & 0xff]
            // and the table line is the index's high nibble.
            const unsigned word = (g + (4 - t)) % 4;
            const unsigned byte = t;
            nibbles[4 * word + byte] = *line;
        }
    }
    return nibbles;
}

std::array<unsigned, 16>
groundTruthRound1Nibbles(const AesAttackConfig &config)
{
    const crypto::AesKey enc(config.key.data(), config.keyBits, false);
    const crypto::AesKey dec(config.key.data(), config.keyBits, true);
    std::uint8_t ct[16];
    crypto::encryptBlock(enc, config.plaintext.data(), ct);

    std::array<unsigned, 16> nibbles{};
    const auto &rk = dec.roundKeys();
    for (unsigned w = 0; w < 4; ++w) {
        const std::uint32_t word =
            ((std::uint32_t{ct[4 * w]} << 24) |
             (std::uint32_t{ct[4 * w + 1]} << 16) |
             (std::uint32_t{ct[4 * w + 2]} << 8) |
             std::uint32_t{ct[4 * w + 3]}) ^
            rk[w];
        for (unsigned b = 0; b < 4; ++b)
            nibbles[4 * w + b] = (word >> (24 - 8 * b + 4)) & 0xF;
    }
    return nibbles;
}

} // namespace uscope::attack
