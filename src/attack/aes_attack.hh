/**
 * @file
 * The AES cache attack of §4.4 and Figure 11.
 *
 * The victim enclave runs one OpenSSL-0.9.8-style AES decryption
 * (compiled to the mini-ISA).  MicroScope single-steps it with a
 * replay handle on the Td0 page and a pivot on the rk page: each
 * t-group's Td0 lookup faults, the walk's shadow executes the
 * *remaining* independent table lookups, and the Replayer probes the
 * Td tables after every replay.  Priming between replays makes the
 * channel noiseless: exactly the in-window lines hit L1, everything
 * else misses to DRAM — from a single logical decryption.
 *
 * Handle/pivot roles are mirrored relative to the paper's walkthrough
 * (which faults on rk and pivots on Td0); with a Td0 handle every
 * episode cleanly isolates one t-group, which sharpens attribution.
 * The mechanism — alternating present bits between the two pages
 * (§4.2.2) — is identical.
 *
 * As an extension beyond the paper, the per-episode line sets are
 * resolved to individual state bytes by suffix differencing, which
 * recovers the high nibble of (ciphertext ^ round-key) bytes.
 */

#ifndef USCOPE_ATTACK_AES_ATTACK_HH
#define USCOPE_ATTACK_AES_ATTACK_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/types.hh"
#include "crypto/aes.hh"
#include "crypto/aes_codegen.hh"
#include "mem/hierarchy.hh"
#include "obs/event.hh"
#include "obs/metrics.hh"
#include "os/machine.hh"

namespace uscope::attack
{

/** Configuration shared by the Figure-11 run and the full extraction. */
struct AesAttackConfig
{
    /** Key bytes; the first keyBits/8 are used. */
    std::array<std::uint8_t, 32> key{};
    std::array<std::uint8_t, 16> plaintext{};
    unsigned keyBits = 128;
    /** Replays per episode (Figure 11 uses 3). */
    std::uint64_t replaysPerEpisode = 3;
    os::MachineConfig machine;
};

/** One probe sweep over a table's 16 lines. */
struct LineProbe
{
    std::array<Cycles, 16> latency{};
    std::array<mem::HitLevel, 16> level{};

    /** Lines whose probe latency marks a cache hit. */
    std::set<unsigned>
    hitLines(Cycles hit_threshold = os::kProbeHitThreshold) const;
};

/**
 * §4.3 denoising: the lines a strict majority of @p windows measured
 * hot.  Exactly half the windows is not a majority, and no windows
 * yield no lines.
 */
std::set<unsigned>
majorityLines(const std::vector<std::set<unsigned>> &windows);

/**
 * An AES victim enclave on one machine: the process, its keys, the
 * table layout and the tables' physical addresses, and the compiled
 * decryption.  The pages are left unsealed.  The handles stay valid in
 * every fork of the machine, so a campaign warmup can mint one and
 * share it with every trial.
 */
struct AesEnclave
{
    os::Pid pid = 0;
    crypto::AesKey decKey;
    crypto::AesKey encKey;
    crypto::AesVictimLayout layout;
    std::array<PAddr, 5> tablePa{};
    std::shared_ptr<const cpu::Program> program;

    AesEnclave(os::Kernel &kernel, const std::uint8_t *key,
               unsigned key_bits);

    /** Encrypt @p plaintext, load the ciphertext as the victim's
     *  input and return it. */
    std::array<std::uint8_t, 16>
    loadPlaintext(os::Kernel &kernel, const std::uint8_t *plaintext) const;

    /** Evict tables Td0..Td(upto-1) from every cache level. */
    void primeTables(os::Kernel &kernel, unsigned upto = 4) const;

    /** Timed probe of the 16 lines of table @p table. */
    LineProbe probeTable(os::Kernel &kernel, unsigned table) const;

    /** Ground truth: the Td1 lines the round-1 window touches while
     *  decrypting @p ct (the window behind the first Td0 fault). */
    std::set<unsigned> round1Td1Lines(const std::uint8_t *ct) const;
};

/** Warm decryptions in aesPrefixWarmup. */
constexpr unsigned aesPrefixWarmRuns = 4;

/**
 * The shared prefix of the warmup-heavy AES campaigns (DESIGN.md §12):
 * build an AesEnclave under one fixed campaign-wide key (the warmup is
 * shared by every trial, so it cannot depend on a trial seed) and
 * warm-decrypt a fixed block aesPrefixWarmRuns times, leaving the
 * TLB, PWC, predictor and caches trained the way a long-running
 * victim's machine would be.  The artifact is the AesEnclave.
 */
std::shared_ptr<const void> aesPrefixWarmup(os::Machine &m);

/** Result of the Figure-11 experiment. */
struct Fig11Result
{
    /** Td1 probe sweeps after Replay 0, 1, 2. */
    std::vector<LineProbe> replays;
    /** Ground truth: Td1 lines accessed in the measured window. */
    std::set<unsigned> expectedLines;
    /** Lines classified as hits after each primed replay. */
    std::vector<std::set<unsigned>> measuredLines;
    bool consistentAcrossPrimedReplays = false;
    bool matchesGroundTruth = false;
    /**
     * §4.3 denoising: a line is hot when a strict majority of primed
     * replays measured it hot.  Noiselessly identical to any single
     * primed replay; under a FaultPlan this is the estimate whose
     * accuracy grows with replaysPerEpisode.
     */
    std::set<unsigned> majorityLines;
    bool majorityMatchesGroundTruth = false;
    /** Simulated cycles the run took (warm-up decryption included). */
    Cycles totalCycles = 0;
    /** Component metrics snapshot taken after the run. */
    obs::MetricSnapshot metrics;
    /** Event trace (non-empty when config.machine.obs.traceEvents). */
    obs::EventLog events;
};

/** Reproduce Figure 11. */
Fig11Result runFig11(const AesAttackConfig &config);

/** Per-episode measurement of the full single-stepping attack. */
struct AesEpisode
{
    unsigned round = 0;  ///< 1-based inner round.
    unsigned group = 0;  ///< t-group 0..3.
    /** Lines seen per table (slot 0: Td0 from the pivot window;
     *  slots 1..3: Td1..Td3 by majority vote across the episode's
     *  primed replays — §4.3 denoising, so a fault-evicted line in
     *  one replay does not erase it from the episode). */
    std::array<std::set<unsigned>, 4> lines;
    /** True when every primed replay measured the same line sets. */
    bool stable = true;
};

/** Result of the full extraction. */
struct AesExtractionResult
{
    std::vector<AesEpisode> episodes;
    /** Final-round Td4 lines (from the last pivot window). */
    std::set<unsigned> td4Lines;
    /** Whether the decryption still produced the right plaintext. */
    bool plaintextCorrect = false;
    std::uint64_t totalReplays = 0;
    std::uint64_t totalFaults = 0;
    /** Component metrics snapshot taken after the run. */
    obs::MetricSnapshot metrics;
    /** Event trace (non-empty when config.machine.obs.traceEvents). */
    obs::EventLog events;

    /** Per-round, per-table union of measured lines. */
    std::array<std::set<unsigned>, 4>
    roundLines(unsigned round) const;

    /**
     * Attribute lines to groups by suffix differencing.  Entry
     * [round-1][group][table] is the recovered line, or nullopt when
     * collisions make it ambiguous.
     */
    std::vector<std::array<std::array<std::optional<unsigned>, 4>, 4>>
    attributeLines(unsigned rounds) const;
};

/** Single-step one full decryption and extract every table access. */
AesExtractionResult runAesExtraction(const AesAttackConfig &config);

/**
 * Extension: recover the high nibbles of the round-1 state bytes
 * (i.e., of ciphertext ^ rk[0..3]) from attributed lines.  Returns
 * recovered nibble (or nullopt) for each of the 16 state bytes.
 */
std::array<std::optional<unsigned>, 16>
recoverRound1Nibbles(const AesExtractionResult &result);

/** Ground truth the recovery is checked against. */
std::array<unsigned, 16>
groundTruthRound1Nibbles(const AesAttackConfig &config);

} // namespace uscope::attack

#endif // USCOPE_ATTACK_AES_ATTACK_HH
