/**
 * @file
 * The MicroScope kernel module (paper §5).
 *
 * Microscope plugs into the kernel's page-fault path (Figure 9) and
 * drives the replay loop of §4.1.4:
 *
 *   1. arm(): clear the present bit of the replay handle's leaf PTE,
 *      flush its translation from the TLBs, PWC, and data caches, and
 *      stage the page-table entries at the cache levels the recipe's
 *      PageWalkPlan asks for.
 *   2. The victim issues the handle, misses the TLB, walks (paying
 *      the staged latencies), and keeps executing younger — sensitive
 *      — instructions in the walk's shadow.
 *   3. The fault reaches the ROB head; the core squashes and traps;
 *      the kernel trampolines into Microscope::onPageFault.
 *   4. onPageFault invokes the recipe's measurement hook, and either
 *      re-arms (leaving the present bit clear: another replay) or
 *      releases the handle — optionally arming the pivot to
 *      single-step to the next loop iteration (§4.2.2).
 *
 * The class also exposes the exact user API of Table 2.
 */

#ifndef USCOPE_CORE_MICROSCOPE_HH
#define USCOPE_CORE_MICROSCOPE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/recipe.hh"
#include "os/kernel.hh"
#include "os/machine.hh"
#include "os/module.hh"

namespace uscope::ms
{

/** Module-level statistics. */
struct MicroscopeStats
{
    std::uint64_t handleFaults = 0;
    std::uint64_t pivotFaults = 0;
    /** Faults not claimed by the module (kernel default path). */
    std::uint64_t foreignFaults = 0;
    std::uint64_t episodes = 0;
    std::uint64_t totalReplays = 0;
    /**
     * Trace events carry the replay counter in a 16-bit field; counts
     * past 0xffff are clamped there (never in these stats) and each
     * clamped emission is tallied here so long denoise campaigns can
     * tell saturation from a genuinely short episode.
     */
    std::uint64_t replayCounterSaturations = 0;

    /** Fold @p other in (campaign aggregation across machines). */
    void
    merge(const MicroscopeStats &other)
    {
        handleFaults += other.handleFaults;
        pivotFaults += other.pivotFaults;
        foreignFaults += other.foreignFaults;
        episodes += other.episodes;
        totalReplays += other.totalReplays;
        replayCounterSaturations += other.replayCounterSaturations;
    }
};

/**
 * The engine's episode-loop position, exported alongside an episode
 * snapshot so a differential-replay fork — possibly driven through a
 * *different* Microscope instance on the restored machine — resumes
 * the §4.1.4 loop exactly where the snapshotted instance stood.
 */
struct EpisodeState
{
    bool armed = false;
    std::uint64_t replays = 0;
    MicroscopeStats stats;
};

/** The MicroScope module. */
class Microscope : public os::FaultModule
{
  public:
    /** Construct and register with @p machine's kernel. */
    explicit Microscope(os::Machine &machine);
    ~Microscope() override;

    Microscope(const Microscope &) = delete;
    Microscope &operator=(const Microscope &) = delete;

    // ------------------------------------------------------------------
    // Table 2: the user-facing attack-exploration API.
    // ------------------------------------------------------------------

    /** provide_replay_handle(addr). */
    void provideReplayHandle(os::Pid pid, VAddr addr);

    /** provide_pivot(addr). */
    void providePivot(VAddr addr);

    /** provide_monitor_addr(addr). */
    void provideMonitorAddr(VAddr addr);

    /**
     * initiate_page_walk(addr, length): arrange for the next access
     * to @p addr to TLB-miss and perform a hardware walk fetching
     * exactly @p length page-table levels, staged at @p where.
     */
    void initiatePageWalk(VAddr addr, unsigned length,
                          mem::HitLevel where = mem::HitLevel::Dram);

    /**
     * initiate_page_fault(addr): clear the present bit and flush the
     * translation path so the next access faults after a full walk.
     */
    void initiatePageFault(VAddr addr);

    // ------------------------------------------------------------------
    // Recipe management and the replay engine.
    // ------------------------------------------------------------------

    /** Install a full recipe (replaces Table-2 piecemeal setup). */
    void setRecipe(AttackRecipe recipe);
    const AttackRecipe &recipe() const { return recipe_; }
    AttackRecipe &recipe() { return recipe_; }

    /** Start the attack: arm the replay handle. */
    void arm();

    /** Stop: restore present bits on handle and pivot, flush TLBs. */
    void disarm();

    bool armed() const { return armed_; }

    /** FaultModule hook: the replay engine (Figure 9 steps 4-6). */
    bool onPageFault(const os::PageFaultEvent &event) override;

    // ------------------------------------------------------------------
    // Differential replay (DESIGN.md §15): COW-fork the episode at
    // the replay handle instead of re-simulating the prefix.
    // ------------------------------------------------------------------

    /**
     * True after the engine passed this episode's snapshot point (the
     * first re-arm) with recipe().differentialReplay set.  The flag is
     * raised *inside* the fault tick, where a snapshot cannot be taken
     * (the core is mid-retire); the harness observes it between ticks
     * — e.g. machine().runUntil([&]{ return
     * scope.episodeSnapshotPending(); }) — and then calls
     * takeEpisodeSnapshot().
     */
    bool episodeSnapshotPending() const { return snapPending_; }

    /**
     * Capture the episode snapshot: a COW Machine::snapshot() plus the
     * engine's own loop position.  Must be called between ticks while
     * episodeSnapshotPending(); the victim is stalled in the fault
     * handler with the handle re-armed, so every restoreEpisode()
     * resumes exactly at the replay handle.
     */
    void takeEpisodeSnapshot();

    bool hasEpisodeSnapshot() const { return episodeSnap_.valid(); }

    /** The captured snapshot (fatal if none); movable into an
     *  artifact for cross-instance reuse via restoreEpisodeFrom(). */
    const os::Snapshot &episodeSnapshot() const;

    /** Engine loop position as of takeEpisodeSnapshot(). */
    const EpisodeState &episodeState() const { return episodeSt_; }

    /**
     * One differential replay iteration: restore the machine from the
     * captured episode snapshot, reseed every stream with @p seed (a
     * fresh noise realization), and re-adopt the snapshotted engine
     * state.  The caller then simply runs the machine; the victim
     * resumes from the handler stall into the speculative window.
     */
    void restoreEpisode(std::uint64_t seed);

    /**
     * Cross-instance variant: restore from an externally held episode
     * snapshot + state (e.g. minted by a campaign warmup's Microscope
     * and carried in the warmup artifact).  This instance must be
     * registered on the same machine and carry an equivalent recipe.
     */
    void restoreEpisodeFrom(const os::Snapshot &snap,
                            const EpisodeState &state,
                            std::uint64_t seed);

    /** Adopt @p state verbatim (loop position of a forked episode). */
    void adoptEpisodeState(const EpisodeState &state);

    // ------------------------------------------------------------------
    // Measurement utilities for recipe callbacks (Replayer-as-Monitor).
    // ------------------------------------------------------------------

    /** Timed probe of monitor address @p idx. */
    os::ProbeResult probeMonitorAddr(std::size_t idx);

    /** Timed probes of every monitor address, in order. */
    std::vector<os::ProbeResult> probeAllMonitorAddrs();

    /** Evict every monitor address to DRAM (Prime). */
    void primeMonitorAddrs();

    os::Kernel &kernel() { return kernel_; }
    os::Machine &machine() { return machine_; }

    const MicroscopeStats &stats() const { return stats_; }

    /** Register os.replay.* and os.faults.replayed counters. */
    void exportMetrics(obs::MetricRegistry &registry) const;

    /** Replays so far in the current episode. */
    std::uint64_t replaysThisEpisode() const { return replays_; }

  private:
    void stageWalk(VAddr va, const PageWalkPlan &plan);
    void stageHandleWalk();
    void armHandle();
    void releaseHandle();
    void armPivot();
    void releasePivot();

    /** Clamp the replay counter into a 16-bit trace field (long
     *  denoise campaigns overflow 65 535). */
    std::uint16_t traceReplayCount() const;

    os::Machine &machine_;
    os::Kernel &kernel_;
    AttackRecipe recipe_;
    bool armed_ = false;
    std::uint64_t replays_ = 0;
    MicroscopeStats stats_;

    /** Differential replay: snapshot-point flag and captured state. */
    bool snapPending_ = false;
    os::Snapshot episodeSnap_;
    EpisodeState episodeSt_;
};

} // namespace uscope::ms

#endif // USCOPE_CORE_MICROSCOPE_HH
