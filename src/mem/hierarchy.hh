/**
 * @file
 * The three-level cache hierarchy plus DRAM.
 *
 * This is the timing side of the memory system: every demand access —
 * core loads/stores, hardware page-walker fetches of page-table
 * entries, and attacker probe loads — resolves its hit level here and
 * pays the corresponding latency.  State updates happen at access time,
 * so accesses issued by *squashed* (speculative) instructions still
 * leave residue; that residue is the side channel MicroScope denoises.
 *
 * The L3 is inclusive: evicting a line from the L3 back-invalidates it
 * from the L2 and L1, which is what lets the Replayer push page-table
 * entries and victim table lines all the way to DRAM (paper §4.1.1,
 * "flushes from the cache subsystem the four page table entries").
 */

#ifndef USCOPE_MEM_HIERARCHY_HH
#define USCOPE_MEM_HIERARCHY_HH

#include <cstdint>

#include "common/random.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "obs/observer.hh"

namespace uscope::obs
{
class MetricRegistry;
} // namespace uscope::obs

namespace uscope::mem
{

/** Where an access was satisfied. */
enum class HitLevel
{
    L1,
    L2,
    L3,
    Dram,
};

/** Printable name of a hit level. */
const char *hitLevelName(HitLevel level);

/** Outcome of one timed access. */
struct AccessResult
{
    HitLevel level;
    Cycles latency;
};

/**
 * Cache and DRAM geometry/latency configuration.
 *
 * The latencies are calibrated so that a timed probe (load plus the
 * attack code's ~45-cycle RDTSC measurement overhead) lands in the
 * bands the paper reports in Figure 11: L1 hits below 60 cycles, L2/L3
 * hits between 100 and 200 cycles, DRAM accesses above 300 cycles —
 * and so that a fully-uncached page walk (4 entries from DRAM) takes
 * "over one thousand cycles" (§4.1.2).
 */
struct MemConfig
{
    std::uint64_t l1Size = 32 * 1024;
    unsigned l1Assoc = 8;
    std::uint64_t l2Size = 256 * 1024;
    unsigned l2Assoc = 8;
    std::uint64_t l3Size = 8 * 1024 * 1024;
    unsigned l3Assoc = 16;

    Cycles l1Latency = 6;
    Cycles l2Latency = 70;
    Cycles l3Latency = 150;
    Cycles dramLatency = 290;
    /** DRAM latency jitter: uniform in [-jitter, +jitter]; at most
     *  dramLatency (the Hierarchy constructor is fatal otherwise). */
    Cycles dramJitter = 15;

    /** Structural equality (snapshot/pool compatibility checks). */
    bool operator==(const MemConfig &) const = default;
};

/** L1D + L2 + inclusive L3 + DRAM, shared by both SMT contexts. */
class Hierarchy
{
  public:
    explicit Hierarchy(const MemConfig &config = MemConfig{},
                       std::uint64_t seed = 1);

    const MemConfig &config() const { return config_; }

    /**
     * Demand access to the line holding @p addr: resolve the hit
     * level, fill all missed levels, and return the latency paid.
     */
    AccessResult access(PAddr addr);

    /** Where would @p addr hit right now?  No state change. */
    HitLevel peekLevel(PAddr addr) const;

    /** Latency an access satisfied at @p level pays (no jitter). */
    Cycles latencyFor(HitLevel level) const;

    /** clflush: drop the line from every level. */
    void flushLine(PAddr addr);

    /** Flush every line of [addr, addr+len). */
    void flushRange(PAddr addr, std::uint64_t len);

    /**
     * Arrange for the next access to @p addr to be satisfied exactly
     * at @p level.  This is the Replayer's page-walk tuning primitive
     * (install page-table entries at chosen levels) and its priming
     * primitive (HitLevel::Dram evicts the line entirely).
     */
    void installAt(PAddr addr, HitLevel level);

    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }
    Cache &l3() { return l3_; }
    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Cache &l3() const { return l3_; }

    /**
     * Adopt @p other's cache contents, stats, and DRAM-jitter RNG
     * stream (snapshot forking, DESIGN.md §12).  Each cache copies
     * only the sets that differ (Cache::copyStateFrom).  Geometries
     * must match (a mismatch panics); the observer wiring is left
     * untouched.
     */
    void copyStateFrom(const Hierarchy &other);

    /** Re-derive the DRAM-jitter stream from @p seed (fork reseed). */
    void reseed(std::uint64_t seed) { rng_.seed(seed); }

    /** Wire the owning Machine's observability hub (may be null). */
    void setObserver(obs::Observer *observer) { obs_ = observer; }

    /** Combined FNV digest of all cache state (tests). */
    std::uint64_t stateDigest() const;

    /**
     * Earliest cycle at which ticking can change this component's
     * state (fast-forward contract, DESIGN.md §10).  The hierarchy is
     * synchronous — access() charges hit/miss latency at the call and
     * fills immediately — so it never holds time: always
     * kNoEventCycle.  The hook is the plug-in point for future
     * outstanding-fill (MSHR) models.
     */
    Cycles nextEventCycle() const { return kNoEventCycle; }

    /** Register mem.l1d/l2/l3.* counters from the cache stats. */
    void exportMetrics(obs::MetricRegistry &registry) const;

  private:
    void fillLine(PAddr addr, bool into_l1, bool into_l2);

    MemConfig config_;
    Cache l1_;
    Cache l2_;
    Cache l3_;
    Rng rng_;
    obs::Observer *obs_ = nullptr;
};

} // namespace uscope::mem

#endif // USCOPE_MEM_HIERARCHY_HH
