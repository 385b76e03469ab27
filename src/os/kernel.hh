/**
 * @file
 * The simulated operating system.
 *
 * The kernel owns physical frames, per-process page tables, and the
 * page-fault path.  It is the paper's "Replayer" privilege level: a
 * malicious OS that manages demand paging for a victim it cannot
 * directly introspect.  Enclave semantics follow §2.3: the kernel may
 * manipulate translations for enclave pages but can neither read nor
 * write enclave-private memory, and on an enclave fault it learns only
 * the VPN (AEX).
 *
 * Every privileged operation a module can invoke (software page walk,
 * clflush of page-table entries, INVLPG, cache priming, timed probes)
 * is costed in cycles; the total accrued inside a fault handler is
 * charged to the faulting context as a stall, reproducing the paper's
 * observation that handler time dominates each replay iteration
 * (§6.1).
 */

#ifndef USCOPE_OS_KERNEL_HH
#define USCOPE_OS_KERNEL_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/core.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "obs/observer.hh"
#include "os/module.hh"
#include "vm/frame_alloc.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"

namespace uscope::obs
{
class MetricRegistry;
} // namespace uscope::obs

namespace uscope::os
{

// Cycle costs of the privileged operations a module performs.
constexpr Cycles kSoftwareWalkCost = 200;  ///< 4 dependent reads.
constexpr Cycles kClflushCost = 90;        ///< One CLFLUSH.
constexpr Cycles kInvlpgCost = 120;        ///< Plus shootdown bookkeeping.
constexpr Cycles kPwcFlushCost = 30;       ///< One translation path.
constexpr Cycles kInstallLineCost = 100;   ///< Staging one line.
constexpr Cycles kProbeOverhead = 45;      ///< RDTSC pair of a timed probe.
constexpr Cycles kProbeJitter = 8;         ///< Overhead jitter, [0, 8].
constexpr Cycles kSignalMonitorCost = 50;  ///< Shared memory poke.

/** The trap cost, which ablate_microarch sweeps. */
struct KernelCosts
{
    /** Trap entry + exit, AEX bookkeeping, IRET. */
    Cycles faultBase = 1800;

    /** Structural equality (snapshot/pool compatibility checks). */
    bool operator==(const KernelCosts &) const = default;
};

/**
 * A timed probe classifies a line as a cache hit below this latency.
 * After priming, hits are L1 (~50 cycles measured) and misses DRAM
 * (>300 cycles); the bands sit far apart.
 */
constexpr Cycles kProbeHitThreshold = 100;

/** Result of a kernel timed probe of one cache line. */
struct ProbeResult
{
    Cycles latency = 0;       ///< As an attacker would measure it.
    mem::HitLevel level = mem::HitLevel::Dram;  ///< Ground truth.

    /** The attacker's verdict: the measured latency marks a hit. */
    bool hit() const { return latency < kProbeHitThreshold; }
};

/** The kernel. */
class Kernel
{
  public:
    Kernel(mem::PhysMem &mem, mem::Hierarchy &hierarchy, vm::Mmu &mmu,
           cpu::Core &core, const KernelCosts &costs = KernelCosts{},
           std::uint64_t seed = 13);

    // ------------------------------------------------------------------
    // Process management.
    // ------------------------------------------------------------------

    /** Create a process; returns its pid. */
    Pid createProcess(const std::string &name);

    /**
     * Allocate, zero, and map @p size bytes of fresh virtual memory
     * in @p pid; returns the (page-aligned) base VA.
     */
    VAddr allocVirtual(Pid pid, std::uint64_t size);

    /** Map one page va -> fresh frame (present, writable, user). */
    void mapPage(Pid pid, Vpn vpn);

    /**
     * Mark [base, base+len) of @p pid as enclave-private.  From this
     * point the kernel can no longer read or write those bytes and
     * faults there report only the VPN.
     */
    void declareEnclave(Pid pid, VAddr base, std::uint64_t len);

    /** True if @p va lies in one of @p pid's enclave ranges. */
    bool inEnclave(Pid pid, VAddr va) const;

    /**
     * Copy bytes into a process' memory.  Denied (returns false) for
     * enclave-private destinations.
     */
    bool writeVirtual(Pid pid, VAddr va, const void *src,
                      std::uint64_t len);

    /** Copy bytes out; denied for enclave-private sources. */
    bool readVirtual(Pid pid, VAddr va, void *dst,
                     std::uint64_t len) const;

    /** Kernel-privilege translation (no enclave restriction). */
    std::optional<PAddr> translate(Pid pid, VAddr va) const;

    /** Launch @p pid's program on hardware context @p ctx. */
    void startOnContext(Pid pid, unsigned ctx,
                        std::shared_ptr<const cpu::Program> program,
                        std::uint64_t entry = 0);

    /** The page table of @p pid (tests and the MicroScope module). */
    vm::PageTable &pageTable(Pid pid);
    Pcid pcidOf(Pid pid) const;
    std::uint64_t pcBiasOf(Pid pid) const;
    std::uint64_t faultCount(Pid pid) const;

    // ------------------------------------------------------------------
    // Module (Replayer) operations — functional effect + cycle cost.
    // ------------------------------------------------------------------

    /** Register the fault-path module (Figure 9 trampoline). */
    void registerModule(FaultModule *module);

    /** §5.2.2 op 1: software page walk for @p va. */
    vm::SoftWalkResult softwareWalk(Pid pid, VAddr va);

    /** Set/clear the present bit of @p va's leaf PTE. */
    void setPresent(Pid pid, VAddr va, bool present);

    /**
     * §5.2.2 op 2: flush the four page-table entries translating
     * @p va from the cache hierarchy, and the covering PWC entries.
     */
    void flushTranslationEntries(Pid pid, VAddr va);

    /** §5.2.2 op 3: INVLPG both TLBs for @p va. */
    void invlpg(Pid pid, VAddr va);

    /** CLFLUSH the data line of @p va (through @p pid's tables). */
    void flushDataLine(Pid pid, VAddr va);

    /** CLFLUSH a physical line. */
    void flushPhysLine(PAddr pa);

    /**
     * Stage the line of physical address @p pa so the next access
     * hits at @p level — the page-walk tuning / priming primitive.
     */
    void installPhysAt(PAddr pa, mem::HitLevel level);

    /** Stage @p va's PT entry for @p level_idx at cache level. */
    void installPtEntryAt(Pid pid, VAddr va, vm::Level pt_level,
                          mem::HitLevel cache_level);

    /**
     * Pre-fill the PWC so the next walk of @p va fetches only the
     * deepest @p fetch_levels page-table levels (1..4).  Together with
     * installPtEntryAt this realizes the Table-2 initiate_page_walk
     * operation with a chosen walk length.
     */
    void prefillPwc(Pid pid, VAddr va, unsigned fetch_levels);

    /** §5.2.2 op 5: prime (evict to DRAM) a physical range. */
    void primeRange(PAddr pa, std::uint64_t len);

    /** Timed Prime+Probe read of one physical line. */
    ProbeResult timedProbePhys(PAddr pa);

    /** Timed probe through a process' translation. */
    ProbeResult timedProbe(Pid pid, VAddr va);

    /** §5.2.2 op 4: signal the Monitor (cost only; data via harness). */
    void signalMonitor();

    /** Add explicit cycles to the current handler's budget. */
    void chargeCycles(Cycles cycles);

    // ------------------------------------------------------------------
    // Fault path (installed into the core by Machine).
    // ------------------------------------------------------------------

    /** The core's page-fault entry point. */
    void handleFault(const cpu::FaultInfo &info);

    const KernelCosts &costs() const { return costs_; }

    /** Total cycles spent in fault handlers (stats). */
    Cycles handlerCycles() const { return handlerCycles_; }

    /** Total number of faults taken machine-wide. */
    std::uint64_t totalFaults() const { return totalFaults_; }

    /**
     * Adopt @p other's mutable state — frame allocator, processes
     * (page tables rebound over this kernel's memory), fault-path
     * counters, and the RNG stream (snapshot forking, DESIGN.md §12).
     * Costs must match.  The module pointer is NOT carried over:
     * fault modules (e.g. ms::Microscope) are external objects that
     * register against one specific kernel; a fork starts unmodded
     * and the module's machine-visible effects (present bits, staged
     * lines, TLB/PWC state) arrive via the copied memory system.
     */
    void copyStateFrom(const Kernel &other);

    /** Re-derive the kernel's RNG stream (probe jitter) from @p seed
     *  (fork reseed; leaves processes, frames, and stats alone). */
    void reseed(std::uint64_t seed) { rng_.seed(seed); }

    /** Wire the owning Machine's observability hub (may be null). */
    void setObserver(obs::Observer *observer) { obs_ = observer; }

    /**
     * Deterministic-noise hook (fault-injection layer): extra cycles
     * added to every timed probe measurement, modeling attacker-side
     * RDTSC/serialization jitter on top of the kernel's own
     * probeJitter cost model.  Draws from an injector-owned stream so
     * the kernel's rng_ sequence is untouched.
     */
    using ProbeNoise = std::function<Cycles()>;
    void setProbeNoise(ProbeNoise noise) { probeNoise_ = std::move(noise); }

    /** Register os.faults.* plus per-process page-table counters. */
    void exportMetrics(obs::MetricRegistry &registry) const;

  private:
    struct Process
    {
        Pid pid;
        std::string name;
        std::unique_ptr<vm::PageTable> pageTable;
        Pcid pcid;
        std::uint64_t pcBias;
        VAddr nextVa;
        std::vector<std::pair<VAddr, std::uint64_t>> enclaves;
        std::uint64_t faultCount = 0;
        std::optional<unsigned> boundCtx;
    };

    Process &processOf(Pid pid);
    const Process &processOf(Pid pid) const;
    Process *processOnCtx(unsigned ctx);

    mem::PhysMem &mem_;
    mem::Hierarchy &hierarchy_;
    vm::Mmu &mmu_;
    cpu::Core &core_;
    KernelCosts costs_;
    Rng rng_;

    vm::FrameAllocator frames_;
    std::vector<Process> processes_;
    FaultModule *module_ = nullptr;

    bool inHandler_ = false;
    Cycles handlerBudget_ = 0;
    Cycles handlerCycles_ = 0;
    std::uint64_t totalFaults_ = 0;
    Summary handlerLatency_;
    obs::Observer *obs_ = nullptr;
    ProbeNoise probeNoise_;
};

} // namespace uscope::os

#endif // USCOPE_OS_KERNEL_HH
