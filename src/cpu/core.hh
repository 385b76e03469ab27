/**
 * @file
 * The out-of-order, SMT-enabled core (paper §2.2).
 *
 * Model summary:
 *  - Two hardware contexts share fetch bandwidth, the issue ports
 *    (cpu/ports.hh), the MMU, and the cache hierarchy; each has a
 *    private architectural register file and a private ROB partition.
 *  - Instructions dispatch in order into the ROB, issue out of order
 *    when their producers are complete and a port is free, and retire
 *    in order.  Scheduling is event-driven (DESIGN.md §18): the ROB
 *    is a ring indexed by sequence number, issued entries wait in one
 *    completion queue ordered by finish cycle, producers wake their
 *    consumers onto a per-context ready list, and loads order and
 *    forward against a per-context store queue, so a tick touches
 *    only due completions, operand-ready entries and older stores.
 *  - Memory ops translate through the MMU at issue: a TLB miss
 *    triggers a hardware page walk whose latency depends on where the
 *    page-table entries sit in the cache hierarchy.
 *  - A load whose leaf PTE has the present bit clear completes as
 *    *faulted*; the fault is raised only when the load reaches the ROB
 *    head (precise exceptions).  Meanwhile younger instructions — the
 *    victim's sensitive code — issue and execute, leaving cache and
 *    port-contention residue.  On the fault everything younger
 *    squashes and the OS fault handler (installed by os::Machine) runs;
 *    fetch then resumes at the faulting instruction.  If the handler
 *    left the present bit clear, the window replays: this loop is the
 *    paper's microarchitectural replay engine.
 *  - Speculative loads fill caches; stores write memory only at
 *    retirement (store buffer), so replays never corrupt state.
 *  - TSX: Txbegin checkpoints architectural state at retirement;
 *    transactional stores buffer until Txend; an eviction that hits
 *    the write set (or a fault inside the transaction) aborts to the
 *    handler PC — the §7.1 alternative replay handle.
 */

#ifndef USCOPE_CPU_CORE_HH
#define USCOPE_CPU_CORE_HH

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "cpu/isa.hh"
#include "cpu/ports.hh"
#include "cpu/predictor.hh"
#include "cpu/program.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "obs/observer.hh"
#include "vm/mmu.hh"

namespace uscope::obs
{
class MetricRegistry;
} // namespace uscope::obs

namespace uscope::cpu
{

// Pipeline widths (per cycle) and fixed latencies of the modelled core.
constexpr unsigned kFetchWidth = 4;
constexpr unsigned kIssueWidth = 6;
constexpr unsigned kRetireWidth = 4;
constexpr Cycles kAluLatency = 1;
constexpr Cycles kMulLatency = 3;
constexpr Cycles kFmulLatency = 4;
constexpr Cycles kFdivSubnormalLatency = 120;  ///< Subnormal operand.
constexpr Cycles kAguLatency = 1;
constexpr Cycles kForwardLatency = 5;  ///< Store-to-load forwarding.
constexpr Cycles kRdtscLatency = 8;
constexpr Cycles kRdrandLatency = 150;
constexpr unsigned kPredictorEntries = 4096;  ///< A power of two.
/** SMT contexts sharing the core's issue ports.  A power of two: the
 *  issue rotation's below(kNumContexts) is then exactly one raw draw,
 *  which is what lets fast-forward owe skipped draws (DESIGN.md §10). */
constexpr unsigned kNumContexts = 2;
static_assert(std::has_single_bit(kNumContexts));

/** The core parameters that the ablations, the defenses and the
 *  RDRAND attack vary. */
struct CoreConfig
{
    unsigned robPerContext = 112;

    Cycles divLatency = 24;
    Cycles fdivLatency = 24;
    /**
     * Intel's RDRAND includes an internal serializing fence that
     * blocks speculation past it (§7.2 — this is what defeats the
     * RDRAND-bias attack).  Configurable for the ablation.
     */
    bool rdrandSerializing = true;

    /**
     * §8 "Fences on Pipeline Flushes" defense: after any pipeline
     * flush (page-fault squash or branch misprediction) the first
     * re-fetched instruction acts as a fence, so nothing younger
     * issues until it retires — starving the replay window.
     */
    bool fenceOnPipelineFlush = false;

    /** Structural equality (snapshot/pool compatibility checks). */
    bool operator==(const CoreConfig &) const = default;
};

/** Why a context's retirement raised an event. */
struct FaultInfo
{
    unsigned ctx = 0;
    VAddr va = 0;           ///< Faulting data virtual address.
    std::uint64_t pc = 0;   ///< PC of the faulting instruction.
    bool isStore = false;
};

/** Per-context execution statistics. */
struct CtxStats
{
    std::uint64_t fetched = 0;
    std::uint64_t retired = 0;
    std::uint64_t squashed = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t txAborts = 0;
    std::uint64_t stallCycles = 0;
};

/** Lifecycle state of a hardware context. */
enum class CtxState
{
    Idle,      ///< No program loaded.
    Running,
    Stalled,   ///< Blocked until a wake-up cycle (fault handling).
    Halted,    ///< Retired a Halt.
};

/** The simulated core. */
class Core
{
  public:
    /** Called when a page fault reaches the head of the ROB. */
    using FaultHandler = std::function<void(const FaultInfo &)>;
    /** Entropy source for RDRAND (installed by the OS). */
    using RdrandSource = std::function<std::uint64_t()>;

    Core(mem::PhysMem &mem, mem::Hierarchy &hierarchy, vm::Mmu &mmu,
         const CoreConfig &config = CoreConfig{}, std::uint64_t seed = 7);

    const CoreConfig &config() const { return config_; }
    Cycles cycle() const { return cycle_; }

    /** Install the OS page-fault entry point. */
    void setFaultHandler(FaultHandler handler);

    /** Install the RDRAND entropy source. */
    void setRdrandSource(RdrandSource source);

    /**
     * Observation hook fired at every load/store *execution* (incl.
     * speculative, squashed-later ones).  For tests and attack
     * research instrumentation; never used by the model itself.
     */
    using MemProbe = std::function<void(unsigned ctx, VAddr va,
                                        PAddr pa, bool is_store,
                                        bool faulted)>;
    void setMemProbe(MemProbe probe);

    /**
     * Load @p program onto context @p ctx and start fetching at
     * @p entry.  @p pc_bias is the context's text base used to index
     * the shared branch predictor (the OS knows it — the attacker can
     * therefore compute predictor indices).
     *
     * The in-flight state starts empty (ROB, store queue, ready list,
     * writer tables, transaction), but the context's architectural
     * registers and stats carry over: a program started on a context
     * that ran another one reads that program's final registers
     * until it writes its own.
     */
    void startContext(unsigned ctx, std::shared_ptr<const Program> program,
                      std::uint64_t entry, Pcid pcid, PAddr pt_root,
                      std::uint64_t pc_bias);

    /** Program loaded on @p ctx (null while idle). */
    const std::shared_ptr<const Program> &contextProgram(unsigned ctx) const
    {
        return ctxAt(ctx).program;
    }

    CtxState contextState(unsigned ctx) const;
    bool halted(unsigned ctx) const;

    /** Block a context's fetch/issue for @p duration cycles. */
    void stallContext(unsigned ctx, Cycles duration);

    /**
     * Scheduler preemption of @p ctx (fault-injection layer): squash
     * everything in flight, resume fetch at the oldest unretired
     * instruction (precise — stores only write at retirement, so
     * re-execution is safe), and stall the context for @p penalty
     * cycles of scheduler-quantum tax.  Inside a transaction the
     * context switch aborts it instead (TSX semantics).  Idle and
     * halted contexts just pay the stall bookkeeping-free no-op.
     */
    void preemptContext(unsigned ctx, Cycles penalty);

    /**
     * Deterministic-noise hook (fault-injection layer): called once
     * per successful issue of a jitterable op (Mul/Div/Fmul/Fdiv);
     * the returned extra cycles stretch that op's execution latency.
     * Must NOT touch this core's own RNG stream — fastForwardTo
     * advances that stream by one draw per skipped cycle, so any
     * extra draw there would break fast-forward bit-identity.
     * Injector-owned streams are safe: issues happen at the same
     * cycles whether the clock jumps or ticks.
     */
    using IssueJitterHook = std::function<Cycles(unsigned ctx)>;
    void setIssueJitterHook(IssueJitterHook hook);

    /** Squash everything in flight and restart fetch at @p pc. */
    void redirectContext(unsigned ctx, std::uint64_t pc);

    /** Architectural register reads (result readback). */
    std::uint64_t readIntReg(unsigned ctx, Reg reg) const;
    double readFpReg(unsigned ctx, Reg reg) const;

    /**
     * Advance the whole core by one cycle.  Returns true when the
     * cycle did work: it completed, retired, issued or dispatched at
     * least one op.  The machine's step loop asks for the next event
     * only after a cycle that did none (DESIGN.md §10).
     */
    bool tick();

    /**
     * Earliest cycle at which calling tick() can change architectural
     * or stats state (the fast-forward contract, DESIGN.md §10):
     * in-flight completion times, stall wake-ups, pending transaction
     * aborts, possible fetch/retire/issue activity, and — when event
     * tracing is enabled — any cycle that would record a trace event
     * (port-conflict retries).  Returns cycle() when the very next
     * tick may do work, kNoEventCycle when nothing is in flight.
     *
     * The guarantee is *bit-identity*: for every cycle c in
     * [cycle(), nextEventCycle()), tick() at c would change nothing
     * except the cycle counter and one SMT-arbitration RNG draw —
     * both of which fastForwardTo() advances exactly.
     */
    Cycles nextEventCycle() const;

    /**
     * Jump the clock to @p target without ticking.  The caller must
     * guarantee target <= nextEventCycle().  The RNG stream skips the
     * span's per-cycle SMT-arbitration draws, so it stays
     * bit-identical to a cycle-by-cycle run: the span joins the owed
     * draws, settled by one Rng::discard (an O(log k) jump for long
     * spans) before the next real draw (DESIGN.md §10).
     */
    void fastForwardTo(Cycles target);

    /** Shared branch predictor (the attacker primes/flushes it). */
    BranchPredictor &predictor() { return predictor_; }

    /**
     * Notify the core that @p paddr's line left the cache hierarchy.
     * Aborts any transaction whose write set contains it (§7.1).
     */
    void notifyLineEvicted(PAddr paddr);

    /** Abort context @p ctx's transaction, if one is active. */
    bool abortTransaction(unsigned ctx);

    /** True while @p ctx is inside a transaction. */
    bool inTransaction(unsigned ctx) const;

    const CtxStats &stats(unsigned ctx) const;
    const PortState &ports() const { return ports_; }

    /** Current ROB occupancy (tests). */
    std::size_t robOccupancy(unsigned ctx) const;

    /** FNV-1a digest of the cycle counter, every context's CtxStats
     *  and architectural registers, and the port issue counts (tests
     *  pin it across scheduler rewrites). */
    std::uint64_t stateDigest() const;

    /**
     * Adopt @p other's mutable state — cycle counter, contexts (ROB,
     * registers, TSX checkpoints, stats), ports, predictor, and the
     * SMT-arbitration RNG stream (snapshot forking, DESIGN.md §12).
     * Configs must match.  Callbacks (fault handler, RDRAND source,
     * probes, jitter hooks), the memory-system references, and the
     * observer wiring stay this core's own: they capture the owning
     * Machine and would dangle if carried across.
     */
    void copyStateFrom(const Core &other);

    /** Re-derive the SMT-arbitration stream from @p seed (fork
     *  reseed; leaves all architectural state and stats alone). */
    void
    reseed(std::uint64_t seed)
    {
        rng_.seed(seed);
        owedDraws_ = 0;
    }

    /** Wire the owning Machine's observability hub (may be null);
     *  binds the hub's event clock to this core's cycle counter. */
    void setObserver(obs::Observer *observer);

    /** Register core.* (per-context sums, ROB squashes, port issue
     *  counts) into @p registry. */
    void exportMetrics(obs::MetricRegistry &registry) const;

  private:
    /** No such in-flight entry (Context::barrierSeq, waiter
     *  chains). */
    static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

    /** One reorder-buffer entry. */
    struct RobEntry
    {
        /** The instruction and its memoized decode (points into the
         *  context's shared DecodedStream; kept alive by
         *  Context::program). */
        const DecodedInst *dec = nullptr;
        std::uint64_t seq = 0;
        std::uint64_t pc = 0;

        enum class State { Waiting, Executing, Done } state =
            State::Waiting;
        Cycles finishCycle = 0;

        // Dependencies: producer sequence numbers, or -1 if the value
        // comes from the architectural register file.
        std::int64_t dep1 = -1;
        std::int64_t dep2 = -1;

        std::uint64_t result = 0;      ///< Destination value (bits).
        bool faulted = false;
        VAddr faultVa = 0;
        /** Acts as a fence (fenceOnPipelineFlush defense). */
        bool flushBarrier = false;

        // Branch bookkeeping.
        bool predictedTaken = false;
        bool actualTaken = false;
        bool mispredictHandled = false;

        // Store bookkeeping: the address resolves at execute (only the
        // base register is needed); the data may resolve later — at
        // the latest at retirement, when the producer has retired.
        bool storeResolved = false;       ///< Address known.
        bool storeDataResolved = false;   ///< Value known.
        VAddr storeVa = 0;
        PAddr storePa = 0;
        std::uint64_t storeValue = 0;
        unsigned storeLen = 0;

        // Operand wakeup: the sources issueReady gates on whose
        // producer has not turned Done.  A faulted producer never
        // wakes its consumers, so they wait for the squash (§4.1.1).
        unsigned pendingSrcs = 0;
        /** Consumers to wake at Done: a chain of waiter links,
         *  youngest first, ending in kNoSeq.  Link `2 * seq + i` is
         *  source i of entry seq, whose nextWaiter[i] continues the
         *  chain.  The chain lives in the consumers themselves, so
         *  the entry stays trivially copyable and a producer has no
         *  waiter limit. */
        std::uint64_t firstWaiter = kNoSeq;
        std::array<std::uint64_t, 2> nextWaiter{};
    };

    /**
     * A power-of-two ring addressed by an ever-growing 64-bit
     * position: element `pos` sits in slot `pos & mask`, the live
     * positions are the contiguous range [headPos(), endPos()), and
     * finding one is O(1).  It allocates nothing after construction,
     * and assignment between rings of one capacity copies only the
     * live slots, which keeps Machine::copyStateFrom (restores and
     * snapshots) proportional to what is in flight.
     */
    template <typename T>
    class Ring
    {
        // push() rebuilds a slot over its previous occupant without
        // destroying it.
        static_assert(std::is_trivially_destructible_v<T>);

      public:
        Ring() = default;
        explicit Ring(unsigned capacity)
            : slots_(capacity ? std::bit_ceil(capacity) : 0),
              mask_(slots_.empty() ? 0 : slots_.size() - 1)
        {
        }
        Ring(const Ring &) = default;

        Ring &
        operator=(const Ring &other)
        {
            if (this == &other)
                return *this;
            if (slots_.size() == other.slots_.size()) {
                // Dead slots are never read, so restores skip them.
                for (std::uint64_t pos = other.head_; pos < other.endPos();
                     ++pos)
                    at(pos) = other.at(pos);
            } else {
                slots_ = other.slots_;
                mask_ = other.mask_;
            }
            head_ = other.head_;
            size_ = other.size_;
            return *this;
        }

        bool empty() const { return size_ == 0; }
        std::size_t size() const { return size_; }
        /** Position of the oldest element. */
        std::uint64_t headPos() const { return head_; }
        /** Position the next push takes. */
        std::uint64_t endPos() const { return head_ + size_; }

        /** The live element @p pos, or null if it is not in the ring. */
        const T *
        find(std::uint64_t pos) const
        {
            // Unsigned wrap also rejects pos < head_.
            return pos - head_ < size_ ? &slots_[pos & mask_] : nullptr;
        }
        T *
        find(std::uint64_t pos)
        {
            return pos - head_ < size_ ? &slots_[pos & mask_] : nullptr;
        }
        /** The live element @p pos (the caller knows it is live). */
        T &at(std::uint64_t pos) { return slots_[pos & mask_]; }
        const T &at(std::uint64_t pos) const { return slots_[pos & mask_]; }
        T &front() { return at(head_); }
        const T &front() const { return at(head_); }
        T &back() { return at(endPos() - 1); }
        const T &back() const { return at(endPos() - 1); }

        /**
         * Append a default-initialised element at endPos(), built in
         * place over the slot's previous occupant: a RobEntry runs its
         * member initializers, a scalar must be assigned.  Value-
         * initialising instead would zero the whole slot first, which
         * costs dispatch ~10% (DESIGN.md §18).
         */
        T &
        push()
        {
            if (size_ == slots_.size())
                panic("Core::Ring: push into a full ring of %zu", size_);
            return *::new (static_cast<void *>(&at(head_ + size_++))) T;
        }
        void popFront()
        {
            ++head_;
            --size_;
        }
        void popBack() { --size_; }
        /** Drop everything; positions continue at headPos(). */
        void clear() { size_ = 0; }

      private:
        std::vector<T> slots_;
        std::uint64_t mask_ = 0;
        std::uint64_t head_ = 0;
        std::size_t size_ = 0;
    };

    /**
     * One context's ROB, indexed by sequence number.  Live sequence
     * numbers are contiguous — a squash rewinds the next number to
     * just past the youngest survivor — so an entry's position is its
     * sequence number.  A number below headPos() belongs to a retired
     * entry.
     */
    using Rob = Ring<RobEntry>;

    /**
     * One context's store queue: the sequence numbers of its in-flight
     * stores, oldest first.  Load ordering and store-to-load
     * forwarding walk it instead of the ROB, so they cost O(older
     * stores).  Positions are queue-private; the values are ROB
     * sequence numbers.
     */
    using StoreQueue = Ring<std::uint64_t>;

    /** An Executing entry's completion event. */
    struct Completion
    {
        Cycles finish = 0;
        unsigned ctx = 0;
        std::uint64_t seq = 0;

        /** Queue order: finish cycle, then doCompletions' old scan
         *  order — context, then sequence number. */
        auto operator<=>(const Completion &) const = default;
    };

    /** A buffered transactional store awaiting commit. */
    struct TxStore
    {
        PAddr pa;
        std::uint64_t value;
        unsigned len;
    };

    /** Per-context state. */
    struct Context
    {
        CtxState state = CtxState::Idle;
        std::shared_ptr<const Program> program;
        /** The program's shared decode table (null iff no program).
         *  Owned by `program`; copying a Context shares the stream. */
        const DecodedStream *stream = nullptr;
        std::uint64_t fetchPc = 0;
        bool fetchStopped = false;  ///< Past a Halt or unresolved edge.
        Pcid pcid = 0;
        PAddr ptRoot = 0;
        std::uint64_t pcBias = 0;
        Cycles stallUntil = 0;

        Rob rob;
        /** The in-flight stores of `rob`, in ascending seq. */
        StoreQueue stores;
        /** Waiting entries with every gated operand ready, oldest
         *  first: the only entries issue looks at. */
        std::vector<std::uint64_t> ready;
        /** Oldest in-flight barrier; nothing younger issues. */
        std::uint64_t barrierSeq = kNoSeq;

        /** Next dispatched instruction becomes a flush barrier. */
        bool serializeNext = false;

        // TSX.
        bool inTx = false;
        bool txPendingAbort = false;
        std::uint64_t txAbortPc = 0;
        std::vector<TxStore> txStores;
        std::unordered_set<PAddr> txWriteSet;  ///< Line base addrs.

        CtxStats stats;

        // The register-sized arrays last, so the scalars every tick
        // reads share a few cache lines.
        std::array<std::int64_t, numIntRegs> lastIntWriter;
        std::array<std::int64_t, numFpRegs> lastFpWriter;
        std::array<std::uint64_t, numIntRegs> intRegs{};
        std::array<std::uint64_t, numFpRegs> fpRegs{};
        std::array<std::uint64_t, numIntRegs> txIntRegs{};
        std::array<std::uint64_t, numFpRegs> txFpRegs{};
    };

    Context &ctxAt(unsigned ctx);
    const Context &ctxAt(unsigned ctx) const;

    // The hot loop (DESIGN.md §18).  tick() compiles as one loop: the
    // stages and the per-entry steps that every op passes through are
    // forced inline into it, and the paths that run only on a
    // mispredict, a squash, a fault, a transaction abort, a barrier's
    // retirement or while tracing stay out of line, so the loop stays
    // small.  A new per-op helper joins the hot set only with a
    // microbenchmark it moves.

    // The stages return whether they moved any op (tick()'s result).
    [[gnu::always_inline]] inline bool doCompletions();
    [[gnu::always_inline]] inline void completeEntry(unsigned ctx_id,
                                                     RobEntry &entry);
    [[gnu::always_inline]] inline bool doRetire();
    [[gnu::always_inline]] inline void doIssue();
    [[gnu::always_inline]] inline bool doFetch();

    [[gnu::always_inline]] inline void dispatchOne(unsigned ctx_id);
    /** Count source @p src (producer @p dep) against @p consumer's
     *  readiness and chain it to the producer's wakeup, unless the
     *  value is available. */
    [[gnu::always_inline]] inline void
    watchSource(Context &ctx, RobEntry &consumer, unsigned src,
                std::int64_t dep);
    /** Barriers block the issue of everything younger. */
    [[gnu::always_inline]] inline bool
    isBarrier(const RobEntry &entry) const;
    /** Operand + memory-ordering issue gate (no port/side effects);
     *  shared by tryIssue and nextEventCycle so the two can never
     *  disagree about when an entry becomes issueable. */
    [[gnu::always_inline]] inline bool
    issueReady(const Context &ctx, const RobEntry &entry) const;
    [[gnu::always_inline]] inline bool tryIssue(unsigned ctx_id,
                                                RobEntry &entry);
    [[gnu::always_inline]] inline void
    executeEntry(unsigned ctx_id, RobEntry &entry, Cycles &latency);
    [[gnu::always_inline]] inline void
    executeMemOp(unsigned ctx_id, RobEntry &entry, Cycles &latency);
    [[gnu::always_inline]] inline bool retireOne(unsigned ctx_id);
    /** Pop the retiring head, moving barrierSeq past it if needed. */
    [[gnu::always_inline]] inline void popHead(Context &ctx);
    /** Resolve a source value; false if the producer is not done. */
    [[gnu::always_inline]] inline bool
    resolveSource(const Context &ctx, std::int64_t dep, Reg reg, bool fp,
                  std::uint64_t &value) const;
    [[gnu::always_inline]] inline std::uint64_t
    biasedPc(const Context &ctx, std::uint64_t pc) const;

    // The cold paths.

    /** Record one event (the caller has checked obs::tracing). */
    [[gnu::noinline]] void traceEvent(obs::EventKind kind, unsigned ctx_id,
                                      std::uint16_t b,
                                      std::uint64_t addr);
    /** Squash what is younger than the mispredicted branch @p entry
     *  and refetch down its resolved direction. */
    [[gnu::noinline]] void recoverMispredict(unsigned ctx_id,
                                             const RobEntry &entry);
    /** Point barrierSeq at the oldest in-flight barrier, or none. */
    [[gnu::noinline]] void findBarrier(Context &ctx);
    [[gnu::noinline]] void handleFaultAtHead(unsigned ctx_id,
                                             const RobEntry &head);
    [[gnu::noinline]] void doTxAbort(unsigned ctx_id);

    /** Squash all entries younger than @p keep_upto (exclusive). */
    [[gnu::noinline]] void squashYounger(unsigned ctx_id,
                                         std::int64_t keep_seq);

    /** Forget entries from @p first_gone on (already popped from the
     *  ring) in the completion queue, ready list, store queue, barrier
     *  and the survivors' waiter chains. */
    [[gnu::noinline]] void dropScheduling(unsigned ctx_id,
                                          std::uint64_t first_gone);

    /** Squash the whole context. */
    [[gnu::noinline]] void squashAll(unsigned ctx_id);

    void rebuildWriterTables(Context &ctx);

    /** Take the owed SMT-arbitration draws from rng_ (one discard). */
    void
    settleDraws()
    {
        if (owedDraws_ != 0) {
            rng_.discard(owedDraws_);
            owedDraws_ = 0;
        }
    }

    mem::PhysMem &mem_;
    mem::Hierarchy &hierarchy_;
    vm::Mmu &mmu_;
    CoreConfig config_;
    Rng rng_;
    /**
     * SMT-arbitration draws counted but not yet taken from rng_.  A
     * tick with fewer than two Running contexts, and every
     * fast-forwarded cycle, owes its draw instead of taking it: the
     * rotation order cannot matter then.  below() of a power of two
     * is exactly one raw draw, so settleDraws()'s one discard before
     * the next real draw leaves that draw bit-identical to the one an
     * eager run takes (DESIGN.md §10).
     */
    std::uint64_t owedDraws_ = 0;

    Cycles cycle_ = 0;
    std::vector<Context> contexts_;
    /** Exactly one item per Executing entry, sorted latest first, so
     *  the next due completion is at the back. */
    std::vector<Completion> completions_;
    PortState ports_;
    BranchPredictor predictor_;
    unsigned issuedThisCycle_ = 0;

    FaultHandler faultHandler_;
    RdrandSource rdrandSource_;
    MemProbe memProbe_;
    IssueJitterHook issueJitter_;
    obs::Observer *obs_ = nullptr;
};

} // namespace uscope::cpu

#endif // USCOPE_CPU_CORE_HH
