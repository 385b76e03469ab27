#include "cpu/core.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace uscope::cpu
{

namespace
{

double
asDouble(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

std::uint64_t
asBits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

bool
isSubnormal(double value)
{
    return std::fpclassify(value) == FP_SUBNORMAL;
}

/** Do byte ranges [a, a + a_len) and [b, b + b_len) intersect? */
bool
overlaps(VAddr a, unsigned a_len, VAddr b, unsigned b_len)
{
    return a < b + b_len && b < a + a_len;
}

} // anonymous namespace

Core::Core(mem::PhysMem &mem, mem::Hierarchy &hierarchy, vm::Mmu &mmu,
           const CoreConfig &config, std::uint64_t seed)
    : mem_(mem), hierarchy_(hierarchy), mmu_(mmu), config_(config),
      rng_(seed), contexts_(kNumContexts), predictor_(kPredictorEntries)
{
    for (Context &ctx : contexts_) {
        ctx.rob = Rob(config_.robPerContext);
        ctx.stores = StoreQueue(config_.robPerContext);
        ctx.lastIntWriter.fill(-1);
        ctx.lastFpWriter.fill(-1);
    }
}

void
Core::copyStateFrom(const Core &other)
{
    rng_ = other.rng_;
    owedDraws_ = other.owedDraws_;
    cycle_ = other.cycle_;
    contexts_ = other.contexts_;
    completions_ = other.completions_;
    ports_ = other.ports_;
    predictor_ = other.predictor_;
    issuedThisCycle_ = other.issuedThisCycle_;
}

Core::Context &
Core::ctxAt(unsigned ctx)
{
    if (ctx >= contexts_.size())
        panic("Core: bad context id %u", ctx);
    return contexts_[ctx];
}

const Core::Context &
Core::ctxAt(unsigned ctx) const
{
    return const_cast<Core *>(this)->ctxAt(ctx);
}

void
Core::setFaultHandler(FaultHandler handler)
{
    faultHandler_ = std::move(handler);
}

void
Core::setRdrandSource(RdrandSource source)
{
    rdrandSource_ = std::move(source);
}

void
Core::setMemProbe(MemProbe probe)
{
    memProbe_ = std::move(probe);
}

void
Core::setIssueJitterHook(IssueJitterHook hook)
{
    issueJitter_ = std::move(hook);
}

void
Core::setObserver(obs::Observer *observer)
{
    obs_ = observer;
    if (obs_)
        obs_->trace.bindClock(&cycle_);
}

void
Core::exportMetrics(obs::MetricRegistry &registry) const
{
    static const obs::MetricName fetched{"core.fetched"};
    static const obs::MetricName retired{"core.retired"};
    static const obs::MetricName squashes{"core.rob.squashes"};
    static const obs::MetricName pageFaults{"core.page_faults"};
    static const obs::MetricName mispredicts{"core.mispredicts"};
    static const obs::MetricName txAborts{"core.tx_aborts"};
    static const obs::MetricName stallCycles{"core.stall_cycles"};
    static const obs::MetricName cycles{"core.cycles"};
    static const std::array<obs::MetricName, numPorts> portIssues = [] {
        std::array<obs::MetricName, numPorts> names;
        for (unsigned port = 0; port < numPorts; ++port)
            names[port] = obs::MetricName(
                "core.ports.p" + std::to_string(port) + ".issues");
        return names;
    }();

    CtxStats sum;
    for (const Context &ctx : contexts_) {
        sum.fetched += ctx.stats.fetched;
        sum.retired += ctx.stats.retired;
        sum.squashed += ctx.stats.squashed;
        sum.pageFaults += ctx.stats.pageFaults;
        sum.mispredicts += ctx.stats.mispredicts;
        sum.txAborts += ctx.stats.txAborts;
        sum.stallCycles += ctx.stats.stallCycles;
    }
    registry.counter(fetched).set(sum.fetched);
    registry.counter(retired).set(sum.retired);
    registry.counter(squashes).set(sum.squashed);
    registry.counter(pageFaults).set(sum.pageFaults);
    registry.counter(mispredicts).set(sum.mispredicts);
    registry.counter(txAborts).set(sum.txAborts);
    registry.counter(stallCycles).set(sum.stallCycles);
    registry.gauge(cycles).set(static_cast<double>(cycle_));
    for (unsigned port = 0; port < numPorts; ++port)
        registry.counter(portIssues[port]).set(ports_.issues(port));
}

void
Core::startContext(unsigned ctx_id,
                   std::shared_ptr<const Program> program,
                   std::uint64_t entry, Pcid pcid, PAddr pt_root,
                   std::uint64_t pc_bias)
{
    Context &ctx = ctxAt(ctx_id);
    ctx.program = std::move(program);
    ctx.stream = ctx.program ? &ctx.program->decoded() : nullptr;
    ctx.fetchPc = entry;
    ctx.fetchStopped = false;
    ctx.pcid = pcid;
    ctx.ptRoot = pt_root;
    ctx.pcBias = pc_bias;
    ctx.stallUntil = 0;
    ctx.rob.clear();
    dropScheduling(ctx_id, ctx.rob.headPos());
    ctx.lastIntWriter.fill(-1);
    ctx.lastFpWriter.fill(-1);
    ctx.inTx = false;
    ctx.txPendingAbort = false;
    ctx.txStores.clear();
    ctx.txWriteSet.clear();
    ctx.state = CtxState::Running;
}

CtxState
Core::contextState(unsigned ctx_id) const
{
    return ctxAt(ctx_id).state;
}

bool
Core::halted(unsigned ctx_id) const
{
    return ctxAt(ctx_id).state == CtxState::Halted;
}

void
Core::stallContext(unsigned ctx_id, Cycles duration)
{
    Context &ctx = ctxAt(ctx_id);
    ctx.state = CtxState::Stalled;
    ctx.stallUntil = std::max(ctx.stallUntil, cycle_ + duration);
    ctx.stats.stallCycles += duration;
}

void
Core::preemptContext(unsigned ctx_id, Cycles penalty)
{
    Context &ctx = ctxAt(ctx_id);
    if (ctx.state == CtxState::Idle || ctx.state == CtxState::Halted)
        return;

    if (ctx.inTx) {
        // A context switch aborts a transaction (TSX semantics); the
        // abort path already redirects fetch to the abort handler.
        doTxAbort(ctx_id);
    } else {
        // Precise: resume at the oldest in-flight instruction, like a
        // fault squash (stores only write at retirement, so in-flight
        // work re-executes safely).
        if (!ctx.rob.empty()) {
            ctx.fetchPc = ctx.rob.front().pc;
            ctx.fetchStopped = false;
        }
        squashAll(ctx_id);
        if (config_.fenceOnPipelineFlush)
            ctx.serializeNext = true;
    }
    stallContext(ctx_id, penalty);
}

void
Core::redirectContext(unsigned ctx_id, std::uint64_t pc)
{
    Context &ctx = ctxAt(ctx_id);
    squashAll(ctx_id);
    ctx.fetchPc = pc;
    ctx.fetchStopped = false;
    if (ctx.state == CtxState::Halted)
        ctx.state = CtxState::Running;
}

std::uint64_t
Core::readIntReg(unsigned ctx_id, Reg reg) const
{
    return ctxAt(ctx_id).intRegs.at(reg);
}

double
Core::readFpReg(unsigned ctx_id, Reg reg) const
{
    return asDouble(ctxAt(ctx_id).fpRegs.at(reg));
}

const CtxStats &
Core::stats(unsigned ctx_id) const
{
    return ctxAt(ctx_id).stats;
}

std::size_t
Core::robOccupancy(unsigned ctx_id) const
{
    return ctxAt(ctx_id).rob.size();
}

std::uint64_t
Core::stateDigest() const
{
    std::uint64_t h = kFnv1aBasis;
    auto mix = [&h](std::uint64_t v) { h = fnv1aMix(h, v); };
    mix(cycle_);
    for (const Context &ctx : contexts_) {
        const CtxStats &s = ctx.stats;
        for (std::uint64_t v : {s.fetched, s.retired, s.squashed,
                                s.pageFaults, s.mispredicts, s.txAborts,
                                s.stallCycles}) {
            mix(v);
        }
        for (std::uint64_t reg : ctx.intRegs)
            mix(reg);
        for (std::uint64_t reg : ctx.fpRegs)
            mix(reg);
    }
    for (unsigned port = 0; port < numPorts; ++port)
        mix(ports_.issues(port));
    return h;
}

bool
Core::inTransaction(unsigned ctx_id) const
{
    return ctxAt(ctx_id).inTx;
}

std::uint64_t
Core::biasedPc(const Context &ctx, std::uint64_t pc) const
{
    return ctx.pcBias + pc;
}

bool
Core::resolveSource(const Context &ctx, std::int64_t dep, Reg reg,
                    bool fp, std::uint64_t &value) const
{
    if (dep < 0) {
        value = fp ? ctx.fpRegs[reg] : ctx.intRegs[reg];
        return true;
    }
    const RobEntry *producer =
        ctx.rob.find(static_cast<std::uint64_t>(dep));
    if (!producer) {
        // Producer already retired: its value reached the regfile.
        value = fp ? ctx.fpRegs[reg] : ctx.intRegs[reg];
        return true;
    }
    if (producer->state != RobEntry::State::Done ||
        producer->finishCycle > cycle_) {
        return false;
    }
    // A faulted load produces no data: its dependents never become
    // ready ("instructions that are dependent on the replay handle do
    // not execute", §4.1.1) and die in the eventual squash.
    if (producer->faulted)
        return false;
    value = producer->result;
    return true;
}

void
Core::rebuildWriterTables(Context &ctx)
{
    ctx.lastIntWriter.fill(-1);
    ctx.lastFpWriter.fill(-1);
    for (std::uint64_t seq = ctx.rob.headPos(); seq < ctx.rob.endPos();
         ++seq) {
        const RobEntry &entry = ctx.rob.at(seq);
        if (entry.dec->writesInt())
            ctx.lastIntWriter[entry.dec->inst.rd] =
                static_cast<std::int64_t>(entry.seq);
        if (entry.dec->writesFp())
            ctx.lastFpWriter[entry.dec->inst.rd] =
                static_cast<std::int64_t>(entry.seq);
    }
}

void
Core::squashYounger(unsigned ctx_id, std::int64_t keep_seq)
{
    Context &ctx = ctxAt(ctx_id);
    std::uint64_t popped = 0;
    std::uint64_t oldest_pc = 0;
    while (!ctx.rob.empty() &&
           static_cast<std::int64_t>(ctx.rob.back().seq) > keep_seq) {
        ++ctx.stats.squashed;
        oldest_pc = ctx.rob.back().pc;
        ctx.rob.popBack();
        ++popped;
    }
    if (popped && obs::tracing(obs_))
        traceEvent(obs::EventKind::Squash, ctx_id,
                   static_cast<std::uint16_t>(popped), oldest_pc);
    dropScheduling(ctx_id, ctx.rob.endPos());
    rebuildWriterTables(ctx);
}

void
Core::dropScheduling(unsigned ctx_id, std::uint64_t first_gone)
{
    Context &ctx = contexts_[ctx_id];
    std::erase_if(completions_, [&](const Completion &c) {
        return c.ctx == ctx_id && c.seq >= first_gone;
    });
    while (!ctx.ready.empty() && ctx.ready.back() >= first_gone)
        ctx.ready.pop_back();
    while (!ctx.stores.empty() && ctx.stores.back() >= first_gone)
        ctx.stores.popBack();
    if (ctx.barrierSeq >= first_gone)
        ctx.barrierSeq = kNoSeq;
    // Gone numbers are reused by the next dispatch, so no survivor's
    // chain may still reach one.  Chains run youngest first, so the
    // gone waiters are a prefix; their popped slots still hold their
    // links until the next push.
    for (std::uint64_t seq = ctx.rob.headPos(); seq < ctx.rob.endPos();
         ++seq) {
        std::uint64_t &link = ctx.rob.at(seq).firstWaiter;
        while (link != kNoSeq && link / 2 >= first_gone)
            link = ctx.rob.at(link / 2).nextWaiter[link % 2];
    }
}

void
Core::squashAll(unsigned ctx_id)
{
    squashYounger(ctx_id, -1);
}

void
Core::notifyLineEvicted(PAddr paddr)
{
    const PAddr line = lineBase(paddr);
    for (Context &ctx : contexts_)
        if (ctx.inTx && ctx.txWriteSet.count(line))
            ctx.txPendingAbort = true;
}

bool
Core::abortTransaction(unsigned ctx_id)
{
    Context &ctx = ctxAt(ctx_id);
    if (!ctx.inTx)
        return false;
    ctx.txPendingAbort = true;
    return true;
}

void
Core::doTxAbort(unsigned ctx_id)
{
    Context &ctx = ctxAt(ctx_id);
    if (!ctx.inTx)
        panic("doTxAbort: context %u not in a transaction", ctx_id);
    squashAll(ctx_id);
    ctx.intRegs = ctx.txIntRegs;
    ctx.fpRegs = ctx.txFpRegs;
    ctx.txStores.clear();
    ctx.txWriteSet.clear();
    ctx.inTx = false;
    ctx.txPendingAbort = false;
    ctx.fetchPc = ctx.txAbortPc;
    ctx.fetchStopped = false;
    ++ctx.stats.txAborts;
}

void
Core::traceEvent(obs::EventKind kind, unsigned ctx_id, std::uint16_t b,
                 std::uint64_t addr)
{
    obs_->trace.record(kind, static_cast<std::uint8_t>(ctx_id), b, addr);
}

bool
Core::tick()
{
    // Wake stalled contexts and fire pending transaction aborts.
    for (unsigned i = 0; i < contexts_.size(); ++i) {
        Context &ctx = contexts_[i];
        if (ctx.state == CtxState::Stalled && cycle_ >= ctx.stallUntil)
            ctx.state = CtxState::Running;
        if (ctx.inTx && ctx.txPendingAbort)
            doTxAbort(i);
    }

    ports_.newCycle();
    issuedThisCycle_ = 0;

    const bool completed = doCompletions();
    const bool retired = doRetire();
    doIssue();
    const bool dispatched = doFetch();

    ++cycle_;
    return completed | retired | (issuedThisCycle_ != 0) | dispatched;
}

Cycles
Core::nextEventCycle() const
{
    // Every term below mirrors one state-changing path of tick(); the
    // derivation of why the cycles in between are provably inert is in
    // DESIGN.md §10.  When in doubt a path must return cycle_ ("an
    // event may happen right now") — that is always correct, merely
    // slower.
    Cycles next = kNoEventCycle;
    const bool trace_on = obs::tracing(obs_);
    for (const Context &ctx : contexts_) {
        // Pending transaction aborts fire at the top of the next tick.
        if (ctx.inTx && ctx.txPendingAbort)
            return cycle_;

        if (ctx.state == CtxState::Stalled)
            next = std::min(next, std::max(ctx.stallUntil, cycle_));

        const bool running = ctx.state == CtxState::Running;

        // Fetch dispatches every cycle it can.
        if (running && ctx.program && !ctx.fetchStopped &&
            ctx.rob.size() < config_.robPerContext) {
            return cycle_;
        }

        if (ctx.rob.empty())
            continue;

        // Retirement (or the fault a Done-but-faulted head raises)
        // is pending as soon as the head is Done; doRetire processes
        // heads regardless of context state.
        if (ctx.rob.front().state == RobEntry::State::Done)
            return cycle_;

        if (!running)
            continue;

        // Issue: mirror doIssue's walk of the ready list (stop past a
        // barrier).  An entry whose operands and memory ordering are
        // clear can only be waiting on a port; ports free at known
        // busyUntil cycles.  With tracing enabled every failed port
        // attempt records a PortConflict event, so those cycles are
        // events themselves and cannot be skipped.
        for (std::uint64_t seq : ctx.ready) {
            if (seq > ctx.barrierSeq)
                break;
            const RobEntry &entry = ctx.rob.at(seq);
            if (!issueReady(ctx, entry))
                continue;
            if (trace_on)
                return cycle_;
            const PortChoices choices = entry.dec->ports;
            Cycles port_free = kNoEventCycle;
            if (choices.first != 0xFF)
                port_free =
                    std::min(port_free, ports_.busyUntil(choices.first));
            if (choices.second != 0xFF)
                port_free =
                    std::min(port_free, ports_.busyUntil(choices.second));
            next = std::min(next, std::max(port_free, cycle_));
        }
    }
    // Completions fire when an executing op's latency elapses, in
    // every context state, exactly like doCompletions.
    if (!completions_.empty())
        next = std::min(next, std::max(completions_.back().finish, cycle_));
    return next;
}

void
Core::fastForwardTo(Cycles target)
{
    if (target < cycle_)
        panic("Core::fastForwardTo: target %llu behind cycle %llu",
              static_cast<unsigned long long>(target),
              static_cast<unsigned long long>(cycle_));
    // Each skipped tick would have taken or owed one draw for the SMT
    // issue rotation; account for the same draws so the stream stays
    // aligned with a cycle-by-cycle run.  below(kNumContexts) takes
    // exactly one raw draw, so the span is owed and later settled by
    // one discard (a jump once it passes the break-even).
    owedDraws_ += target - cycle_;
    cycle_ = target;
}

bool
Core::doCompletions()
{
    // nextEventCycle never lets fast-forward skip a completion, so
    // every due item finishes at cycle_ and queue order is the old ROB
    // scan order: context, then sequence number.  A mispredict squash
    // erases younger items due in the same cycle before they pop.
    bool any = false;
    while (!completions_.empty() && completions_.back().finish <= cycle_) {
        const Completion due = completions_.back();
        completions_.pop_back();
        completeEntry(due.ctx, contexts_[due.ctx].rob.at(due.seq));
        any = true;
    }
    return any;
}

void
Core::completeEntry(unsigned ctx_id, RobEntry &entry)
{
    Context &ctx = contexts_[ctx_id];
    entry.state = RobEntry::State::Done;

    // A faulted load produces no data: its dependents never become
    // ready ("instructions that are dependent on the replay handle do
    // not execute", §4.1.1) and die in the eventual squash.
    if (!entry.faulted) {
        for (std::uint64_t link = entry.firstWaiter; link != kNoSeq;) {
            const std::uint64_t seq = link / 2;
            RobEntry &consumer = ctx.rob.at(seq);
            link = consumer.nextWaiter[link % 2];
            if (--consumer.pendingSrcs == 0)
                ctx.ready.insert(std::upper_bound(ctx.ready.begin(),
                                                  ctx.ready.end(), seq),
                                 seq);
        }
    }
    entry.firstWaiter = kNoSeq;

    if (entry.dec->isCondBranch() && !entry.mispredictHandled) {
        entry.mispredictHandled = true;
        predictor_.update(biasedPc(ctx, entry.pc), entry.actualTaken);
        if (entry.actualTaken != entry.predictedTaken)
            recoverMispredict(ctx_id, entry);
    }
}

void
Core::recoverMispredict(unsigned ctx_id, const RobEntry &entry)
{
    Context &ctx = contexts_[ctx_id];
    ++ctx.stats.mispredicts;
    squashYounger(ctx_id, static_cast<std::int64_t>(entry.seq));
    ctx.fetchPc = entry.actualTaken ? entry.dec->inst.target : entry.pc + 1;
    ctx.fetchStopped = false;
    if (config_.fenceOnPipelineFlush)
        ctx.serializeNext = true;
}

bool
Core::retireOne(unsigned ctx_id)
{
    Context &ctx = contexts_[ctx_id];
    if (ctx.rob.empty())
        return false;
    RobEntry &head = ctx.rob.front();
    if (head.state != RobEntry::State::Done ||
        head.finishCycle > cycle_) {
        return false;
    }

    if (head.faulted) {
        handleFaultAtHead(ctx_id, head);
        return false;
    }

    const Instruction &inst = head.dec->inst;
    const DecodedInst &dec = *head.dec;

    if (obs::tracing(obs_))
        traceEvent(obs::EventKind::Retire, ctx_id,
                   static_cast<std::uint16_t>(inst.op), head.pc);

    if (dec.writesInt())
        ctx.intRegs[inst.rd] = head.result;
    if (dec.writesFp())
        ctx.fpRegs[inst.rd] = head.result;

    if (dec.isStore() && head.storeResolved) {
        if (!head.storeDataResolved) {
            // STD at retirement: the producer is older, hence already
            // retired, so the register file holds the value.
            std::uint64_t value = 0;
            resolveSource(ctx, -1, inst.rs2, dec.readsFp2(), value);
            head.storeValue = (head.storeLen == 4)
                ? (value & 0xFFFFFFFFull)
                : value;
            head.storeDataResolved = true;
        }
        if (ctx.inTx) {
            ctx.txStores.push_back(
                {head.storePa, head.storeValue, head.storeLen});
            ctx.txWriteSet.insert(lineBase(head.storePa));
        } else {
            mem_.write(head.storePa, head.storeValue, head.storeLen);
        }
    }

    switch (inst.op) {
      case Op::Txbegin:
        ctx.inTx = true;
        ctx.txAbortPc = inst.target;
        ctx.txIntRegs = ctx.intRegs;
        ctx.txFpRegs = ctx.fpRegs;
        ctx.txStores.clear();
        ctx.txWriteSet.clear();
        break;
      case Op::Txend:
        if (ctx.inTx) {
            for (const TxStore &store : ctx.txStores)
                mem_.write(store.pa, store.value, store.len);
            ctx.txStores.clear();
            ctx.txWriteSet.clear();
            ctx.inTx = false;
        }
        break;
      case Op::Halt:
        popHead(ctx);
        ++ctx.stats.retired;
        squashAll(ctx_id);
        ctx.state = CtxState::Halted;
        return false;
      default:
        break;
    }

    popHead(ctx);
    ++ctx.stats.retired;
    return true;
}

void
Core::popHead(Context &ctx)
{
    const std::uint64_t seq = ctx.rob.headPos();
    ctx.rob.popFront();
    if (!ctx.stores.empty() && ctx.stores.front() == seq)
        ctx.stores.popFront();
    // The barrier retired: issue now runs up to the next one.
    if (ctx.barrierSeq == seq)
        findBarrier(ctx);
}

void
Core::findBarrier(Context &ctx)
{
    ctx.barrierSeq = kNoSeq;
    for (std::uint64_t s = ctx.rob.headPos(); s < ctx.rob.endPos(); ++s) {
        if (isBarrier(ctx.rob.at(s))) {
            ctx.barrierSeq = s;
            break;
        }
    }
}

bool
Core::doRetire()
{
    bool any = false;
    for (unsigned ctx_id = 0; ctx_id < contexts_.size(); ++ctx_id) {
        for (unsigned n = 0; n < kRetireWidth; ++n) {
            if (!retireOne(ctx_id))
                break;
            any = true;
        }
    }
    return any;
}

void
Core::handleFaultAtHead(unsigned ctx_id, const RobEntry &head)
{
    Context &ctx = contexts_[ctx_id];
    ++ctx.stats.pageFaults;

    if (obs::tracing(obs_))
        traceEvent(obs::EventKind::PageFault, ctx_id, 0, head.faultVa);

    const FaultInfo info{ctx_id, head.faultVa, head.pc,
                         head.dec->isStore()};

    if (ctx.inTx) {
        // A fault inside a transaction aborts it instead of trapping
        // (TSX semantics; the basis of the T-SGX defense, §8).
        doTxAbort(ctx_id);
        return;
    }

    squashAll(ctx_id);
    ctx.fetchPc = head.pc;  // Precise: re-execute the faulting op.
    ctx.fetchStopped = false;
    if (config_.fenceOnPipelineFlush)
        ctx.serializeNext = true;

    if (!faultHandler_)
        panic("page fault at pc %llu va %#llx with no handler installed",
              static_cast<unsigned long long>(info.pc),
              static_cast<unsigned long long>(info.va));
    faultHandler_(info);
}

void
Core::executeMemOp(unsigned ctx_id, RobEntry &entry, Cycles &latency)
{
    Context &ctx = contexts_[ctx_id];
    const Instruction &inst = entry.dec->inst;
    const DecodedInst &dec = *entry.dec;

    std::uint64_t base = 0;
    resolveSource(ctx, entry.dep1, inst.rs1, false, base);
    const VAddr va = base + static_cast<std::uint64_t>(inst.imm);

    latency += kAguLatency;

    const vm::TranslateResult xlate =
        mmu_.translate(va, ctx.pcid, ctx.ptRoot);
    latency += xlate.latency;

    if (memProbe_)
        memProbe_(ctx_id, va, xlate.fault ? 0 : xlate.paddr,
                  dec.isStore(), xlate.fault);

    if (xlate.fault) {
        entry.faulted = true;
        entry.faultVa = va;
        return;
    }

    const unsigned len = (inst.op == Op::Ld32 || inst.op == Op::St32)
        ? 4 : 8;

    if (dec.isStore()) {
        entry.storeResolved = true;
        entry.storeVa = va;
        entry.storePa = xlate.paddr;
        entry.storeLen = len;
        std::uint64_t value = 0;
        if (resolveSource(ctx, entry.dep2, inst.rs2,
                          dec.readsFp2(), value)) {
            entry.storeDataResolved = true;
            entry.storeValue =
                (len == 4) ? (value & 0xFFFFFFFFull) : value;
        }
        latency += 1;
        return;
    }

    // Load.  The youngest older store that overlaps it decides: an
    // exact match (same address and width) forwards its value whole;
    // any other overlap, or none, reads memory and byte-merges every
    // overlapping older store (retired transactional stores first,
    // then in-flight stores in program order), which handles
    // partial-width overlap precisely.  issueReady has already made
    // every older store's address, and every overlapping one's data,
    // known.
    const StoreQueue &stores = ctx.stores;
    std::uint64_t older_end = stores.endPos();
    while (older_end > stores.headPos() &&
           stores.at(older_end - 1) > entry.seq)
        --older_end;
    for (std::uint64_t pos = older_end; pos-- > stores.headPos();) {
        const RobEntry &older = ctx.rob.at(stores.at(pos));
        if (!older.storeDataResolved ||
            !overlaps(older.storeVa, older.storeLen, va, len))
            continue;
        if (older.storeVa == va && older.storeLen == len) {
            entry.result = older.storeValue;
            latency += kForwardLatency;
            return;
        }
        break;
    }

    const mem::AccessResult access = hierarchy_.access(xlate.paddr);
    latency += access.latency;
    std::uint64_t value = mem_.read(xlate.paddr, len);

    auto merge_bytes = [&](std::uint64_t store_base,
                           std::uint64_t store_value,
                           unsigned store_len,
                           std::uint64_t load_base) {
        bool merged = false;
        for (unsigned i = 0; i < store_len; ++i) {
            const std::uint64_t byte_addr = store_base + i;
            if (byte_addr < load_base || byte_addr >= load_base + len)
                continue;
            const unsigned shift =
                static_cast<unsigned>(byte_addr - load_base) * 8;
            value = (value & ~(0xFFull << shift)) |
                    (((store_value >> (8 * i)) & 0xFF) << shift);
            merged = true;
        }
        return merged;
    };

    bool forwarded = false;
    for (const TxStore &store : ctx.txStores)
        forwarded |= merge_bytes(store.pa, store.value, store.len,
                                 xlate.paddr);
    for (std::uint64_t pos = stores.headPos(); pos < older_end; ++pos) {
        const RobEntry &older = ctx.rob.at(stores.at(pos));
        if (!older.storeDataResolved)
            continue;
        forwarded |= merge_bytes(older.storeVa, older.storeValue,
                                 older.storeLen, va);
    }
    if (forwarded)
        latency += kForwardLatency;
    entry.result = value;
}

void
Core::executeEntry(unsigned ctx_id, RobEntry &entry, Cycles &latency)
{
    Context &ctx = contexts_[ctx_id];
    const Instruction &inst = entry.dec->inst;
    const DecodedInst &dec = *entry.dec;

    std::uint64_t s1 = 0;
    std::uint64_t s2 = 0;
    if (dec.readsSrc1())
        resolveSource(ctx, entry.dep1, inst.rs1, dec.readsFp1(), s1);
    if (dec.readsSrc2())
        resolveSource(ctx, entry.dep2, inst.rs2, dec.readsFp2(), s2);

    latency = kAluLatency;

    switch (inst.op) {
      case Op::Nop:
      case Op::Fence:
      case Op::Txbegin:
      case Op::Txend:
      case Op::Halt:
        break;
      case Op::Movi:
        entry.result = static_cast<std::uint64_t>(inst.imm);
        break;
      case Op::Mov:
        entry.result = s1;
        break;
      case Op::Add:
        entry.result = s1 + s2;
        break;
      case Op::Addi:
        entry.result = s1 + static_cast<std::uint64_t>(inst.imm);
        break;
      case Op::Sub:
        entry.result = s1 - s2;
        break;
      case Op::And:
        entry.result = s1 & s2;
        break;
      case Op::Andi:
        entry.result = s1 & static_cast<std::uint64_t>(inst.imm);
        break;
      case Op::Or:
        entry.result = s1 | s2;
        break;
      case Op::Xor:
        entry.result = s1 ^ s2;
        break;
      case Op::Shli:
        entry.result = s1 << (inst.imm & 63);
        break;
      case Op::Shri:
        entry.result = s1 >> (inst.imm & 63);
        break;
      case Op::Mul:
        entry.result = s1 * s2;
        latency = kMulLatency;
        break;
      case Op::Div:
        entry.result = s2 ? s1 / s2 : ~std::uint64_t{0};
        latency = config_.divLatency;
        break;
      case Op::Fmovi:
        entry.result = static_cast<std::uint64_t>(inst.imm);
        break;
      case Op::Fmov:
        entry.result = s1;
        break;
      case Op::Fadd:
        entry.result = asBits(asDouble(s1) + asDouble(s2));
        latency = kFmulLatency;
        break;
      case Op::Fmul:
        entry.result = asBits(asDouble(s1) * asDouble(s2));
        latency = kFmulLatency;
        break;
      case Op::Fdiv: {
        const double a = asDouble(s1);
        const double b = asDouble(s2);
        const double q = a / b;
        entry.result = asBits(q);
        latency = (isSubnormal(a) || isSubnormal(b) || isSubnormal(q))
            ? kFdivSubnormalLatency
            : config_.fdivLatency;
        break;
      }
      case Op::Ld:
      case Op::Ld32:
      case Op::Ldf:
      case Op::St:
      case Op::St32:
      case Op::Stf:
        latency = 0;
        executeMemOp(ctx_id, entry, latency);
        break;
      case Op::Jmp:
        entry.actualTaken = true;
        break;
      case Op::Beq:
        entry.actualTaken = s1 == s2;
        break;
      case Op::Bne:
        entry.actualTaken = s1 != s2;
        break;
      case Op::Blt:
        entry.actualTaken = static_cast<std::int64_t>(s1) <
                            static_cast<std::int64_t>(s2);
        break;
      case Op::Bge:
        entry.actualTaken = static_cast<std::int64_t>(s1) >=
                            static_cast<std::int64_t>(s2);
        break;
      case Op::Rdtsc:
        entry.result = cycle_;
        latency = kRdtscLatency;
        break;
      case Op::Rdrand:
        if (rdrandSource_) {
            entry.result = rdrandSource_();
        } else {
            settleDraws();
            entry.result = rng_.next();
        }
        latency = kRdrandLatency;
        break;
    }

    if (latency == 0)
        latency = 1;
}

bool
Core::issueReady(const Context &ctx, const RobEntry &entry) const
{
    const Instruction &inst = entry.dec->inst;
    const DecodedInst &dec = *entry.dec;

    // Operand readiness, kept by wakeup (watchSource/completeEntry).
    if (entry.pendingSrcs != 0)
        return false;

    // Load ordering hazards: wait while any older store's address is
    // still unknown (addresses resolve within a few cycles), or while
    // an older overlapping store's *data* has not been produced yet.
    if (dec.isLoad()) {
        std::uint64_t base = 0;
        resolveSource(ctx, entry.dep1, inst.rs1, false, base);
        const VAddr load_va =
            base + static_cast<std::uint64_t>(inst.imm);
        const unsigned load_len = inst.op == Op::Ld32 ? 4 : 8;
        const StoreQueue &stores = ctx.stores;
        for (std::uint64_t pos = stores.headPos();
             pos < stores.endPos() && stores.at(pos) < entry.seq; ++pos) {
            const RobEntry &other = ctx.rob.at(stores.at(pos));
            if (other.faulted)
                continue;
            if (!other.storeResolved)
                return false;
            if (!other.storeDataResolved &&
                overlaps(other.storeVa, other.storeLen, load_va, load_len))
                return false;
        }
    }
    return true;
}

bool
Core::tryIssue(unsigned ctx_id, RobEntry &entry)
{
    Context &ctx = contexts_[ctx_id];
    const Instruction &inst = entry.dec->inst;
    const DecodedInst &dec = *entry.dec;

    // Port availability (shared across SMT contexts — the contention
    // channel) is the cheaper test, so it goes first.  A port conflict
    // is traced only for an entry issueReady clears, which keeps traced
    // event logs independent of the test order.
    const PortChoices choices = dec.ports;
    unsigned port = numPorts;
    if (choices.first != 0xFF && ports_.canIssue(choices.first, cycle_))
        port = choices.first;
    else if (choices.second != 0xFF &&
             ports_.canIssue(choices.second, cycle_))
        port = choices.second;
    if (port == numPorts) {
        if (obs::tracing(obs_) && issueReady(ctx, entry))
            traceEvent(obs::EventKind::PortConflict, ctx_id,
                       static_cast<std::uint16_t>(inst.op), entry.pc);
        return false;
    }
    if (!issueReady(ctx, entry))
        return false;

    Cycles latency = 0;
    executeEntry(ctx_id, entry, latency);

    // Fault-layer port jitter: long-latency arithmetic (the paper's
    // contention channel) picks up deterministic extra cycles.  The
    // hook draws from the injector's stream, never from rng_ (whose
    // per-cycle draws fastForwardTo discards in bulk).
    if (issueJitter_ && dec.jitterable())
        latency += issueJitter_(ctx_id);

    if (obs::tracing(obs_))
        traceEvent(obs::EventKind::SpecIssue, ctx_id,
                   static_cast<std::uint16_t>(inst.op), entry.pc);

    ports_.occupy(port, cycle_, latency, dec.unpipelined());
    entry.state = RobEntry::State::Executing;
    entry.finishCycle = cycle_ + latency;
    // Short latencies dominate, so the insertion point is near the
    // back: walking back to it takes about one step on the AES victim,
    // where a binary search mispredicted a branch per halving.
    const Completion done{entry.finishCycle, ctx_id, entry.seq};
    auto at = completions_.end();
    while (at != completions_.begin() && *(at - 1) < done)
        --at;
    completions_.insert(at, done);
    ++issuedThisCycle_;
    return true;
}

void
Core::doIssue()
{
    constexpr unsigned n = kNumContexts;
    // Randomized SMT priority: a fixed rotation can phase-lock with
    // even execution latencies (e.g., the 24-cycle divider) and
    // starve one context of a shared port indefinitely.  With fewer
    // than two Running contexts the order cannot matter, so the tick
    // owes the draw instead of taking it.
    unsigned start = 0;
    if (std::count_if(contexts_.begin(), contexts_.end(),
                      [](const Context &ctx) {
                          return ctx.state == CtxState::Running;
                      }) < 2) {
        ++owedDraws_;
    } else {
        settleDraws();
        start = static_cast<unsigned>(rng_.below(n));
    }
    for (unsigned offset = 0; offset < n; ++offset) {
        const unsigned ctx_id =
            start + offset < n ? start + offset : start + offset - n;
        Context &ctx = contexts_[ctx_id];
        if (ctx.state != CtxState::Running)
            continue;
        // Oldest ready entry first.  Barriers block younger issue
        // until they retire (i.e., leave the ROB).  Issued entries
        // leave the ready list; the rest keep their order.
        std::vector<std::uint64_t> &ready = ctx.ready;
        std::size_t kept = 0;
        std::size_t i = 0;
        for (; i < ready.size() && ready[i] <= ctx.barrierSeq; ++i) {
            if (issuedThisCycle_ >= kIssueWidth)
                break;
            if (!tryIssue(ctx_id, ctx.rob.at(ready[i])))
                ready[kept++] = ready[i];
        }
        ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(kept),
                    ready.begin() + static_cast<std::ptrdiff_t>(i));
        if (issuedThisCycle_ >= kIssueWidth)
            return;
    }
}

bool
Core::isBarrier(const RobEntry &entry) const
{
    return entry.dec->isBarrier(config_.rdrandSerializing) ||
           entry.flushBarrier;
}

void
Core::watchSource(Context &ctx, RobEntry &consumer, unsigned src,
                  std::int64_t dep)
{
    if (dep < 0)
        return;
    RobEntry *producer = ctx.rob.find(static_cast<std::uint64_t>(dep));
    // Retired (the regfile holds it) or done: the value is there.
    if (!producer || (producer->state == RobEntry::State::Done &&
                      !producer->faulted)) {
        return;
    }
    ++consumer.pendingSrcs;
    // A faulted producer wakes no one; the consumer waits for the
    // squash.
    if (producer->state == RobEntry::State::Done)
        return;
    consumer.nextWaiter[src] = producer->firstWaiter;
    producer->firstWaiter = 2 * consumer.seq + src;
}

void
Core::dispatchOne(unsigned ctx_id)
{
    Context &ctx = contexts_[ctx_id];
    // One memoized decode lookup yields the instruction, its flags and
    // its ports; the pointer stays valid for the entry's whole ROB
    // lifetime (the stream is owned by ctx.program, which outlives the
    // ROB).
    const DecodedInst &dec = ctx.stream->at(ctx.fetchPc);
    const Instruction &inst = dec.inst;

    const std::uint64_t seq = ctx.rob.endPos();
    RobEntry &entry = ctx.rob.push();
    entry.seq = seq;
    entry.dec = &dec;
    entry.pc = ctx.fetchPc;
    if (ctx.serializeNext) {
        entry.flushBarrier = true;
        ctx.serializeNext = false;
    }

    if (dec.readsSrc1()) {
        entry.dep1 = dec.readsFp1() ? ctx.lastFpWriter[inst.rs1]
                                    : ctx.lastIntWriter[inst.rs1];
    }
    if (dec.readsSrc2()) {
        entry.dep2 = dec.readsFp2() ? ctx.lastFpWriter[inst.rs2]
                                    : ctx.lastIntWriter[inst.rs2];
    }
    // Stores are two-phase: the address (rs1) must be ready at issue,
    // but the data (rs2) may arrive as late as retirement — mirroring
    // separate STA/STD micro-ops — so only the address is gated.
    if (dec.readsSrc1())
        watchSource(ctx, entry, 0, entry.dep1);
    if (dec.readsSrc2() && !dec.isStore())
        watchSource(ctx, entry, 1, entry.dep2);
    if (entry.pendingSrcs == 0)
        ctx.ready.push_back(entry.seq);
    if (ctx.barrierSeq == kNoSeq && isBarrier(entry))
        ctx.barrierSeq = entry.seq;
    if (dec.isStore())
        ctx.stores.push() = entry.seq;

    // Next-fetch PC: branches predicted at fetch; Halt stops fetch.
    if (dec.isCondBranch()) {
        entry.predictedTaken =
            predictor_.predict(biasedPc(ctx, ctx.fetchPc));
        ctx.fetchPc = entry.predictedTaken ? inst.target
                                           : ctx.fetchPc + 1;
    } else if (dec.isJmp()) {
        entry.actualTaken = true;
        ctx.fetchPc = inst.target;
    } else if (dec.isHalt()) {
        ctx.fetchStopped = true;
    } else {
        ++ctx.fetchPc;
    }

    if (dec.writesInt())
        ctx.lastIntWriter[inst.rd] = static_cast<std::int64_t>(entry.seq);
    if (dec.writesFp())
        ctx.lastFpWriter[inst.rd] = static_cast<std::int64_t>(entry.seq);

    ++ctx.stats.fetched;
}

bool
Core::doFetch()
{
    // The fetch group: slot s goes to the first context, rotating from
    // (cycle + s) mod n, that can still dispatch.  Only a context's own
    // dispatch changes whether it can, so a slot nobody takes ends the
    // group.  One rotation start per cycle, a mask of the power of two
    // context count; the rotation then wraps.
    constexpr unsigned n = kNumContexts;
    unsigned first = static_cast<unsigned>(cycle_ & (n - 1));
    for (unsigned slot = 0; slot < kFetchWidth; ++slot) {
        unsigned ctx_id = first;
        unsigned offset = 0;
        for (; offset < n; ++offset) {
            const Context &ctx = contexts_[ctx_id];
            if (ctx.state == CtxState::Running && ctx.program &&
                !ctx.fetchStopped &&
                ctx.rob.size() < config_.robPerContext) {
                dispatchOne(ctx_id);
                break;
            }
            if (++ctx_id == n)
                ctx_id = 0;
        }
        if (offset == n)
            return slot != 0;
        if (++first == n)
            first = 0;
    }
    return true;
}

} // namespace uscope::cpu
