#include "os/kernel.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace uscope::os
{

Kernel::Kernel(mem::PhysMem &mem, mem::Hierarchy &hierarchy,
               vm::Mmu &mmu, cpu::Core &core, const KernelCosts &costs,
               std::uint64_t seed)
    : mem_(mem), hierarchy_(hierarchy), mmu_(mmu), core_(core),
      costs_(costs), rng_(seed),
      frames_(/*base_ppn=*/1, mem.size() / pageSize - 1)
{
}

void
Kernel::copyStateFrom(const Kernel &other)
{
    rng_ = other.rng_;
    frames_.copyStateFrom(other.frames_);
    processes_.clear();
    processes_.reserve(other.processes_.size());
    for (const Process &src : other.processes_) {
        Process p;
        p.pid = src.pid;
        p.name = src.name;
        // Rebind the table over this kernel's memory/frames; the tree
        // bytes themselves arrived with the copied PhysMem.
        p.pageTable = std::make_unique<vm::PageTable>(mem_, frames_,
                                                      *src.pageTable);
        p.pcid = src.pcid;
        p.pcBias = src.pcBias;
        p.nextVa = src.nextVa;
        p.enclaves = src.enclaves;
        p.faultCount = src.faultCount;
        p.boundCtx = src.boundCtx;
        processes_.push_back(std::move(p));
    }
    module_ = nullptr;
    inHandler_ = other.inHandler_;
    handlerBudget_ = other.handlerBudget_;
    handlerCycles_ = other.handlerCycles_;
    totalFaults_ = other.totalFaults_;
    handlerLatency_ = other.handlerLatency_;
}

Kernel::Process &
Kernel::processOf(Pid pid)
{
    for (Process &proc : processes_)
        if (proc.pid == pid)
            return proc;
    panic("Kernel: unknown pid %u", pid);
}

const Kernel::Process &
Kernel::processOf(Pid pid) const
{
    return const_cast<Kernel *>(this)->processOf(pid);
}

Kernel::Process *
Kernel::processOnCtx(unsigned ctx)
{
    for (Process &proc : processes_)
        if (proc.boundCtx && *proc.boundCtx == ctx)
            return &proc;
    return nullptr;
}

Pid
Kernel::createProcess(const std::string &name)
{
    Process proc;
    proc.pid = static_cast<Pid>(processes_.size() + 1);
    proc.name = name;
    proc.pageTable = std::make_unique<vm::PageTable>(mem_, frames_);
    proc.pcid = static_cast<Pcid>(proc.pid);
    // Distinct text bases so victim and monitor branches do not alias
    // in the shared predictor by accident (the attacker knows them).
    proc.pcBias = std::uint64_t{proc.pid} << 20;
    proc.nextVa = 0x10000;
    processes_.push_back(std::move(proc));
    return processes_.back().pid;
}

VAddr
Kernel::allocVirtual(Pid pid, std::uint64_t size)
{
    Process &proc = processOf(pid);
    const VAddr base = proc.nextVa;
    const std::uint64_t npages = (size + pageSize - 1) / pageSize;
    for (std::uint64_t i = 0; i < npages; ++i)
        mapPage(pid, pageNumber(base) + i);
    // Guard page between regions keeps replay handles and pivots on
    // provably distinct pages.
    proc.nextVa = base + (npages + 1) * pageSize;
    return base;
}

void
Kernel::mapPage(Pid pid, Vpn vpn)
{
    Process &proc = processOf(pid);
    const Ppn ppn = frames_.alloc();
    mem_.zeroPage(ppn);
    proc.pageTable->map(vpn, ppn,
                        vm::pte::present | vm::pte::writable |
                        vm::pte::user);
}

void
Kernel::declareEnclave(Pid pid, VAddr base, std::uint64_t len)
{
    processOf(pid).enclaves.emplace_back(base, len);
}

bool
Kernel::inEnclave(Pid pid, VAddr va) const
{
    for (const auto &[base, len] : processOf(pid).enclaves)
        if (va >= base && va < base + len)
            return true;
    return false;
}

bool
Kernel::writeVirtual(Pid pid, VAddr va, const void *src,
                     std::uint64_t len)
{
    if (inEnclave(pid, va) || (len && inEnclave(pid, va + len - 1)))
        return false;  // SGX: supervisor cannot write enclave memory.
    const Process &proc = processOf(pid);
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    std::uint64_t done = 0;
    while (done < len) {
        const VAddr cur = va + done;
        const auto ppn = proc.pageTable->lookupPpn(cur);
        if (!ppn)
            return false;
        const std::uint64_t in_page =
            std::min<std::uint64_t>(len - done,
                                    pageSize - (cur & pageOffsetMask));
        mem_.writeBytes((*ppn << pageShift) | (cur & pageOffsetMask),
                        bytes + done, in_page);
        done += in_page;
    }
    return true;
}

bool
Kernel::readVirtual(Pid pid, VAddr va, void *dst,
                    std::uint64_t len) const
{
    if (inEnclave(pid, va) || (len && inEnclave(pid, va + len - 1)))
        return false;  // SGX: supervisor cannot read enclave memory.
    const Process &proc = processOf(pid);
    auto *bytes = static_cast<std::uint8_t *>(dst);
    std::uint64_t done = 0;
    while (done < len) {
        const VAddr cur = va + done;
        const auto ppn = proc.pageTable->lookupPpn(cur);
        if (!ppn)
            return false;
        const std::uint64_t in_page =
            std::min<std::uint64_t>(len - done,
                                    pageSize - (cur & pageOffsetMask));
        mem_.readBytes((*ppn << pageShift) | (cur & pageOffsetMask),
                       bytes + done, in_page);
        done += in_page;
    }
    return true;
}

std::optional<PAddr>
Kernel::translate(Pid pid, VAddr va) const
{
    const auto ppn = processOf(pid).pageTable->lookupPpn(va);
    if (!ppn)
        return std::nullopt;
    return (*ppn << pageShift) | (va & pageOffsetMask);
}

void
Kernel::startOnContext(Pid pid, unsigned ctx,
                       std::shared_ptr<const cpu::Program> program,
                       std::uint64_t entry)
{
    Process &proc = processOf(pid);
    proc.boundCtx = ctx;
    core_.startContext(ctx, std::move(program), entry, proc.pcid,
                       proc.pageTable->root(), proc.pcBias);
}

vm::PageTable &
Kernel::pageTable(Pid pid)
{
    return *processOf(pid).pageTable;
}

Pcid
Kernel::pcidOf(Pid pid) const
{
    return processOf(pid).pcid;
}

std::uint64_t
Kernel::pcBiasOf(Pid pid) const
{
    return processOf(pid).pcBias;
}

std::uint64_t
Kernel::faultCount(Pid pid) const
{
    return processOf(pid).faultCount;
}

void
Kernel::registerModule(FaultModule *module)
{
    module_ = module;
}

void
Kernel::chargeCycles(Cycles cycles)
{
    if (inHandler_)
        handlerBudget_ += cycles;
}

vm::SoftWalkResult
Kernel::softwareWalk(Pid pid, VAddr va)
{
    chargeCycles(kSoftwareWalkCost);
    return processOf(pid).pageTable->softwareWalk(va);
}

void
Kernel::setPresent(Pid pid, VAddr va, bool present)
{
    processOf(pid).pageTable->setPresent(va, present);
    chargeCycles(kSoftwareWalkCost);
}

void
Kernel::flushTranslationEntries(Pid pid, VAddr va)
{
    Process &proc = processOf(pid);
    const vm::SoftWalkResult walk = proc.pageTable->softwareWalk(va);
    for (unsigned lvl = 0; lvl < walk.levelsValid; ++lvl) {
        hierarchy_.flushLine(walk.entryAddrs[lvl]);
        core_.notifyLineEvicted(walk.entryAddrs[lvl]);
        chargeCycles(kClflushCost);
    }
    mmu_.flushPwc(va, proc.pcid);
    chargeCycles(kPwcFlushCost);
}

void
Kernel::invlpg(Pid pid, VAddr va)
{
    mmu_.invlpg(va, processOf(pid).pcid);
    chargeCycles(kInvlpgCost);
}

void
Kernel::flushDataLine(Pid pid, VAddr va)
{
    if (auto pa = translate(pid, va))
        flushPhysLine(*pa);
}

void
Kernel::flushPhysLine(PAddr pa)
{
    hierarchy_.flushLine(pa);
    core_.notifyLineEvicted(pa);
    chargeCycles(kClflushCost);
}

void
Kernel::installPhysAt(PAddr pa, mem::HitLevel level)
{
    hierarchy_.installAt(pa, level);
    if (level == mem::HitLevel::Dram)
        core_.notifyLineEvicted(pa);
    chargeCycles(kInstallLineCost);
}

void
Kernel::installPtEntryAt(Pid pid, VAddr va, vm::Level pt_level,
                         mem::HitLevel cache_level)
{
    const vm::SoftWalkResult walk =
        processOf(pid).pageTable->softwareWalk(va);
    const unsigned lvl = static_cast<unsigned>(pt_level);
    if (lvl >= walk.levelsValid)
        panic("installPtEntryAt: level %u not mapped for va %#llx",
              lvl, static_cast<unsigned long long>(va));
    installPhysAt(walk.entryAddrs[lvl], cache_level);
}

void
Kernel::prefillPwc(Pid pid, VAddr va, unsigned fetch_levels)
{
    if (fetch_levels < 1 || fetch_levels > vm::numLevels)
        panic("prefillPwc: bad fetch_levels %u", fetch_levels);
    Process &proc = processOf(pid);
    mmu_.flushPwc(va, proc.pcid);
    chargeCycles(kPwcFlushCost);
    const vm::SoftWalkResult walk = proc.pageTable->softwareWalk(va);
    for (unsigned lvl = 0; lvl + fetch_levels < vm::numLevels; ++lvl) {
        if (lvl >= walk.levelsValid)
            panic("prefillPwc: level %u unmapped for va %#llx", lvl,
                  static_cast<unsigned long long>(va));
        const std::uint64_t entry = mem_.read64(walk.entryAddrs[lvl]);
        const PAddr next_table = vm::entryPpn(entry) << pageShift;
        mmu_.pwc().insert(va, proc.pcid, static_cast<vm::Level>(lvl),
                          next_table);
        chargeCycles(kInstallLineCost);
    }
}

void
Kernel::primeRange(PAddr pa, std::uint64_t len)
{
    const PAddr first = lineBase(pa);
    const PAddr last = lineBase(pa + (len ? len - 1 : 0));
    for (PAddr line = first; line <= last; line += lineSize) {
        hierarchy_.flushLine(line);
        core_.notifyLineEvicted(line);
        chargeCycles(kInstallLineCost);
    }
}

ProbeResult
Kernel::timedProbePhys(PAddr pa)
{
    const mem::AccessResult access = hierarchy_.access(pa);
    const Cycles overhead = kProbeOverhead + rng_.range(0, kProbeJitter) +
                            (probeNoise_ ? probeNoise_() : 0);
    const Cycles latency = access.latency + overhead;
    chargeCycles(latency);
    if (obs::tracing(obs_))
        obs_->trace.record(obs::EventKind::Probe,
                           static_cast<std::uint8_t>(access.level),
                           static_cast<std::uint16_t>(latency),
                           lineBase(pa));
    return {latency, access.level};
}

ProbeResult
Kernel::timedProbe(Pid pid, VAddr va)
{
    const auto pa = translate(pid, va);
    if (!pa)
        panic("timedProbe: va %#llx unmapped",
              static_cast<unsigned long long>(va));
    return timedProbePhys(*pa);
}

void
Kernel::signalMonitor()
{
    chargeCycles(kSignalMonitorCost);
}

void
Kernel::handleFault(const cpu::FaultInfo &info)
{
    ++totalFaults_;
    Process *proc = processOnCtx(info.ctx);
    if (!proc)
        panic("page fault on context %u with no bound process",
              info.ctx);
    ++proc->faultCount;

    const bool enclave = inEnclave(proc->pid, info.va);
    PageFaultEvent event;
    event.pid = proc->pid;
    event.ctx = info.ctx;
    // AEX: enclave faults expose only the VPN to the OS (§2.3).
    event.va = enclave ? pageBase(info.va) : info.va;
    event.pc = info.pc;
    event.isStore = info.isStore;
    event.inEnclave = enclave;
    event.faultIndex = proc->faultCount;

    inHandler_ = true;
    handlerBudget_ = costs_.faultBase;

    const bool handled = module_ && module_->onPageFault(event);
    if (!handled) {
        // Default demand-paging policy.
        const vm::SoftWalkResult walk = softwareWalk(proc->pid, info.va);
        if (walk.mapped && !(walk.leafEntry & vm::pte::present)) {
            setPresent(proc->pid, info.va, true);
            invlpg(proc->pid, info.va);
        } else if (!walk.mapped) {
            // Fresh demand allocation (heap growth).
            mapPage(proc->pid, pageNumber(info.va));
            invlpg(proc->pid, info.va);
        }
    }

    inHandler_ = false;
    handlerCycles_ += handlerBudget_;
    handlerLatency_.add(static_cast<double>(handlerBudget_));
    core_.stallContext(info.ctx, handlerBudget_);
}

void
Kernel::exportMetrics(obs::MetricRegistry &registry) const
{
    static const obs::MetricName faultsTotal{"os.faults.total"};
    static const obs::MetricName handlerCycles{"os.faults.handler_cycles"};
    static const obs::MetricName handlerLatency{"os.faults.handler_latency"};
    static const obs::MetricName tablePages{"vm.page_table.table_pages"};
    static const obs::MetricName maps{"vm.page_table.maps"};
    static const obs::MetricName unmaps{"vm.page_table.unmaps"};
    static const obs::MetricName softwareWalks{"vm.page_table.software_walks"};
    static const obs::MetricName presentToggles{
        "vm.page_table.present_toggles"};
    registry.counter(faultsTotal).set(totalFaults_);
    registry.counter(handlerCycles).set(handlerCycles_);
    registry.latency(handlerLatency).fold(handlerLatency_);

    vm::PageTableStats tables;
    for (const Process &proc : processes_) {
        const vm::PageTableStats &stats = proc.pageTable->stats();
        tables.tablePages += stats.tablePages;
        tables.maps += stats.maps;
        tables.unmaps += stats.unmaps;
        tables.softwareWalks += stats.softwareWalks;
        tables.presentToggles += stats.presentToggles;
    }
    registry.counter(tablePages).set(tables.tablePages);
    registry.counter(maps).set(tables.maps);
    registry.counter(unmaps).set(tables.unmaps);
    registry.counter(softwareWalks).set(tables.softwareWalks);
    registry.counter(presentToggles).set(tables.presentToggles);
}

} // namespace uscope::os
