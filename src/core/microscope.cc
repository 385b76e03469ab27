#include "core/microscope.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace uscope::ms
{

PageWalkPlan
PageWalkPlan::longest()
{
    return PageWalkPlan{};
}

PageWalkPlan
PageWalkPlan::shortest()
{
    PageWalkPlan plan;
    plan.levels.fill(mem::HitLevel::L1);
    plan.fetchLevels = 1;
    return plan;
}

PageWalkPlan
PageWalkPlan::uniform(mem::HitLevel level, unsigned fetch_levels)
{
    PageWalkPlan plan;
    plan.levels.fill(level);
    plan.fetchLevels = fetch_levels;
    return plan;
}

Microscope::Microscope(os::Machine &machine)
    : machine_(machine), kernel_(machine.kernel())
{
    kernel_.registerModule(this);
}

Microscope::~Microscope()
{
    kernel_.registerModule(nullptr);
}

void
Microscope::provideReplayHandle(os::Pid pid, VAddr addr)
{
    recipe_.victim = pid;
    recipe_.replayHandle = addr;
}

void
Microscope::providePivot(VAddr addr)
{
    if (recipe_.victim == 0)
        fatal("providePivot: provide a replay handle (and pid) first");
    if (pageBase(addr) == pageBase(recipe_.replayHandle))
        fatal("providePivot: pivot must map to a different page than "
              "the replay handle (§4.2.2)");
    recipe_.pivot = addr;
}

void
Microscope::provideMonitorAddr(VAddr addr)
{
    recipe_.monitorAddrs.push_back(addr);
}

void
Microscope::initiatePageWalk(VAddr addr, unsigned length,
                             mem::HitLevel where)
{
    if (recipe_.victim == 0)
        fatal("initiatePageWalk: no victim process selected");
    if (length < 1 || length > vm::numLevels)
        fatal("initiatePageWalk: length must be 1..4, got %u", length);
    kernel_.invlpg(recipe_.victim, addr);
    kernel_.prefillPwc(recipe_.victim, addr, length);
    for (unsigned lvl = vm::numLevels - length; lvl < vm::numLevels;
         ++lvl) {
        kernel_.installPtEntryAt(recipe_.victim, addr,
                                 static_cast<vm::Level>(lvl), where);
    }
}

void
Microscope::initiatePageFault(VAddr addr)
{
    if (recipe_.victim == 0)
        fatal("initiatePageFault: no victim process selected");
    kernel_.setPresent(recipe_.victim, addr, false);
    kernel_.flushTranslationEntries(recipe_.victim, addr);
    kernel_.invlpg(recipe_.victim, addr);
}

void
Microscope::setRecipe(AttackRecipe recipe)
{
    recipe_ = std::move(recipe);
    if (recipe_.pivot &&
        pageBase(*recipe_.pivot) == pageBase(recipe_.replayHandle)) {
        fatal("setRecipe: pivot and replay handle share a page");
    }
    snapPending_ = false;
    episodeSnap_ = os::Snapshot{};
}

std::uint16_t
Microscope::traceReplayCount() const
{
    // The trace event's b field is 16 bits; clamp instead of wrapping
    // (a denoise campaign's replay 65 537 must not masquerade as
    // replay 1).  Saturations are counted where the counter advances,
    // not here, so stats stay identical with tracing on or off.
    return replays_ > 0xffff ? std::uint16_t{0xffff}
                             : static_cast<std::uint16_t>(replays_);
}

void
Microscope::stageWalk(VAddr va, const PageWalkPlan &plan)
{
    kernel_.prefillPwc(recipe_.victim, va, plan.fetchLevels);
    for (unsigned lvl = vm::numLevels - plan.fetchLevels;
         lvl < vm::numLevels; ++lvl) {
        kernel_.installPtEntryAt(recipe_.victim, va,
                                 static_cast<vm::Level>(lvl),
                                 plan.levels[lvl]);
    }
}

void
Microscope::stageHandleWalk()
{
    stageWalk(recipe_.replayHandle, recipe_.walkPlan);
}

void
Microscope::armHandle()
{
    // §4.1.1 setup: flush the handle's data line, clear the present
    // bit, flush the four translation entries and the TLB entry, then
    // stage the walk at the recipe's chosen levels.
    kernel_.flushDataLine(recipe_.victim, recipe_.replayHandle);
    kernel_.setPresent(recipe_.victim, recipe_.replayHandle, false);
    kernel_.flushTranslationEntries(recipe_.victim,
                                    recipe_.replayHandle);
    kernel_.invlpg(recipe_.victim, recipe_.replayHandle);
    stageHandleWalk();
}

void
Microscope::releaseHandle()
{
    kernel_.setPresent(recipe_.victim, recipe_.replayHandle, true);
    kernel_.invlpg(recipe_.victim, recipe_.replayHandle);
    // Fast re-walk so the released access retires promptly and its
    // dependents execute inside the next armed page's window.
    stageWalk(recipe_.replayHandle, recipe_.releasePlan);
}

void
Microscope::armPivot()
{
    kernel_.setPresent(recipe_.victim, *recipe_.pivot, false);
    kernel_.flushTranslationEntries(recipe_.victim, *recipe_.pivot);
    kernel_.invlpg(recipe_.victim, *recipe_.pivot);
}

void
Microscope::releasePivot()
{
    kernel_.setPresent(recipe_.victim, *recipe_.pivot, true);
    kernel_.invlpg(recipe_.victim, *recipe_.pivot);
    stageWalk(*recipe_.pivot, recipe_.releasePlan);
}

void
Microscope::arm()
{
    if (recipe_.victim == 0 || recipe_.replayHandle == 0)
        fatal("arm: recipe needs a victim and a replay handle");
    armHandle();
    armed_ = true;
    replays_ = 0;
    // A fresh attack invalidates any episode snapshot still held from
    // the previous one.
    snapPending_ = false;
    episodeSnap_ = os::Snapshot{};
}

void
Microscope::disarm()
{
    if (!armed_)
        return;
    releaseHandle();
    if (recipe_.pivot)
        releasePivot();
    armed_ = false;
    replays_ = 0;
}

bool
Microscope::onPageFault(const os::PageFaultEvent &event)
{
    if (!armed_ || event.pid != recipe_.victim) {
        ++stats_.foreignFaults;
        return false;
    }

    const Vpn fault_vpn = pageNumber(event.va);

    if (fault_vpn == pageNumber(recipe_.replayHandle)) {
        ++stats_.handleFaults;
        ++stats_.totalReplays;
        ++replays_;
        if (replays_ > 0xffff)
            ++stats_.replayCounterSaturations;
        if (obs::tracing(&machine_.observer()))
            machine_.observer().trace.record(
                obs::EventKind::ReplayBoundary, /*handle=*/1,
                traceReplayCount(), stats_.episodes);
        const ReplayEvent replay{*this, event, replays_,
                                 stats_.episodes};

        bool more = replays_ < recipe_.confidence;
        if (recipe_.onReplay && !recipe_.onReplay(replay))
            more = false;

        if (more) {
            // Step 5: keep the present bit clear, re-flush the
            // translation path, and stage the next walk.
            kernel_.flushTranslationEntries(recipe_.victim,
                                            recipe_.replayHandle);
            kernel_.invlpg(recipe_.victim, recipe_.replayHandle);
            stageHandleWalk();
            if (recipe_.beforeResume)
                recipe_.beforeResume(replay);
            // Differential replay: the machine now sits exactly at
            // the replay handle (victim stalled in the handler, handle
            // re-armed) — a snapshot taken here re-enters the window
            // without the prefix.  The snapshot itself must wait for a
            // tick boundary (we are mid-retire); flag it for the
            // harness.
            if (recipe_.differentialReplay)
                snapPending_ = true;
            return true;
        }

        // Step 6: release the victim; optionally arm the pivot so the
        // next iteration's handle can be re-armed from its fault.
        // Arm before releasing: arming flushes the (shared) upper
        // page-table levels and PWC prefixes, which must not undo the
        // released page's fast-walk staging.
        if (obs::tracing(&machine_.observer()))
            machine_.observer().trace.record(
                obs::EventKind::EpisodeEnd, 0, traceReplayCount(),
                stats_.episodes);
        ++stats_.episodes;
        replays_ = 0;
        snapPending_ = false;  // The window this flag pointed at is over.
        if (recipe_.pivot &&
            (recipe_.maxEpisodes == 0 ||
             stats_.episodes < recipe_.maxEpisodes)) {
            armPivot();
        } else {
            armed_ = false;
        }
        releaseHandle();
        if (recipe_.onEpisodeEnd)
            recipe_.onEpisodeEnd(replay);
        return true;
    }

    if (recipe_.pivot && fault_vpn == pageNumber(*recipe_.pivot)) {
        ++stats_.pivotFaults;
        if (obs::tracing(&machine_.observer()))
            machine_.observer().trace.record(
                obs::EventKind::ReplayBoundary, /*pivot=*/2, 0,
                stats_.episodes);
        const ReplayEvent replay{*this, event, 0, stats_.episodes};
        if (recipe_.onPivot)
            recipe_.onPivot(replay);
        // §4.2.2: set the pivot present and clear the handle again
        // (arm first — see the ordering note above).
        armHandle();
        releasePivot();
        if (recipe_.beforeResume)
            recipe_.beforeResume(replay);
        return true;
    }

    ++stats_.foreignFaults;
    return false;
}

os::ProbeResult
Microscope::probeMonitorAddr(std::size_t idx)
{
    if (idx >= recipe_.monitorAddrs.size())
        panic("probeMonitorAddr: index %zu out of range", idx);
    return kernel_.timedProbe(recipe_.victim, recipe_.monitorAddrs[idx]);
}

std::vector<os::ProbeResult>
Microscope::probeAllMonitorAddrs()
{
    std::vector<os::ProbeResult> results;
    results.reserve(recipe_.monitorAddrs.size());
    for (VAddr addr : recipe_.monitorAddrs)
        results.push_back(kernel_.timedProbe(recipe_.victim, addr));
    return results;
}

void
Microscope::primeMonitorAddrs()
{
    for (VAddr addr : recipe_.monitorAddrs) {
        if (auto pa = kernel_.translate(recipe_.victim, addr)) {
            kernel_.flushPhysLine(*pa);
        }
    }
}

void
Microscope::takeEpisodeSnapshot()
{
    if (!snapPending_)
        fatal("takeEpisodeSnapshot: no snapshot point pending (set "
              "Recipe::differentialReplay and run to the first re-arm)");
    episodeSnap_ = machine_.snapshot();
    episodeSt_.armed = armed_;
    episodeSt_.replays = replays_;
    episodeSt_.stats = stats_;
    snapPending_ = false;
}

const os::Snapshot &
Microscope::episodeSnapshot() const
{
    if (!episodeSnap_.valid())
        fatal("episodeSnapshot: no episode snapshot captured");
    return episodeSnap_;
}

void
Microscope::adoptEpisodeState(const EpisodeState &state)
{
    // Machine restores wipe the kernel's fault-module registration
    // (modules are per-machine externals, not snapshot state, so
    // Kernel::copyStateFrom cannot know about this instance).  Re-
    // register here so the resumed episode's faults keep routing
    // through this engine instead of the kernel's default path.
    kernel_.registerModule(this);
    armed_ = state.armed;
    replays_ = state.replays;
    stats_ = state.stats;
    snapPending_ = false;
}

void
Microscope::restoreEpisode(std::uint64_t seed)
{
    restoreEpisodeFrom(episodeSnapshot(), episodeSt_, seed);
}

void
Microscope::restoreEpisodeFrom(const os::Snapshot &snap,
                               const EpisodeState &state,
                               std::uint64_t seed)
{
    // Order matters: restoreFrom rewinds every stream to snapshot-era
    // positions, then reseed() re-derives them (and re-anchors the
    // fault schedules) at the restored cycle — the same restore +
    // reseed pair the campaign executor uses per trial, one level
    // deeper.  The adopted EpisodeState makes this instance continue
    // the §4.1.4 loop exactly where the snapshotted one stood.
    machine_.restoreFrom(snap);
    machine_.reseed(seed);
    adoptEpisodeState(state);
}

void
Microscope::exportMetrics(obs::MetricRegistry &registry) const
{
    static const obs::MetricName replayed{"os.faults.replayed"};
    static const obs::MetricName episodes{"os.replay.episodes"};
    static const obs::MetricName handleFaults{"os.replay.handle_faults"};
    static const obs::MetricName pivotFaults{"os.replay.pivot_faults"};
    static const obs::MetricName foreignFaults{"os.replay.foreign_faults"};
    static const obs::MetricName saturations{"os.replay.counter_saturations"};
    registry.counter(replayed).set(stats_.totalReplays);
    registry.counter(episodes).set(stats_.episodes);
    registry.counter(handleFaults).set(stats_.handleFaults);
    registry.counter(pivotFaults).set(stats_.pivotFaults);
    registry.counter(foreignFaults).set(stats_.foreignFaults);
    registry.counter(saturations).set(stats_.replayCounterSaturations);
}

} // namespace uscope::ms
