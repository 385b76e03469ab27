/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: how fast
 * the substrate executes, so users can budget experiment sweeps.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>

#include <unistd.h>

#include "attack/monitor.hh"
#include "attack/victims.hh"
#include "core/microscope.hh"
#include "cpu/program.hh"
#include "crypto/aes.hh"
#include "crypto/aes_codegen.hh"
#include "exp/campaign.hh"
#include "exp/checkpoint.hh"
#include "mem/phys_mem.hh"
#include "obs/metrics.hh"
#include "os/machine.hh"
#include "svc/client.hh"
#include "svc/daemon.hh"
#include "svc/registry.hh"
#include "svc/worker.hh"

using namespace uscope;

namespace
{

std::shared_ptr<const cpu::Program>
share(cpu::Program program)
{
    return std::make_shared<const cpu::Program>(std::move(program));
}

void
BM_CoreTickIdle(benchmark::State &state)
{
    os::Machine machine;
    for (auto _ : state)
        machine.tick();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreTickIdle);

void
BM_AluLoopThroughput(benchmark::State &state)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const os::Pid pid = kernel.createProcess("p");
    cpu::ProgramBuilder b;
    b.movi(1, 0)
        .movi(2, 1'000'000'000)
        .label("loop")
        .addi(1, 1, 1)
        .addi(3, 3, 2)
        .xor_(4, 1, 3)
        .blt(1, 2, "loop")
        .halt();
    kernel.startOnContext(pid, 0, share(b.build()));
    std::uint64_t retired = 0;
    for (auto _ : state) {
        machine.tick();
        ++retired;
    }
    state.counters["retired/cycle"] = benchmark::Counter(
        static_cast<double>(machine.core().stats(0).retired) /
        static_cast<double>(retired));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AluLoopThroughput);

void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    mem::Hierarchy hierarchy;
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            hierarchy.access(rng.below(1 << 20) * lineSize));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyAccess);

void
BM_FullPageWalk(benchmark::State &state)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const os::Pid pid = kernel.createProcess("p");
    const VAddr va = kernel.allocVirtual(pid, pageSize);
    for (auto _ : state) {
        kernel.invlpg(pid, va);
        machine.mmu().flushPwcAll();
        benchmark::DoNotOptimize(machine.mmu().translate(
            va, kernel.pcidOf(pid), kernel.pageTable(pid).root()));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullPageWalk);

/**
 * One translation that hits the L1 TLB, as almost every memory
 * micro-op's does.  The loop cycles over four resident pages, so each
 * hit is a set lookup plus an LRU touch that redraws the set's
 * version id (DESIGN.md §17).  BM_FullPageWalk covers the miss path.
 */
void
BM_MmuTranslateHit(benchmark::State &state)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const os::Pid pid = kernel.createProcess("p");
    const VAddr base = kernel.allocVirtual(pid, 4 * pageSize);
    const Pcid pcid = kernel.pcidOf(pid);
    const PAddr root = kernel.pageTable(pid).root();
    for (unsigned page = 0; page < 4; ++page)
        machine.mmu().translate(base + page * pageSize, pcid, root);
    unsigned page = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(machine.mmu().translate(
            base + page * pageSize, pcid, root));
        page = (page + 1) % 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MmuTranslateHit);

void
BM_AesDecryptNative(benchmark::State &state)
{
    std::uint8_t key[16] = {};
    crypto::AesKey dec(key, 128, true);
    std::uint8_t block[16] = {1, 2, 3};
    std::uint8_t out[16];
    for (auto _ : state) {
        crypto::decryptBlock(dec, block, out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AesDecryptNative);

void
BM_AesDecryptSimulated(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        os::Machine machine;
        auto &kernel = machine.kernel();
        const os::Pid pid = kernel.createProcess("aes");
        std::uint8_t key[16] = {};
        crypto::AesKey dec(key, 128, true);
        const auto layout = crypto::setupAesVictim(kernel, pid, dec);
        std::uint8_t ct[16] = {9, 9, 9};
        crypto::loadCiphertext(kernel, pid, layout, ct);
        kernel.startOnContext(
            pid, 0,
            share(crypto::buildAesDecryptProgram(layout)));
        state.ResumeTiming();
        machine.runUntilHalted(0, 10'000'000);
        state.counters["sim-cycles"] =
            static_cast<double>(machine.cycle());
    }
}
BENCHMARK(BM_AesDecryptSimulated)->Unit(benchmark::kMillisecond);

void
BM_OneReplayCycle(benchmark::State &state)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const os::Pid pid = kernel.createProcess("victim");
    const VAddr handle = kernel.allocVirtual(pid, pageSize);

    cpu::ProgramBuilder b;
    b.movi(1, static_cast<std::int64_t>(handle))
        .label("spin")
        .ld(2, 1, 0)
        .addi(3, 3, 1)
        .jmp("spin");
    kernel.startOnContext(pid, 0, share(b.build()));

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = pid;
    recipe.replayHandle = handle;
    recipe.confidence = 1'000'000'000;
    scope.setRecipe(std::move(recipe));
    scope.arm();

    for (auto _ : state) {
        const std::uint64_t before = scope.stats().totalReplays;
        machine.runUntil(
            [&]() { return scope.stats().totalReplays > before; },
            1'000'000);
    }
    state.counters["sim-cycles/replay"] = benchmark::Counter(
        static_cast<double>(machine.cycle()) /
        static_cast<double>(scope.stats().totalReplays));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OneReplayCycle);

/**
 * The Fig. 10 SMT shape without its setup: the victim's two-divide
 * window replays on context 0 while the monitor times bursts of four
 * divides on context 1, sharing the unpipelined divider.  The machine
 * is built once, outside the timed loop.  An iteration is one monitor
 * sample; a monitor that has taken all of its samples restarts
 * untimed.
 */
void
BM_Fig10MonitorLoop(benchmark::State &state)
{
    os::Machine machine;
    auto &kernel = machine.kernel();
    const attack::VictimImage victim =
        attack::buildControlFlowVictim(kernel, true);
    const attack::MonitorImage monitor =
        attack::buildDivContentionMonitor(kernel, 1000, 4);

    ms::Microscope scope(machine);
    ms::AttackRecipe recipe;
    recipe.victim = victim.pid;
    recipe.replayHandle = victim.handle + 0x20;  // the count++ access
    recipe.confidence = 1'000'000'000;
    scope.setRecipe(std::move(recipe));
    machine.core().predictor().flush();
    scope.arm();
    kernel.startOnContext(victim.pid, 0, victim.program);
    kernel.startOnContext(monitor.pid, 1, monitor.program);

    const Cycles start = machine.cycle();
    for (auto _ : state) {
        // The monitor's r2 counts the samples it has stored.
        const std::uint64_t before = machine.core().readIntReg(1, 2);
        machine.runUntil(
            [&]() {
                return machine.core().readIntReg(1, 2) != before ||
                       machine.core().halted(1);
            },
            1'000'000);
        if (machine.core().halted(1)) {
            state.PauseTiming();
            kernel.startOnContext(monitor.pid, 1, monitor.program);
            state.ResumeTiming();
        }
    }
    state.counters["sim-cycles/sample"] = benchmark::Counter(
        static_cast<double>(machine.cycle() - start) /
        static_cast<double>(state.iterations()));
    state.counters["replays/sample"] = benchmark::Counter(
        static_cast<double>(scope.stats().totalReplays) /
        static_cast<double>(state.iterations()));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fig10MonitorLoop);

/**
 * Advancing an Rng by state.range(0) draws, the span one fast-forward
 * skip covers: discard()'s inline stepping (burn) against jump().
 * Their crossover sets Rng::kDiscardJumpMin.
 */
void
BM_RngDiscard(benchmark::State &state, bool jump)
{
    const auto k = static_cast<std::uint64_t>(state.range(0));
    Rng rng(k);
    for (auto _ : state) {
        if (jump) {
            rng.jump(k);
        } else {
            // Chunks below the threshold keep discard() stepping.
            for (std::uint64_t left = k; left > 0;) {
                const std::uint64_t chunk =
                    std::min(left, Rng::kDiscardJumpMin - 1);
                rng.discard(chunk);
                left -= chunk;
            }
        }
        benchmark::DoNotOptimize(rng);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_RngDiscard, burn, false)
    ->Arg(64)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(16384)
    ->Arg(65536);
BENCHMARK_CAPTURE(BM_RngDiscard, jump, true)
    ->Arg(64)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(16384)
    ->Arg(65536);

/**
 * One restore of a warm machine after a window that touched
 * state.range(0) lines: the per-iteration cost a replay loop pays.
 * Only the restore is timed.  With the versioned set copy (DESIGN.md
 * §17) it scales with the lines touched, not with the 8 MiB L3; with
 * none touched it is the fixed cost every restore pays.
 */
void
BM_SnapshotRestore(benchmark::State &state)
{
    os::Machine machine;
    Rng rng(1);
    // Fill every level: twice the L3's 131 072 lines.
    for (int i = 0; i < (1 << 18); ++i)
        machine.hierarchy().access(rng.below(1 << 22) * lineSize);
    const os::Snapshot snap = machine.snapshot();
    machine.restoreFrom(snap);
    const auto touched = static_cast<int>(state.range(0));
    for (auto _ : state) {
        for (int i = 0; i < touched; ++i)
            machine.hierarchy().access(rng.below(1 << 22) * lineSize);
        const auto start = std::chrono::steady_clock::now();
        machine.restoreFrom(snap);
        state.SetIterationTime(std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start).count());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotRestore)->Arg(0)->Arg(16)->Arg(1024)->UseManualTime();

/**
 * One PhysMem re-share after a window wrote state.range(0) pages, on
 * a machine-sized memory: 12 pages, as the denoise_replay machine
 * holds, all in the directory's first leaf of 512.  The writes hit
 * the shared pages first (copy-on-write), then fresh ones, which the
 * share releases; with none written the share compares one leaf id
 * (DESIGN.md §17).  Only the share is timed.
 */
void
BM_PhysMemReshare(benchmark::State &state)
{
    constexpr Ppn kMachinePages = 12;
    mem::PhysMem source;
    for (Ppn ppn = 0; ppn < kMachinePages; ++ppn)
        source.write64(ppn << pageShift, ppn + 1);
    mem::PhysMem target;
    target.shareStateFrom(source);
    const auto written = static_cast<Ppn>(state.range(0));
    for (auto _ : state) {
        for (Ppn ppn = 0; ppn < written; ++ppn)
            target.write64(ppn << pageShift, ppn);
        const auto start = std::chrono::steady_clock::now();
        target.shareStateFrom(source);
        state.SetIterationTime(std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start).count());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhysMemReshare)->Arg(0)->Arg(16)->Arg(256)->UseManualTime();

/**
 * Construct and destroy a default machine: what every snapshot() and
 * every cold trial pays before its first copy.  A cache set's ways
 * are allocated uninitialised and written only when the set is first
 * filled (DESIGN.md §17), so this no longer scales with the 8 MiB L3.
 */
void
BM_MachineConstruct(benchmark::State &state)
{
    for (auto _ : state) {
        os::Machine machine;
        benchmark::DoNotOptimize(&machine);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineConstruct);

/**
 * An 8-trial aes_prefix_replay campaign as the campaign daemon holds
 * it when it finishes: every trial came back over the wire as a
 * checkpoint record, so payloads are pre-serialised.  Each trial
 * carries the recipe's 54 metrics.
 */
const exp::CampaignResult &
prefixCampaign()
{
    static const exp::CampaignResult result = [] {
        svc::CampaignRequest request;
        request.recipe = "aes_prefix_replay";
        request.trials = 8;
        request.masterSeed = 42;
        exp::CampaignSpec spec = svc::buildSpec(request);
        spec.workers = 1;
        exp::CampaignResult out = exp::runCampaign(std::move(spec));
        for (exp::TrialResult &trial : out.trials)
            trial = *exp::CampaignCheckpoint::parseTrial(
                exp::CampaignCheckpoint::serializeTrial(trial));
        return out;
    }();
    return result;
}

/** The daemon's fingerprint of a finished prefix_svc campaign. */
void
BM_CampaignFingerprint(benchmark::State &state)
{
    const exp::CampaignResult &result = prefixCampaign();
    for (auto _ : state)
        benchmark::DoNotOptimize(exp::deterministicFingerprint(result));
    state.counters["metrics"] = static_cast<double>(
        result.trials.front().output.metrics.size());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CampaignFingerprint);

/** One trial record out (worker) and back in (daemon). */
void
BM_TrialRecordRoundTrip(benchmark::State &state)
{
    const exp::TrialResult &trial = prefixCampaign().trials.front();
    for (auto _ : state) {
        const std::string record =
            exp::CampaignCheckpoint::serializeTrial(trial);
        benchmark::DoNotOptimize(
            exp::CampaignCheckpoint::parseTrial(record));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrialRecordRoundTrip);

/** A trial's metric export: a machine's components into a fresh
 *  registry, then the name-sorted snapshot. */
void
BM_MetricsExport(benchmark::State &state)
{
    const os::Machine machine;
    for (auto _ : state) {
        obs::MetricRegistry registry;
        machine.exportMetrics(registry);
        benchmark::DoNotOptimize(registry.snapshot());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsExport);

/** The recipe prefix_svc runs: aes_prefix_replay, 8 trials, seed 42. */
exp::CampaignSpec
prefixSpec()
{
    svc::CampaignRequest request;
    request.recipe = "aes_prefix_replay";
    request.trials = 8;
    request.masterSeed = 42;
    return svc::buildSpec(request);
}

/**
 * One aes_prefix_replay trial and its checkpoint record on a warm
 * executor: a campaign worker's loop without the socket.  The
 * executor keeps the warmup snapshot and the pooled machine across
 * iterations, as a service worker does across trials.
 */
void
BM_AesPrefixTrial(benchmark::State &state)
{
    const exp::CampaignSpec spec = prefixSpec();
    exp::TrialExecutor executor;
    executor.beginCampaign(spec);
    benchmark::DoNotOptimize(executor.runTrial(spec, 0, 0)); // warm up
    std::size_t index = 0;
    for (auto _ : state) {
        const exp::TrialResult result =
            executor.runTrial(spec, index++ % spec.trials, 0);
        benchmark::DoNotOptimize(
            exp::CampaignCheckpoint::serializeTrial(result));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AesPrefixTrial)->Unit(benchmark::kMicrosecond);

/** The worker's `trial` frame for one finished aes_prefix_replay
 *  trial: its checkpoint record, escaped into the framed message. */
void
BM_TrialFrame(benchmark::State &state)
{
    exp::CampaignSpec spec = prefixSpec();
    spec.trials = 1;
    spec.workers = 1;
    const exp::TrialResult trial = exp::runCampaign(spec).trials.at(0);
    std::string frame; // reused, as the worker reuses its buffer
    for (auto _ : state) {
        frame.clear();
        svc::appendTrialFrame(frame, 0, 1, 0, trial, false);
        benchmark::DoNotOptimize(frame.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrialFrame);

/**
 * One cold start and stop of the campaign service (DESIGN.md §13): a
 * 2-worker daemon on a thread, a client that connects and pings, the
 * one-trial-per-worker selftest campaigns until both workers have run
 * a trial, then shutdown and join.  The counters split each start into
 * those three phases.  The workers re-exec this binary (main() calls
 * svc::maybeRunWorkerMain first).  20 iterations keep a 3-repetition
 * run at 60 daemons, one pair of workers at a time.
 */
void
BM_ServiceColdStart(benchmark::State &state)
{
    using Clock = std::chrono::steady_clock;
    const auto msSince = [](Clock::time_point from) {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         from)
            .count();
    };
    svc::CampaignRequest warm;
    warm.recipe = "selftest";
    warm.trials = 2;
    warm.masterSeed = 1;
    unsigned serial = 0;
    double ping_ms = 0;
    double warmup_ms = 0;
    double stop_ms = 0;
    for (auto _ : state) {
        svc::DaemonConfig config;
        config.socketPath = "/tmp/uscope_coldstart_" +
                            std::to_string(::getpid()) + "_" +
                            std::to_string(serial++);
        config.workers = 2;
        Clock::time_point phase = Clock::now();
        std::thread daemon([&config] { svc::Daemon(config).run(); });
        svc::Client client(config.socketPath, 10000);
        std::string error;
        if (!client.connected() || !client.ping())
            error = "the daemon did not answer a ping";
        ping_ms += msSince(phase);
        phase = Clock::now();
        // A worker still starting gets no shard; selftest campaigns
        // take microseconds, so the budget is time, not tries.
        const Clock::time_point give_up = phase + std::chrono::seconds(10);
        std::set<std::string> warmed;
        while (error.empty() && warmed.size() < 2) {
            const svc::SubmitResult result = client.submit(warm);
            if (!result.ok)
                error = "a warm-up campaign failed: " + result.error;
            else if (Clock::now() > give_up)
                error = "a worker never ran a warm-up trial";
            if (result.credits.isObject())
                for (const auto &[worker, credit] : result.credits.entries())
                    if (svc::field(credit, "run") > 0)
                        warmed.insert(worker);
        }
        warmup_ms += msSince(phase);
        phase = Clock::now();
        if (!client.connected() || !client.shutdownDaemon()) {
            std::fprintf(stderr, "BM_ServiceColdStart: the daemon did not "
                                 "acknowledge shutdown\n");
            std::abort();
        }
        daemon.join();
        stop_ms += msSince(phase);
        if (!error.empty()) {
            state.SkipWithError(error.c_str());
            break;
        }
    }
    const auto perStart = [](double total) {
        return benchmark::Counter(total, benchmark::Counter::kAvgIterations);
    };
    state.counters["first_ping_ms"] = perStart(ping_ms);
    state.counters["warmup_ms"] = perStart(warmup_ms);
    state.counters["stop_ms"] = perStart(stop_ms);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceColdStart)->Iterations(20)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    // BM_ServiceColdStart's daemon re-execs this binary as its workers;
    // the marker check must come before google-benchmark sees argv.
    int worker_exit = 0;
    if (svc::maybeRunWorkerMain(argc, argv, &worker_exit))
        return worker_exit;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
