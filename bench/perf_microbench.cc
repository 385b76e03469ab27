/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: how fast
 * the substrate executes, so users can budget experiment sweeps.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "core/microscope.hh"
#include "cpu/program.hh"
#include "crypto/aes.hh"
#include "crypto/aes_codegen.hh"
#include "os/machine.hh"

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
 * §17) it scales with the lines touched, not with the 8 MiB L3.
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
BENCHMARK(BM_SnapshotRestore)->Arg(16)->Arg(1024)->UseManualTime();

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

} // namespace

BENCHMARK_MAIN();
