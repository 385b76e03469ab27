/**
 * @file
 * Reproduces Figure 10: latencies of 10,000 Monitor measurements
 * while MicroScope replays a victim executing (a) two multiplies or
 * (b) two divides — no loop, a single logical run.
 *
 * Expected shape (paper): with the contention threshold slightly
 * under 120 cycles, the mul victim leaves ~4 samples above it and the
 * div victim ~64 — a ~16x separation that makes the two cases
 * "clearly distinguishable".
 *
 * The whole figure is one exp::CampaignRunner campaign: two headline
 * arms (mul/div at 10,000 samples) plus a 5-seed x {mul,div} sweep,
 * each trial on its own simulated Machine, sharded across worker
 * threads.  The full result set exports to
 * bench-results/fig10_port_contention.json.
 */

#include <cstdio>
#include <vector>

#include "attack/port_contention.hh"
#include "common/stats.hh"
#include "exp/campaign.hh"
#include "exp/result_sink.hh"
#include "obs/chrome_trace.hh"
#include "obs/cli.hh"

using namespace uscope;

namespace
{

/** One grid point: a full attack run at a given seed and arm. */
struct Arm
{
    bool divides;
    std::uint64_t seed;
    unsigned samples;
    std::uint64_t replays;
    bool headline;  ///< Full 10,000-sample reproduction arm.
};

std::vector<Arm>
buildGrid()
{
    std::vector<Arm> grid;
    grid.push_back({false, 42, 10000, 100, true});  // Figure 10a
    grid.push_back({true, 42, 10000, 100, true});   // Figure 10b
    for (std::uint64_t seed : {1ull, 7ull, 42ull, 99ull, 1234ull})
        for (bool divides : {false, true})
            grid.push_back({divides, seed, 4000, 60, false});
    return grid;
}

void
printHeadline(const Arm &arm, const attack::PortContentionResult &result)
{
    Histogram hist(60, 220, 16);
    for (Cycles sample : result.samples)
        hist.add(static_cast<double>(sample));

    std::printf("\n--- Victim executes two %s (Figure %s) ---\n",
                arm.divides ? "DIVISIONS" : "MULTIPLICATIONS",
                arm.divides ? "10b" : "10a");
    std::printf("monitor samples:        %zu\n", result.samples.size());
    std::printf("median latency:         %llu cycles\n",
                static_cast<unsigned long long>(result.medianLatency));
    std::printf("samples > 120 cycles:   %llu\n",
                static_cast<unsigned long long>(result.aboveThreshold));
    std::printf("replays of the window:  %llu\n",
                static_cast<unsigned long long>(result.replaysDone));
    std::printf("victim completed:       %s (single logical run)\n",
                result.victimCompleted ? "yes" : "no");
    std::printf("adversary verdict:      %s\n",
                result.inferredDivides ? "DIVIDES" : "no divides");
    std::printf("latency distribution (cycles):\n%s",
                hist.render(48).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const obs::BenchObsOptions obsOpts = obs::parseBenchObsOptions(
        argc, argv, "bench-results/fig10_port_contention.trace.json");

    std::printf("==============================================================\n");
    std::printf("Figure 10: port-contention attack, 10,000 monitor samples\n");
    std::printf("Paper reference: mul ~4 above threshold, div ~64 (16x)\n");
    std::printf("==============================================================\n");

    const std::vector<Arm> grid = buildGrid();
    // Each trial writes only its own pre-sized slot: no locking.
    std::vector<attack::PortContentionResult> details(grid.size());

    exp::CampaignSpec spec;
    spec.name = "fig10_port_contention";
    spec.trials = grid.size();
    spec.masterSeed = 42;
    spec.body = [&](const exp::TrialContext &ctx) {
        const Arm &arm = grid[ctx.index];
        attack::PortContentionConfig config;
        config.victimDivides = arm.divides;
        config.samples = arm.samples;
        config.replays = arm.replays;
        config.threshold = 120;
        // Reproduction arms pin the paper's explicit seeds rather
        // than deriving them from the trial index.
        config.machine.seed = arm.seed;
        if (ctx.index == 1) {
            // The div headline (Figure 10b) carries the event trace:
            // replays interleaved with contended Monitor bursts.
            config.machine.obs.traceEvents = obsOpts.trace;
            config.machine.obs.traceCapacity = obsOpts.traceCapacity;
        }
        const attack::PortContentionResult result =
            attack::runPortContentionAttack(config);

        exp::TrialOutput out;
        for (Cycles sample : result.samples)
            out.metric.add(static_cast<double>(sample));
        out.metrics = result.metrics;
        out.simCycles = result.totalCycles;
        out.scope.episodes = 1;
        out.scope.totalReplays = result.replaysDone;
        out.payload =
            json::Value::object()
                .set("arm", arm.divides ? "div" : "mul")
                .set("seed", arm.seed)
                .set("samples", std::uint64_t{arm.samples})
                .set("above_threshold", result.aboveThreshold)
                .set("median_latency", result.medianLatency)
                .set("max_latency", result.maxLatency)
                .set("replays", result.replaysDone)
                .set("victim_completed", result.victimCompleted)
                .set("inferred_divides", result.inferredDivides)
                .set("headline", arm.headline);
        if (arm.headline) {
            json::Value samples = json::Value::array();
            for (Cycles sample : result.samples)
                samples.push(sample);
            out.payload.set("monitor_samples", std::move(samples));
        }
        details[ctx.index] = std::move(result);
        return out;
    };

    const exp::CampaignResult campaign = exp::runCampaign(spec);

    printHeadline(grid[0], details[0]);
    printHeadline(grid[1], details[1]);

    std::printf("\nSeed sweep (above-threshold counts, mul vs div):\n");
    for (std::size_t i = 2; i < grid.size(); i += 2) {
        const auto &mul_run = details[i];
        const auto &div_run = details[i + 1];
        std::printf("  seed %-6llu mul=%-4llu div=%-4llu verdicts: %s/%s\n",
                    static_cast<unsigned long long>(grid[i].seed),
                    static_cast<unsigned long long>(
                        mul_run.aboveThreshold),
                    static_cast<unsigned long long>(
                        div_run.aboveThreshold),
                    mul_run.inferredDivides ? "DIV(!)" : "mul",
                    div_run.inferredDivides ? "div" : "MUL(!)");
    }

    std::printf("\ncampaign: %zu trials (%zu ok) on %u workers in %.2fs "
                "(%.1f trials/s, %.1f Msim-cycles/s)\n",
                campaign.trialCount, campaign.aggregate.ok,
                campaign.workers, campaign.wallSeconds,
                campaign.trialsPerSecond(),
                campaign.simCyclesPerSecond() / 1e6);

    if (obsOpts.metrics) {
        std::printf("\nmetrics snapshot (merged across %zu trials):\n",
                    campaign.trialCount);
        obs::printMetrics(campaign.aggregate.metrics);
    }
    if (obsOpts.trace) {
        obs::TraceSpill spill;
        spill.log = details[1].events;
        if (obs::writeTraceFile(obsOpts.tracePath,
                                obs::mergeChromeTraces({spill})))
            std::printf("\nreplay timeline (Chrome trace-event JSON, "
                        "open in ui.perfetto.dev): %s\n",
                        obsOpts.tracePath.c_str());
    }

    exp::JsonFileSink sink("bench-results");
    sink.consume(campaign);
    std::printf("campaign JSON: %s\n", sink.lastPath().c_str());
    return campaign.aggregate.ok == campaign.trialCount ? 0 : 1;
}
