/**
 * @file
 * Pin a campaign's fault plan, shared by the suites whose pins must
 * hold whatever USCOPE_FAULT_PLAN says.
 *
 * A trial's machine config defaults to the environment's plan
 * (fault::FaultPlan::environmentDefault()), so an explicit plan goes
 * through the trial body: withFaultPlan wraps it to set
 * ctx.machine.fault before the body builds its machine.
 */

#ifndef USCOPE_TESTS_FAULT_PINNED_HH
#define USCOPE_TESTS_FAULT_PINNED_HH

#include <memory>
#include <utility>

#include "exp/campaign.hh"
#include "fault/plan.hh"
#include "os/machine.hh"

namespace uscope::test
{

/**
 * @p spec with every trial's machine on @p plan.  A spec with a warmup
 * loses it to the body: each trial runs the warmup cold on a machine
 * built with the plan and seeded with deriveWarmupSeed, reseeds it
 * with the trial seed and hands it to the body as ctx.fork — the
 * prefixCache = false path, bit-identical to a fork.  Set the spec's
 * masterSeed before the call.
 */
inline exp::CampaignSpec
withFaultPlan(exp::CampaignSpec spec, const fault::FaultPlan &plan)
{
    spec.body = [body = std::move(spec.body),
                 warmup = std::move(spec.warmup), plan,
                 warmSeed = exp::deriveWarmupSeed(spec.masterSeed)](
                    const exp::TrialContext &ctx) {
        exp::TrialContext pinned = ctx;
        pinned.machine.fault = plan;
        if (!warmup)
            return body(pinned);
        os::MachineConfig config = pinned.machine;
        config.seed = warmSeed;
        os::Machine machine(config);
        const std::shared_ptr<const void> data = warmup(machine);
        machine.reseed(ctx.seed);
        pinned.fork = &machine;
        pinned.warmupData = data.get();
        pinned.forkCycle = machine.cycle();
        return body(pinned);
    };
    spec.warmup = nullptr;
    return spec;
}

} // namespace uscope::test

#endif // USCOPE_TESTS_FAULT_PINNED_HH
