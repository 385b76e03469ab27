#include "fault/plan.hh"

#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace uscope::fault
{

namespace
{
constexpr Logger log_{"fault"};
} // namespace

bool
FaultPlan::enabled() const
{
    return interruptMeanGap != 0 || preemptMeanGap != 0 ||
           (portJitterRate > 0.0 && portJitterMax != 0) ||
           probeJitterMax != 0 || sampleDropRate > 0.0;
}

FaultPlan
FaultPlan::chaos()
{
    FaultPlan plan;
    // Mean gaps chosen so both fig10/fig11-scale runs (hundreds of
    // thousands to millions of cycles) and short unit-test runs see
    // interrupts, while a single replay window (a few thousand cycles)
    // usually — not always — escapes unscathed: that residual per-
    // window noise is exactly what replay averaging must defeat.
    plan.interruptMeanGap = 60000;
    plan.interruptEvictions = 8;
    plan.preemptMeanGap = 800000;
    plan.portJitterRate = 0.02;
    plan.portJitterMax = 3;
    // Capped so a worst-case L1 probe (6 + 45 + 8 + 10 = 69 cycles)
    // still lands inside the paper's sub-70-cycle hit band: the timer
    // jitter smears measurements without erasing the L1/DRAM gap —
    // exactly the §4.3 noise regime replay averaging defeats.
    plan.probeJitterMax = 10;
    plan.sampleDropRate = 0.01;
    return plan;
}

FaultPlan
FaultPlan::environmentDefault()
{
    static const FaultPlan cached = [] {
        const char *value = std::getenv("USCOPE_FAULT_PLAN");
        if (!value || !*value || std::strcmp(value, "off") == 0)
            return FaultPlan{};
        if (std::strcmp(value, "chaos") == 0)
            return chaos();
        log_.warn("USCOPE_FAULT_PLAN='%s' not recognised (expected "
                  "\"chaos\" or \"off\"); running noiseless",
                  value);
        return FaultPlan{};
    }();
    return cached;
}

} // namespace uscope::fault
