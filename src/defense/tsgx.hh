/**
 * @file
 * T-SGX defense model (§8, [50]): the enclave wraps its code in TSX
 * transactions, so a page fault aborts to a user-level handler
 * instead of trapping to the malicious OS; after N = 10 failed
 * transactions the application terminates.
 *
 * The paper's critique, reproduced here: the design still hands the
 * attacker N-1 replays, because each retry re-runs the transaction
 * body whose younger instructions execute speculatively before the
 * page fault aborts — and N-1 windows "can be sufficient in many
 * attacks".  The attacker never needs the OS fault handler: it
 * re-flushes the handle's translation path asynchronously between
 * retries.
 */

#ifndef USCOPE_DEFENSE_TSGX_HH
#define USCOPE_DEFENSE_TSGX_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "os/machine.hh"

namespace uscope::defense
{

/** T-SGX's N: failed transactions before the application terminates. */
constexpr unsigned kTsgxAbortThreshold = 10;

/** Configuration of one T-SGX attack run. */
struct TsgxConfig
{
    bool secret = true;       ///< Victim path: divides vs multiplies.
    unsigned monitorSamples = 4000;
    unsigned cont = 4;
    Cycles threshold = 120;   ///< Port-contention threshold.
    os::MachineConfig machine;
};

/** Outcome. */
struct TsgxResult
{
    /** Transaction aborts the victim observed (= windows granted). */
    std::uint64_t txAborts = 0;
    /** True when T-SGX terminated the application. */
    bool victimTerminated = false;
    /** Monitor samples above the contention threshold. */
    std::uint64_t aboveThreshold = 0;
    /** Port-channel verdict (noisy; N-1 windows may not suffice). */
    bool inferredDividesPort = false;
    /** Cache-channel votes per retry window (noiseless). */
    std::uint64_t mulHits = 0;
    std::uint64_t divHits = 0;
    /** Cache-channel verdict — one window suffices. */
    bool inferredDividesCache = false;
    bool monitorCompleted = false;
};

/** Attack a T-SGX-protected control-flow victim. */
TsgxResult runTsgxAttack(const TsgxConfig &);

} // namespace uscope::defense

#endif // USCOPE_DEFENSE_TSGX_HH
