/**
 * @file
 * Campaign recipes and the wire form of a campaign request
 * (DESIGN.md §13).
 *
 * A CampaignSpec cannot cross a process boundary — its body is a
 * closure.  What crosses the wire instead is a CampaignRequest: the
 * *name* of a built-in recipe plus the sweep parameters (trial
 * count, master seed, cycle budget, retry policy, recipe-specific
 * params).  Both ends — the daemon's workers and any in-process
 * baseline — rebuild the spec through the same buildSpec() call, so a
 * service-dispatched campaign and a local CampaignRunner run of the
 * same request execute literally the same closures and produce
 * byte-identical fingerprints.  That shared construction path is the
 * root of every determinism guarantee the service makes: the
 * request's master seed is the spec's master seed, so a service run
 * is bit-identical to the in-process runs every bench and test
 * performs.
 */

#ifndef USCOPE_SVC_REGISTRY_HH
#define USCOPE_SVC_REGISTRY_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/json.hh"
#include "exp/campaign.hh"

namespace uscope::svc
{

/** The wire form of "run this campaign". */
struct CampaignRequest
{
    /** Built-in recipe name (required). */
    std::string recipe;
    /** Campaign name; empty = the recipe name. */
    std::string name;
    /** Trial count; 0 = the recipe's default. */
    std::size_t trials = 0;
    std::uint64_t masterSeed = 42;
    Cycles cycleBudget = 0;
    unsigned maxRetries = 0;
    /** Recipe-specific knobs (JSON object; recipes read what they
     *  know and ignore the rest). */
    json::Value params;
    /**
     * Observability dial for the dispatched campaign (DESIGN.md §14).
     * Deliberately EXCLUDED from identityKey(): observation never
     * changes results (the fingerprint-invariance contract), so
     * resubmitting a campaign at a different obs level must resume
     * the same durable state, not fork a parallel checkpoint dir.
     */
    obs::ObsLevel obs = obs::ObsLevel::Off;

    json::Value toJson() const;
    static std::optional<CampaignRequest> fromJson(const json::Value &v);

    /** Stable identity of everything that determines results — the
     *  durable-state key and the reproducibility contract's scope. */
    std::string identityKey() const;
};

/**
 * The named built-in recipe's spec plus the request's overrides
 * (trials, seed, budget, retries, obs level).  The recipes are a fixed
 * table: selftest, fig10_port_contention, fig11_aes_replay and
 * aes_prefix_replay (DESIGN.md §13).
 * Throws SimFatal for an unknown recipe or a request the recipe
 * rejects.  The returned spec carries the recipe's structureKey (so
 * persistent workers keep warmup snapshots hot across same-recipe
 * campaigns) and perTrialMetrics = true (the daemon attaches
 * checkpoint directories, which require it).
 */
exp::CampaignSpec buildSpec(const CampaignRequest &request);

} // namespace uscope::svc

#endif // USCOPE_SVC_REGISTRY_HH
