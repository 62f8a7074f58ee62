#ifndef GRAPHITI_FAULTS_STRESS_HPP
#define GRAPHITI_FAULTS_STRESS_HPP

/**
 * @file
 * Hazard-stress harness: latency-insensitivity under adversarial
 * timing.
 *
 * The paper's theorems 4.6 and 5.3 promise that the verified rewrites
 * preserve circuit behavior under *any* elastic schedule — yet one
 * simulator run only ever exercises one schedule. The StressHarness
 * closes that gap operationally: it replays the same workload under a
 * battery of seeded random fault plans plus structured adversaries
 * (starve-one-channel, max-backpressure, single-slot-everywhere) and
 * asserts the latency-insensitivity invariant:
 *
 *     every plan yields the identical token sequence on every output
 *     port, and identical final memories, as the fault-free baseline.
 *
 * Cycle counts are allowed (expected!) to differ; sequences are not.
 * A violated plan is reported with the seed that reproduces it.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "graph/expr_high.hpp"
#include "obs/scope.hpp"
#include "semantics/functions.hpp"
#include "sim/sim.hpp"
#include "support/result.hpp"
#include "support/token.hpp"

namespace graphiti::faults {

/** One workload: what to feed the circuit and what to expect back. */
struct Workload
{
    std::map<std::string, std::vector<double>> memories;
    std::vector<std::vector<Token>> inputs;
    std::size_t expected_outputs = 0;
    bool serial_io = false;
};

/** Harness configuration. */
struct StressOptions
{
    /** Number of seeded random plans. */
    std::size_t random_plans = 6;
    /** Base seed; plan i draws derivePlanSeed(base_seed, "random", i). */
    std::uint64_t base_seed = 0x6772617068697469ULL;
    /** Tunables shared by all random plans. */
    FaultPlanConfig plan_config;
    /** Base simulator configuration (faults slot is overwritten). */
    sim::SimConfig sim;
    /** Also run the structured adversarial plans. */
    bool structured = true;
    /** Cap on starve-one-channel plans (sampled evenly when the
     * circuit has more channels). */
    std::size_t max_starve_plans = 12;
    /** Provenance firings kept in each failure artifact. */
    std::size_t artifact_tail_firings = 64;
};

/** Outcome of one plan. */
struct PlanOutcome
{
    std::string plan;           ///< FaultPlan::describe()
    std::uint64_t seed = 0;     ///< reproduction seed (random plans)
    bool completed = false;     ///< the run finished
    bool matched = false;       ///< outputs+memories equal baseline
    std::size_t cycles = 0;
    std::string detail;         ///< error or first mismatch
    /** Post-mortem JSON of a plan that failed to complete, from a
     * deterministic re-run with an obs scope attached (see
     * failureArtifact); empty otherwise. */
    std::string failure_artifact;
};

/** Aggregate result of a stress run. */
struct StressReport
{
    bool invariant_holds = true;
    std::size_t baseline_cycles = 0;
    std::vector<PlanOutcome> outcomes;
    /** First violating plan, rendered; empty when the invariant
     * holds. */
    std::string first_violation;
    /** Wall-clock time of the whole stress run (baseline + plans). */
    double seconds = 0.0;
    /** Worst-case cycle inflation of any completed plan relative to
     * the fault-free baseline (1.0 = no slowdown). */
    double worst_inflation = 1.0;

    std::size_t plansRun() const { return outcomes.size(); }

    double
    plansPerSecond() const
    {
        return seconds > 0.0
                   ? static_cast<double>(outcomes.size()) / seconds
                   : 0.0;
    }
};

/**
 * Render a stuck-run post-mortem as a JSON document: the watchdog
 * diagnosis (when the run produced one), the scope's metrics snapshot
 * and the tail of the provenance hop log — everything needed to debug
 * a deadlocked/livelocked state after the fact. @p diagnosis may be
 * nullptr for failures that never reached the watchdog.
 */
std::string failureArtifact(const sim::StuckDiagnosis* diagnosis,
                            const std::string& error,
                            const obs::Scope& scope,
                            std::size_t tail_firings = 64);

/** The plans StressHarness runs on @p graph: the seeded random plans,
 * then, when options.structured, the structured adversaries. */
std::vector<std::shared_ptr<FaultPlan>>
stressPlans(const StressOptions& options, const ExprHigh& graph);

/** The hazard-stress harness. */
class StressHarness
{
  public:
    explicit StressHarness(StressOptions options = {})
        : options_(std::move(options))
    {
    }

    /**
     * Run @p graph under the baseline plus every plan and check the
     * latency-insensitivity invariant. Fails (as opposed to reporting
     * a violation) only when the baseline run itself fails.
     */
    Result<StressReport> run(const ExprHigh& graph,
                             std::shared_ptr<FnRegistry> functions,
                             const Workload& workload) const;

    /**
     * Stress @p original and @p transformed under the same workload
     * and additionally require their baselines to agree (the
     * program-order equivalence the rewrites promise). Each battery's
     * fault-free baseline serves the cross-check, so a pair costs
     * 2 + 2 x plans simulations. Outcomes are prefixed "orig:" /
     * "ooo:".
     */
    Result<StressReport> runPair(const ExprHigh& original,
                                 const ExprHigh& transformed,
                                 std::shared_ptr<FnRegistry> functions,
                                 const Workload& workload) const;

    const StressOptions& options() const { return options_; }

  private:
    StressOptions options_;
};

}  // namespace graphiti::faults

#endif  // GRAPHITI_FAULTS_STRESS_HPP
