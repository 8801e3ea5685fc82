// Prediction cache oracle (DESIGN.md §2, "what a tick recomputes"). The
// engine predicts a queued job's runtime once and predicts it again only
// after a job of the same user completes, which is all the RuntimePredictor
// contract lets move a prediction. A scheduler decorator checks, at every
// dispatched tick, that each QueuedJob::predicted_runtime it is handed
// equals a fresh predictor.predict(job) bit for bit. The scenarios cover
// all six predictors, failures with resubmission, workflows and pricing; a
// predictor that breaks the contract shows the oracle can fail. Tenants
// need no case of their own: each tenant runs its own engine and predictor,
// so the cache never spans tenants.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "engine/cluster_sim.hpp"
#include "engine/experiment.hpp"
#include "workload/generator.hpp"
#include "workload/workflow.hpp"

namespace psched::engine {
namespace {

const policy::Portfolio& paper() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

const policy::Portfolio& tiered() {
  static const policy::Portfolio p = policy::Portfolio::pricing_portfolio();
  return p;
}

/// Forwards to `inner`, first comparing every queued prediction with a
/// fresh one from `predictor`.
class PredictionOracle final : public core::Scheduler {
 public:
  PredictionOracle(core::Scheduler& inner, const predict::RuntimePredictor& predictor,
                   const workload::Trace& trace)
      : inner_(inner), predictor_(predictor) {
    for (const workload::Job& job : trace.jobs()) by_id_.emplace(job.id, &job);
  }

  [[nodiscard]] policy::PolicyTriple policy_for_tick(
      std::uint64_t tick, std::span<const policy::QueuedJob> queue,
      const cloud::CloudProfile& profile) override {
    for (const policy::QueuedJob& q : queue) {
      const double fresh = predictor_.predict(*by_id_.at(q.id));
      ++checked_;
      if (std::bit_cast<std::uint64_t>(fresh) !=
          std::bit_cast<std::uint64_t>(q.predicted_runtime))
        ++mismatches_;
    }
    return inner_.policy_for_tick(tick, queue, profile);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::uint64_t checked() const noexcept { return checked_; }
  [[nodiscard]] std::uint64_t mismatches() const noexcept { return mismatches_; }

 private:
  core::Scheduler& inner_;
  const predict::RuntimePredictor& predictor_;
  std::unordered_map<JobId, const workload::Job*> by_id_;
  std::uint64_t checked_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// One engine stack under the oracle: the scheduler (fixed policy or
/// portfolio), the predictor, the decorator, and the simulation.
struct OracleRun {
  OracleRun(const EngineConfig& config, const workload::Trace& trace,
            std::unique_ptr<core::Scheduler> inner,
            std::unique_ptr<predict::RuntimePredictor> pred)
      : scheduler(std::move(inner)),
        predictor(std::move(pred)),
        oracle(*scheduler, *predictor, trace),
        sim(config, trace, oracle, *predictor) {}

  std::unique_ptr<core::Scheduler> scheduler;
  std::unique_ptr<predict::RuntimePredictor> predictor;
  PredictionOracle oracle;
  ClusterSimulation sim;
};

std::unique_ptr<core::Scheduler> fixed(const std::string& name) {
  const policy::PolicyTriple* triple = paper().find(name);
  EXPECT_NE(triple, nullptr) << name;
  return std::make_unique<core::SinglePolicyScheduler>(
      triple != nullptr ? *triple : paper().policies().front());
}

std::unique_ptr<core::Scheduler> portfolio(const EngineConfig& config,
                                           const policy::Portfolio& p,
                                           std::size_t count) {
  core::PortfolioSchedulerConfig pconfig = paper_portfolio_config(config);
  pconfig.selector.budget_mode = core::BudgetMode::kFixedCount;
  pconfig.selector.fixed_count = count;
  return std::make_unique<core::PortfolioScheduler>(p, pconfig);
}

/// Run to completion; every prediction checked must match, and enough were
/// checked for the run to mean something.
RunResult expect_cache_exact(const EngineConfig& config, const workload::Trace& trace,
                             std::unique_ptr<core::Scheduler> scheduler,
                             PredictorKind predictor) {
  OracleRun run(config, trace, std::move(scheduler), make_predictor(predictor));
  RunResult result = run.sim.run();
  EXPECT_EQ(run.oracle.mismatches(), 0u) << to_string(predictor);
  EXPECT_GT(run.oracle.checked(), trace.size()) << to_string(predictor);
  return result;
}

workload::Trace archetype_trace(std::size_t archetype, double days, std::uint64_t seed,
                                int max_procs = 64) {
  return workload::TraceGenerator(workload::paper_archetypes(days)[archetype])
      .generate(seed)
      .cleaned(max_procs);
}

constexpr PredictorKind kAllPredictors[] = {
    PredictorKind::kPerfect,     PredictorKind::kTsafrir,
    PredictorKind::kUserEstimate, PredictorKind::kLastRuntime,
    PredictorKind::kRunningMean, PredictorKind::kEwma};

TEST(PredictionCache, AllPredictorsOnLpc) {
  // LPC-EGEE's bursts keep deep queues over many completions per user.
  const workload::Trace trace = archetype_trace(3, 0.25, 11);
  for (const PredictorKind kind : kAllPredictors)
    (void)expect_cache_exact(paper_engine_config(), trace, fixed("ODB-LXF-FirstFit"), kind);
}

TEST(PredictionCache, AllPredictorsUnderThePortfolio) {
  const workload::Trace trace = archetype_trace(1, 0.3, 5);
  const EngineConfig config = paper_engine_config();
  for (const PredictorKind kind : kAllPredictors)
    (void)expect_cache_exact(config, trace, portfolio(config, paper(), 12), kind);
}

TEST(PredictionCache, FailuresAndResubmission) {
  // A crash re-queues the killed job: its cached prediction must be
  // dropped and taken again at its next tick.
  const workload::Trace trace = archetype_trace(1, 0.5, 77, 32);
  EngineConfig config = paper_engine_config();
  config.provider.max_vms = 32;
  config.failure.p_boot_fail = 0.1;
  config.failure.vm_mtbf_seconds = 3.0 * kSecondsPerHour;
  config.failure.api_outage_gap_seconds = 2.0 * kSecondsPerHour;
  config.failure.api_outage_duration_seconds = 300.0;
  config.failure.seed = 5;
  config.resilience.max_resubmits = 2;
  for (const PredictorKind kind : {PredictorKind::kTsafrir, PredictorKind::kRunningMean}) {
    const RunResult result =
        expect_cache_exact(config, trace, fixed("ODA-LXF-BestFit"), kind);
    EXPECT_GT(result.metrics.failures.job_resubmissions, 0u);
  }
}

TEST(PredictionCache, Workflows) {
  // Dependents enter the queue from a completion handler, next to the
  // completion that moved their user's predictions.
  workload::WorkflowConfig wconfig;
  wconfig.duration_days = 0.5;
  wconfig.num_users = 8;
  const workload::Trace trace = workload::generate_workflows(wconfig, 12);
  const RunResult result = expect_cache_exact(paper_engine_config(), trace,
                                              fixed("ODX-WFP3-FirstFit"),
                                              PredictorKind::kLastRuntime);
  EXPECT_GT(result.metrics.workflows, 0u);
}

TEST(PredictionCache, PricingWithSpotRevocations) {
  const workload::Trace trace = archetype_trace(0, 0.5, 31, 16);
  EngineConfig config = paper_engine_config();
  cloud::PricingConfig& pricing = config.pricing;
  pricing.families.push_back(cloud::VmFamily{"small", 0.5, 30.0, 16});
  pricing.families.push_back(cloud::VmFamily{"std", 1.0, 120.0, 0});
  pricing.spot_price_fraction = 0.3;
  pricing.spot_mtbf_seconds = 2.0 * kSecondsPerHour;
  pricing.spot_warning_seconds = 120.0;
  pricing.reserved_count = 2;
  pricing.reserved_term_seconds = 24.0 * kSecondsPerHour;
  pricing.seed = 77;
  const RunResult result = expect_cache_exact(config, trace, portfolio(config, tiered(), 16),
                                              PredictorKind::kEwma);
  EXPECT_GT(result.metrics.pricing.spot_revocations, 0u);
}

/// Breaks the contract: every completion, of any user, moves every
/// prediction.
class GlobalCountPredictor final : public predict::RuntimePredictor {
 public:
  [[nodiscard]] double predict(const workload::Job& job) const override {
    return job.estimate + static_cast<double>(completions_);
  }
  void observe_completion(const workload::Job& /*job*/) override { ++completions_; }
  [[nodiscard]] std::string name() const override { return "global-count"; }

 private:
  std::uint64_t completions_ = 0;
};

TEST(PredictionCache, OracleCatchesAContractBreach) {
  const workload::Trace trace = archetype_trace(3, 0.25, 11);
  OracleRun run(paper_engine_config(), trace, fixed("ODB-LXF-FirstFit"),
                std::make_unique<GlobalCountPredictor>());
  (void)run.sim.run();
  EXPECT_GT(run.oracle.mismatches(), 0u);
}

}  // namespace
}  // namespace psched::engine
