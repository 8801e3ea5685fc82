#include "engine/experiment.hpp"

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace psched::engine {

std::string to_string(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::kPerfect: return "accurate";
    case PredictorKind::kTsafrir: return "predicted";
    case PredictorKind::kUserEstimate: return "user-estimate";
    case PredictorKind::kLastRuntime: return "last-runtime";
    case PredictorKind::kRunningMean: return "running-mean";
    case PredictorKind::kEwma: return "ewma";
  }
  PSCHED_ASSERT_MSG(false, "unknown PredictorKind");
  return {};
}

std::unique_ptr<predict::RuntimePredictor> make_predictor(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::kPerfect: return predict::make_perfect();
    case PredictorKind::kTsafrir: return predict::make_tsafrir(2);
    case PredictorKind::kUserEstimate: return predict::make_user_estimate();
    case PredictorKind::kLastRuntime: return predict::make_last_runtime();
    case PredictorKind::kRunningMean: return predict::make_running_mean();
    case PredictorKind::kEwma: return predict::make_ewma(0.5);
  }
  PSCHED_ASSERT_MSG(false, "unknown PredictorKind");
  return nullptr;
}

ScenarioResult run_single_policy(const EngineConfig& config, const workload::Trace& trace,
                                 policy::PolicyTriple triple, PredictorKind predictor,
                                 obs::Recorder* recorder) {
  core::SinglePolicyScheduler scheduler(triple);
  const auto pred = make_predictor(predictor);
  ClusterSimulation sim(config, trace, scheduler, *pred, recorder);
  ScenarioResult result;
  result.run = sim.run();
  return result;
}

ScenarioResult run_portfolio(const EngineConfig& config, const workload::Trace& trace,
                             const policy::Portfolio& portfolio,
                             const core::PortfolioSchedulerConfig& pconfig,
                             PredictorKind predictor, obs::Recorder* recorder) {
  core::PortfolioScheduler scheduler(portfolio, pconfig);
  const auto pred = make_predictor(predictor);
  ClusterSimulation sim(config, trace, scheduler, *pred, recorder);
  ScenarioResult result;
  result.run = sim.run();
  result.is_portfolio = true;
  const core::ReflectionStore& reflection = scheduler.reflection();
  result.portfolio.invocations = reflection.invocations();
  result.portfolio.total_selection_cost_ms = reflection.total_cost_ms();
  result.portfolio.mean_simulated_per_invocation =
      reflection.mean_simulated_per_invocation();
  result.portfolio.chosen_counts = reflection.chosen_counts();
  return result;
}

std::vector<ScenarioResult> run_parallel(
    const std::vector<std::function<ScenarioResult()>>& tasks, std::size_t threads) {
  std::vector<ScenarioResult> results(tasks.size());
  util::ThreadPool pool(threads);
  pool.parallel_for(tasks.size(), [&](std::size_t i) { results[i] = tasks[i](); });
  return results;
}

obs::RunReportInputs report_inputs(const ScenarioResult& result,
                                   const EngineConfig& config) {
  obs::RunReportInputs inputs;
  inputs.trace_name = result.run.trace_name;
  inputs.scheduler_name = result.run.scheduler_name;
  inputs.metrics = result.run.metrics;
  inputs.utility = config.utility;
  inputs.ticks = result.run.ticks;
  inputs.events = result.run.events;
  inputs.total_leases = result.run.total_leases;
  inputs.invariant_checks = result.run.invariant_checks;
  inputs.invariant_violations = result.run.invariant_violations.size();
  inputs.failures_enabled = config.failure.enabled();
  inputs.pricing_enabled = config.pricing.enabled();
  if (result.is_portfolio) {
    inputs.portfolio.present = true;
    inputs.portfolio.invocations = result.portfolio.invocations;
    inputs.portfolio.total_selection_cost_ms = result.portfolio.total_selection_cost_ms;
    inputs.portfolio.mean_simulated_per_invocation =
        result.portfolio.mean_simulated_per_invocation;
    inputs.portfolio.chosen_counts = result.portfolio.chosen_counts;
  }
  return inputs;
}

bool write_observability_outputs(const ScenarioResult& result,
                                 const EngineConfig& config,
                                 const obs::Recorder* recorder,
                                 const std::string& report_path,
                                 const std::string& trace_path,
                                 const obs::ReportCheckpoint* checkpoint) {
  bool ok = true;
  if (!report_path.empty()) {
    obs::RunReportInputs inputs = report_inputs(result, config);
    if (checkpoint != nullptr) inputs.checkpoint = *checkpoint;
    const std::string report = obs::run_report_json(inputs, recorder);
    ok = obs::write_text_file(report_path, report) && ok;
  }
  if (!trace_path.empty() && recorder != nullptr) {
    ok = obs::write_text_file(trace_path, obs::chrome_trace_json(*recorder)) && ok;
  }
  return ok;
}

EngineConfig paper_engine_config() {
  EngineConfig config;
  config.provider.max_vms = 256;
  config.provider.boot_delay = 120.0;
  config.schedule_period = 20.0;
  config.slowdown_bound = 10.0;
  config.utility = metrics::UtilityParams{100.0, 1.0, 1.0};
#ifdef PSCHED_VALIDATE_BUILD
  // Validation preset (-DPSCHED_VALIDATE=ON): every consumer of the default
  // config runs with the runtime invariant checker attached.
  config.validation.check_invariants = true;
#endif
  return config;
}

core::PortfolioSchedulerConfig paper_portfolio_config(const EngineConfig& engine) {
  core::PortfolioSchedulerConfig pc;
  pc.selector.time_constraint_ms = 0.0;  // unbounded
  pc.selector.lambda = 0.6;
  pc.online_sim.utility = engine.utility;
  pc.online_sim.slowdown_bound = engine.slowdown_bound;
  pc.online_sim.schedule_period = engine.schedule_period;
  pc.online_sim.release_window = engine.schedule_period;
  pc.online_sim.release_rule = engine.release_rule;
  pc.online_sim.allocation = engine.allocation;
  pc.selection_period_ticks = 1;
  return pc;
}

}  // namespace psched::engine
