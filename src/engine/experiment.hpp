#pragma once
// Experiment-level helpers shared by benches, examples, and integration
// tests: construct predictor/scheduler stacks, run one (trace, scheduler)
// scenario, and sweep many scenarios across a thread pool.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/cluster_sim.hpp"
#include "obs/report.hpp"
#include "predict/suite.hpp"
#include "predict/tsafrir.hpp"

namespace psched::engine {

/// The three information regimes of the paper's evaluation (Section 6.3),
/// plus the extended predictor suite (predict/suite.hpp).
enum class PredictorKind {
  kPerfect,       ///< accurate runtimes (Figure 4)
  kTsafrir,       ///< system-generated k-NN predictions, k=2 (Figure 7)
  kUserEstimate,  ///< raw user estimates (Figure 8)
  kLastRuntime,   ///< user's last completed runtime (k-NN, k=1)
  kRunningMean,   ///< user's all-time mean runtime
  kEwma,          ///< exponentially weighted moving average (alpha=0.5)
};

[[nodiscard]] std::string to_string(PredictorKind kind);
[[nodiscard]] std::unique_ptr<predict::RuntimePredictor> make_predictor(PredictorKind kind);

/// A portfolio run's extra outputs beyond the engine metrics.
struct PortfolioStats {
  std::size_t invocations = 0;                ///< selection processes run
  double total_selection_cost_ms = 0.0;
  double mean_simulated_per_invocation = 0.0;
  std::vector<std::size_t> chosen_counts;     ///< per portfolio policy index
};

struct ScenarioResult {
  RunResult run;
  bool is_portfolio = false;
  PortfolioStats portfolio;  ///< valid iff is_portfolio
};

/// Run one fixed constituent policy over a trace. `recorder` (optional,
/// borrowed) observes the run; see ClusterSimulation.
[[nodiscard]] ScenarioResult run_single_policy(const EngineConfig& config,
                                               const workload::Trace& trace,
                                               policy::PolicyTriple triple,
                                               PredictorKind predictor,
                                               obs::Recorder* recorder = nullptr);

/// Run the portfolio scheduler over a trace. `recorder` (optional,
/// borrowed) additionally captures per-round selection telemetry through
/// the scheduler's selector.
[[nodiscard]] ScenarioResult run_portfolio(const EngineConfig& config,
                                           const workload::Trace& trace,
                                           const policy::Portfolio& portfolio,
                                           const core::PortfolioSchedulerConfig& pconfig,
                                           PredictorKind predictor,
                                           obs::Recorder* recorder = nullptr);

/// Assemble obs::RunReportInputs from a finished scenario (the glue between
/// engine results and the report writer in obs/report.hpp).
[[nodiscard]] obs::RunReportInputs report_inputs(const ScenarioResult& result,
                                                 const EngineConfig& config);

/// Write the end-of-run artifacts a caller asked for: the
/// "psched-run-report/v1" JSON to `report_path` and/or the Chrome trace to
/// `trace_path` (empty path = skip). Returns false if any write failed.
/// `recorder` may be null (the report then has empty obs sections; a trace
/// request needs a recorder at ObsLevel::kTrace to contain events).
/// `checkpoint`, when non-null, fills the report's "checkpoint" section
/// with the supervision counters (DESIGN.md §14); null keeps it absent so
/// non-checkpointed reports stay byte-identical.
bool write_observability_outputs(const ScenarioResult& result,
                                 const EngineConfig& config,
                                 const obs::Recorder* recorder,
                                 const std::string& report_path,
                                 const std::string& trace_path,
                                 const obs::ReportCheckpoint* checkpoint = nullptr);

/// Run `tasks` scenario thunks across a thread pool. Results keep task
/// order. Each task owns its engine: engines are thread-compatible (one
/// engine per thread, no shared mutable state).
[[nodiscard]] std::vector<ScenarioResult> run_parallel(
    const std::vector<std::function<ScenarioResult()>>& tasks, std::size_t threads = 0);

/// Default engine configuration matching the paper's setup: 256 VMs,
/// 120 s boot delay, 20 s scheduling period, 10 s slowdown bound,
/// U(kappa=100, alpha=1, beta=1).
[[nodiscard]] EngineConfig paper_engine_config();

/// Default portfolio scheduler configuration matching the engine config:
/// unbounded selection budget, lambda=0.6, selection every tick.
[[nodiscard]] core::PortfolioSchedulerConfig paper_portfolio_config(
    const EngineConfig& engine);

}  // namespace psched::engine
