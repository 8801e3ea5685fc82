// Ablation — is Algorithm 1's Smart/Stale/Poor structure worth it? Under
// the same per-selection budget (Delta = 200 ms at 10 ms/policy => ~20 of
// 60 policies), compare:
//   alg1        the paper's time-constrained simulation (Algorithm 1)
//   exhaustive  unbounded budget (simulate all 60; the quality ceiling)
//   random-k    simulate 20 uniformly random policies, pick the best
//
// Expected shape: alg1 ~ exhaustive >> random-k on traces where a few
// policies dominate, because the Smart set re-verifies previous winners
// instead of rediscovering them by chance.
#include "bench_common.hpp"
#include "util/rng.hpp"

namespace {

using namespace psched;

/// Baseline selector: evaluate K uniformly random policies per selection.
class RandomSubsetScheduler final : public core::Scheduler {
 public:
  RandomSubsetScheduler(const policy::Portfolio& portfolio, core::OnlineSimConfig sim,
                        std::size_t k, std::uint64_t seed)
      : portfolio_(portfolio),
        simulator_(sim),
        k_(k),
        rng_(seed),
        current_(portfolio.policies().front()) {}
  /// The scheduler borrows its portfolio; a temporary would dangle.
  RandomSubsetScheduler(policy::Portfolio&& portfolio, core::OnlineSimConfig sim,
                        std::size_t k, std::uint64_t seed) = delete;

  policy::PolicyTriple policy_for_tick(std::uint64_t /*tick*/,
                                       std::span<const policy::QueuedJob> queue,
                                       const cloud::CloudProfile& profile) override {
    if (queue.empty()) return current_;
    double best_utility = -1.0;
    std::size_t best_index = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      const auto index = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(portfolio_.size()) - 1));
      const auto outcome =
          simulator_.simulate(queue, profile, portfolio_.policies()[index]);
      if (outcome.utility > best_utility) {
        best_utility = outcome.utility;
        best_index = index;
      }
    }
    current_ = portfolio_.policies()[best_index];
    return current_;
  }
  [[nodiscard]] std::string name() const override { return "random-k"; }

 private:
  const policy::Portfolio& portfolio_;
  core::OnlineSimulator simulator_;
  std::size_t k_;
  util::Rng rng_;
  policy::PolicyTriple current_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace psched;
  const bench::BenchEnv env = bench::parse_env(argc, argv);
  bench::banner("Ablation: Algorithm 1 vs exhaustive vs random-subset selection", env);

  const std::vector<workload::Trace> traces = bench::make_traces(env);
  const engine::EngineConfig config = engine::paper_engine_config();

  util::Table table({"Trace", "Selector", "Avg BSD", "Cost [VM-h]", "Utility"});
  for (const workload::Trace& trace : traces) {
    std::vector<std::function<engine::ScenarioResult()>> tasks;
    // Algorithm 1 with the Figure-10 saturation budget.
    tasks.emplace_back([&trace, &config] {
      auto pconfig = engine::paper_portfolio_config(config);
      pconfig.selector.time_constraint_ms = 200.0;
      pconfig.selector.synthetic_overhead_ms = 10.0;
      pconfig.selector.use_measured_cost = false;
      return engine::run_portfolio(config, trace, bench::paper_portfolio(), pconfig,
                                   engine::PredictorKind::kPerfect);
    });
    // Exhaustive.
    tasks.emplace_back([&trace] {
      return bench::run_portfolio_default(trace, engine::PredictorKind::kPerfect);
    });
    // Random subset of the same size Algorithm 1 affords (~20 policies).
    tasks.emplace_back([&trace, &config] {
      auto pconfig = engine::paper_portfolio_config(config);
      RandomSubsetScheduler scheduler(bench::paper_portfolio(), pconfig.online_sim,
                                      20, /*seed=*/0xab1a7e);
      const auto predictor = engine::make_predictor(engine::PredictorKind::kPerfect);
      engine::ClusterSimulation sim(config, trace, scheduler, *predictor);
      engine::ScenarioResult result;
      result.run = sim.run();
      return result;
    });
    const auto results = bench::run_all(env, std::move(tasks));
    const char* labels[] = {"alg1 (200ms/10ms)", "exhaustive", "random-20"};
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& m = results[i].run.metrics;
      table.add_row({trace.name(), labels[i], util::Cell(m.avg_bounded_slowdown, 3),
                     util::Cell(m.charged_hours(), 0),
                     util::Cell(m.utility(config.utility), 2)});
    }
  }
  bench::emit(env, table, "Selector ablation (same evaluation budget)");
  return 0;
}
