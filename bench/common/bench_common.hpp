#pragma once
// Shared harness for the per-table/per-figure experiment binaries: the
// four paper-archetype traces, engine/scheduler configuration, parallel
// scenario execution, and normalized-series printing.
//
// Common flags (every bench):
//   --weeks N   trace horizon in weeks (default 2; the paper runs 9-24
//               months — scale up to approach the paper's regime)
//   --seed S    trace-generation seed (default 20130717)
//   --csv PATH  mirror the main table to a CSV file
//   --threads N worker threads for scenario sweeps (default: hardware)
//   --report PATH  mirror the main table to a machine-readable
//               "psched-bench-report/v1" JSON file (the feed for the
//               BENCH_*.json trajectory; see DESIGN.md §9)

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "obs/bench_gate.hpp"
#include "policy/portfolio.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace psched::bench {

struct BenchEnv {
  double weeks = 2.0;
  std::uint64_t seed = 20130717;  // SC'13 vintage
  std::string csv_path;
  std::string report_path;  ///< --report: bench-report JSON (empty = off)
  std::size_t threads = 0;

  [[nodiscard]] double days() const noexcept { return weeks * 7.0; }
};

/// Parse the common flags. Any other flag is a usage error: prints
/// `error: unknown flag --X` and exits 1 before any work is done.
[[nodiscard]] BenchEnv parse_env(int argc, const char* const* argv);

/// The four cleaned paper traces for this environment.
[[nodiscard]] std::vector<workload::Trace> make_traces(const BenchEnv& env);

/// The shared 60-policy portfolio (built once).
[[nodiscard]] const policy::Portfolio& paper_portfolio();

/// Run scenario thunks in parallel, preserving order.
[[nodiscard]] std::vector<engine::ScenarioResult> run_all(
    const BenchEnv& env, std::vector<std::function<engine::ScenarioResult()>> tasks);

/// Best-utility constituent within one provisioning cluster ("ODA", ...)
/// from a full 60-policy result set ordered like the portfolio.
struct ClusterBest {
  std::string cluster;
  std::size_t policy_index = 0;
  std::string policy_name;
  double utility = 0.0;
  double bsd = 0.0;
  double charged_hours = 0.0;
};
[[nodiscard]] std::vector<ClusterBest> best_per_cluster(
    const std::vector<engine::ScenarioResult>& results,
    const metrics::UtilityParams& params);

/// Run all 60 constituent policies standalone over `trace` (results ordered
/// like Portfolio::policies()).
[[nodiscard]] std::vector<engine::ScenarioResult> run_sixty(
    const BenchEnv& env, const workload::Trace& trace, engine::PredictorKind predictor);

/// Run the portfolio scheduler with the paper-default configuration.
[[nodiscard]] engine::ScenarioResult run_portfolio_default(
    const workload::Trace& trace, engine::PredictorKind predictor);

/// The Figure 4/7/8 experiment: per trace, the best constituent of each
/// provisioning cluster plus the portfolio, with the portfolio's
/// improvement over the best constituent. Returns the rendered table rows
/// and also the portfolio results (for reuse, e.g. Figure 5).
std::vector<engine::ScenarioResult> figure4_style(const BenchEnv& env,
                                                  engine::PredictorKind predictor,
                                                  const std::string& title);

/// Emit the table to stdout (with title) and, if env.csv_path is set, to
/// CSV; if env.report_path is set, also as "psched-bench-report/v1" JSON
/// (numeric cells as JSON numbers, text as strings). A bench that emits
/// several tables overwrites the report with the latest one — point
/// --report at one file per table of interest. When `gate` is non-empty
/// (one obs::ColumnKind per column) the report carries the regression-gate
/// annotation consumed by tools/psched_bench_gate (DESIGN.md §11).
void emit(const BenchEnv& env, const util::Table& table, const std::string& title,
          std::span<const obs::ColumnKind> gate = {});

/// Serialize one table as the "psched-bench-report/v1" document, optionally
/// with a per-column "gate" annotation (empty = none).
[[nodiscard]] std::string bench_report_json(const util::Table& table,
                                            const std::string& title,
                                            std::span<const obs::ColumnKind> gate = {});

/// Print the standard bench banner (scale, seed, configuration).
void banner(const std::string& name, const BenchEnv& env);

}  // namespace psched::bench
