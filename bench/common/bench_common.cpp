#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace psched::bench {

BenchEnv parse_env(int argc, const char* const* argv) {
  const util::ArgParser args(argc, argv);
  constexpr std::string_view kFlags[] = {"weeks", "seed", "csv", "report", "threads"};
  if (const std::string unknown = args.first_unknown(kFlags); !unknown.empty()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unknown.c_str());
    std::exit(1);
  }
  BenchEnv env;
  env.weeks = args.get_double("weeks", env.weeks);
  if (const char* raw = std::getenv("PSCHED_BENCH_WEEKS"); raw != nullptr && !args.has("weeks")) {
    env.weeks = std::strtod(raw, nullptr);
  }
  env.seed = static_cast<std::uint64_t>(args.get_int("seed", static_cast<std::int64_t>(env.seed)));
  env.csv_path = args.get("csv", "");
  env.report_path = args.get("report", "");
  env.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  return env;
}

std::vector<workload::Trace> make_traces(const BenchEnv& env) {
  return workload::paper_traces(env.days(), env.seed);
}

const policy::Portfolio& paper_portfolio() {
  static const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  return portfolio;
}

std::vector<engine::ScenarioResult> run_all(
    const BenchEnv& env, std::vector<std::function<engine::ScenarioResult()>> tasks) {
  return engine::run_parallel(tasks, env.threads);
}

std::vector<ClusterBest> best_per_cluster(
    const std::vector<engine::ScenarioResult>& results,
    const metrics::UtilityParams& params) {
  const auto& policies = paper_portfolio().policies();
  std::vector<ClusterBest> best;
  for (std::size_t i = 0; i < results.size() && i < policies.size(); ++i) {
    const std::string cluster = policies[i].provisioning->name();
    const double utility = results[i].run.metrics.utility(params);
    if (best.empty() || best.back().cluster != cluster) {
      best.push_back(ClusterBest{cluster, i, policies[i].name(), utility,
                                 results[i].run.metrics.avg_bounded_slowdown,
                                 results[i].run.metrics.charged_hours()});
      continue;
    }
    if (utility > best.back().utility) {
      best.back() = ClusterBest{cluster, i, policies[i].name(), utility,
                                results[i].run.metrics.avg_bounded_slowdown,
                                results[i].run.metrics.charged_hours()};
    }
  }
  return best;
}

std::vector<engine::ScenarioResult> run_sixty(const BenchEnv& env,
                                              const workload::Trace& trace,
                                              engine::PredictorKind predictor) {
  const engine::EngineConfig config = engine::paper_engine_config();
  std::vector<std::function<engine::ScenarioResult()>> tasks;
  for (const policy::PolicyTriple& triple : paper_portfolio().policies()) {
    tasks.emplace_back([config, &trace, triple, predictor] {
      return engine::run_single_policy(config, trace, triple, predictor);
    });
  }
  return run_all(env, std::move(tasks));
}

engine::ScenarioResult run_portfolio_default(const workload::Trace& trace,
                                             engine::PredictorKind predictor) {
  const engine::EngineConfig config = engine::paper_engine_config();
  return engine::run_portfolio(config, trace, paper_portfolio(),
                               engine::paper_portfolio_config(config), predictor);
}

std::vector<engine::ScenarioResult> figure4_style(const BenchEnv& env,
                                                  engine::PredictorKind predictor,
                                                  const std::string& title) {
  const engine::EngineConfig config = engine::paper_engine_config();
  const std::vector<workload::Trace> traces = make_traces(env);

  util::Table table({"Trace", "Scheduler", "Avg BSD", "Cost [VM-h]", "Utility",
                     "vs best [%]"});
  std::vector<engine::ScenarioResult> portfolio_results;
  for (const workload::Trace& trace : traces) {
    const auto sixty = run_sixty(env, trace, predictor);
    engine::ScenarioResult pf = run_portfolio_default(trace, predictor);
    const auto clusters = best_per_cluster(sixty, config.utility);

    double best_utility = 0.0;
    for (const ClusterBest& cb : clusters) best_utility = std::max(best_utility, cb.utility);
    for (const ClusterBest& cb : clusters) {
      table.add_row({trace.name(), cb.cluster + "-* (" + cb.policy_name + ")",
                     util::Cell(cb.bsd, 3), util::Cell(cb.charged_hours, 0),
                     util::Cell(cb.utility, 2), ""});
    }
    const double pf_utility = pf.run.metrics.utility(config.utility);
    const double gain = best_utility > 0.0
                            ? 100.0 * (pf_utility - best_utility) / best_utility
                            : 0.0;
    table.add_row({trace.name(), "portfolio",
                   util::Cell(pf.run.metrics.avg_bounded_slowdown, 3),
                   util::Cell(pf.run.metrics.charged_hours(), 0),
                   util::Cell(pf_utility, 2), util::Cell(gain, 1)});
    portfolio_results.push_back(std::move(pf));
  }
  emit(env, table, title);
  return portfolio_results;
}

std::string bench_report_json(const util::Table& table, const std::string& title,
                              std::span<const obs::ColumnKind> gate) {
  std::string out = "{\"schema\":\"psched-bench-report/v1\",\"title\":\"";
  out += obs::json_escape(title);
  out += "\",\"headers\":[";
  const std::vector<std::string>& headers = table.headers();
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += obs::json_escape(headers[i]);
    out += '"';
  }
  out += ']';
  if (!gate.empty()) {
    // One comparison kind per column (see obs/bench_gate.hpp); the size must
    // line up or the document would fail its own validator.
    out += ",\"gate\":[";
    for (std::size_t i = 0; i < gate.size(); ++i) {
      if (i != 0) out += ',';
      out += '"';
      out += obs::to_string(gate[i]);
      out += '"';
    }
    out += ']';
  }
  out += ",\"rows\":[";
  for (std::size_t r = 0; r < table.rows(); ++r) {
    if (r != 0) out += ',';
    out += '[';
    const std::vector<util::Cell>& cells = table.row(r);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) out += ',';
      // Numeric cells render as JSON numbers (Cell::str() already formats
      // int64/fixed-precision doubles in JSON-compatible syntax).
      if (cells[c].numeric()) {
        out += cells[c].str();
      } else {
        out += '"';
        out += obs::json_escape(cells[c].str());
        out += '"';
      }
    }
    out += ']';
  }
  out += "]}\n";
  return out;
}

void emit(const BenchEnv& env, const util::Table& table, const std::string& title,
          std::span<const obs::ColumnKind> gate) {
  std::fputs(table.render(title).c_str(), stdout);
  std::fputc('\n', stdout);
  if (!env.csv_path.empty()) {
    if (table.save_csv(env.csv_path)) {
      std::printf("[csv] wrote %s\n", env.csv_path.c_str());
    } else {
      std::fprintf(stderr, "[csv] FAILED to write %s\n", env.csv_path.c_str());
    }
  }
  if (!env.report_path.empty()) {
    if (obs::write_text_file(env.report_path, bench_report_json(table, title, gate))) {
      std::printf("[report] wrote %s\n", env.report_path.c_str());
    } else {
      std::fprintf(stderr, "[report] FAILED to write %s\n", env.report_path.c_str());
    }
  }
}

void banner(const std::string& name, const BenchEnv& env) {
  std::printf("=== %s ===\n", name.c_str());
  std::printf("traces: 4 synthetic PWA archetypes, %.1f weeks, seed %llu\n",
              env.weeks, static_cast<unsigned long long>(env.seed));
  std::printf("cloud: 256 VMs max, 120 s boot, hourly billing; "
              "scheduler period 20 s\n\n");
}

}  // namespace psched::bench
