// Micro-benchmarks (google-benchmark): latencies of the kernels the
// portfolio scheduler's 200 ms selection budget is made of — the event
// queue, the online simulator as a function of queue depth, queue ordering,
// and a full unbounded 60-policy selection. These numbers substantiate the
// paper's claim that sub-second selection is feasible for a 256-VM cloud.
//
// Beyond google-benchmark's own flags, `--report PATH` (stripped before
// benchmark::Initialize) mirrors the per-benchmark real times into a gated
// "psched-bench-report/v1" document for tools/psched_bench_gate
// (DESIGN.md §11): benchmark names are exact, times are lower-better.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/round_snapshot.hpp"
#include "core/selector.hpp"
#include "core/sim_arena.hpp"
#include "engine/experiment.hpp"
#include "obs/report.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

using namespace psched;

void BM_EventQueue_SchedulePop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < n; ++i)
      (void)queue.schedule(rng.uniform(0.0, 1e6), [] {});
    while (!queue.empty()) (void)queue.pop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueue_SchedulePop)->Range(64, 65536);

void BM_Simulator_DispatchChain(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < n) sim.after(1.0, tick);
    };
    sim.after(1.0, tick);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Simulator_DispatchChain)->Range(1024, 65536);

std::vector<policy::QueuedJob> make_queue(std::size_t depth) {
  util::Rng rng(7);
  std::vector<policy::QueuedJob> queue;
  for (std::size_t i = 0; i < depth; ++i) {
    policy::QueuedJob q;
    q.id = static_cast<JobId>(i);
    q.submit = static_cast<double>(i);
    q.procs = 1 << rng.uniform_int(0, 4);
    q.predicted_runtime = rng.uniform(10.0, 3000.0);
    queue.push_back(q);
  }
  return queue;
}

cloud::CloudProfile typical_profile() {
  cloud::CloudProfile profile;
  profile.now = 10000.0;
  profile.max_vms = 256;
  profile.boot_delay = 120.0;
  util::Rng rng(9);
  for (int i = 0; i < 64; ++i) {
    cloud::VmView vm;
    vm.lease_time = profile.now - rng.uniform(0.0, 3600.0);
    vm.busy = rng.bernoulli(0.5);
    vm.available_at = vm.busy ? profile.now + rng.uniform(10.0, 2000.0) : profile.now;
    profile.vms.push_back(vm);
  }
  return profile;
}

void BM_OnlineSim_QueueDepth(benchmark::State& state) {
  static const policy::Portfolio& portfolio = *new policy::Portfolio(
      policy::Portfolio::paper_portfolio());
  core::OnlineSimConfig config;
  config.utility = metrics::UtilityParams{100.0, 1.0, 1.0};
  const core::OnlineSimulator sim(config);
  const auto queue = make_queue(static_cast<std::size_t>(state.range(0)));
  const auto profile = typical_profile();
  const auto& policy = portfolio.policies()[13];  // ODB-LXF-FirstFit
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate(queue, profile, policy));
  }
}
BENCHMARK(BM_OnlineSim_QueueDepth)->RangeMultiplier(4)->Range(1, 256);

void BM_OnlineSim_WarmArena(benchmark::State& state) {
  // The selector's per-candidate inner-sim cost on the hot path: the round
  // snapshot is built once per selection round and the arena is reused
  // across candidates, so only the decision loop itself is measured.
  static const policy::Portfolio& portfolio = *new policy::Portfolio(
      policy::Portfolio::paper_portfolio());
  core::OnlineSimConfig config;
  config.utility = metrics::UtilityParams{100.0, 1.0, 1.0};
  const core::OnlineSimulator sim(config);
  const auto queue = make_queue(static_cast<std::size_t>(state.range(0)));
  const auto profile = typical_profile();
  const auto& policy = portfolio.policies()[13];  // ODB-LXF-FirstFit
  core::RoundSnapshot snapshot;
  snapshot.build(queue, profile);
  core::SimArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate(snapshot, policy, arena));
  }
}
BENCHMARK(BM_OnlineSim_WarmArena)->RangeMultiplier(4)->Range(1, 256);

void BM_RoundSnapshot_Build(benchmark::State& state) {
  // Once-per-round cost of snapshotting queue + profile into columns
  // (amortized over all 60 candidates).
  const auto queue = make_queue(static_cast<std::size_t>(state.range(0)));
  const auto profile = typical_profile();
  core::RoundSnapshot snapshot;
  for (auto _ : state) {
    snapshot.build(queue, profile);
    benchmark::DoNotOptimize(snapshot.job_count());
  }
}
BENCHMARK(BM_RoundSnapshot_Build)->RangeMultiplier(4)->Range(16, 256);

void BM_OrderQueue(benchmark::State& state) {
  const auto base = make_queue(static_cast<std::size_t>(state.range(0)));
  const auto policy = policy::make_job_selection("UNICEF");
  for (auto _ : state) {
    auto queue = base;
    policy::order_queue(queue, *policy, 1e6);
    benchmark::DoNotOptimize(queue.data());
  }
}
BENCHMARK(BM_OrderQueue)->Range(16, 4096);

void BM_FullSelection60(benchmark::State& state) {
  static const policy::Portfolio& portfolio = *new policy::Portfolio(
      policy::Portfolio::paper_portfolio());
  core::OnlineSimConfig sim_config;
  sim_config.utility = metrics::UtilityParams{100.0, 1.0, 1.0};
  core::SelectorConfig sel_config;
  sel_config.time_constraint_ms = 0.0;  // unbounded: all 60 policies
  const auto queue = make_queue(static_cast<std::size_t>(state.range(0)));
  const auto profile = typical_profile();
  core::TimeConstrainedSelector selector(portfolio, core::OnlineSimulator(sim_config),
                                         sel_config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(queue, profile));
  }
}
BENCHMARK(BM_FullSelection60)->RangeMultiplier(4)->Range(4, 64);

void BM_TraceGeneration(benchmark::State& state) {
  const workload::TraceGenerator gen(workload::das2_fs0_like(7.0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(seed++));
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_EngineDay(benchmark::State& state) {
  // One simulated day of the bursty archetype under a fixed policy.
  const auto trace =
      workload::TraceGenerator(workload::das2_fs0_like(1.0)).generate(3).cleaned(64);
  static const policy::Portfolio& portfolio = *new policy::Portfolio(
      policy::Portfolio::paper_portfolio());
  const auto config = engine::paper_engine_config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::run_single_policy(
        config, trace, portfolio.policies()[7], engine::PredictorKind::kPerfect));
  }
}
BENCHMARK(BM_EngineDay);

/// Console reporter that additionally captures per-benchmark real times so
/// the run can be mirrored into a gated bench report.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      rows.emplace_back(run.benchmark_name(), run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<std::pair<std::string, double>> rows;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip `--report PATH` / `--report=PATH` before handing the rest to
  // google-benchmark (it rejects unknown flags).
  std::string report_path;
  std::vector<char*> forwarded;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
      continue;
    }
    if (i > 0 && std::strncmp(argv[i], "--report=", 9) == 0) {
      report_path = argv[i] + 9;
      continue;
    }
    forwarded.push_back(argv[i]);
  }
  int forwarded_argc = static_cast<int>(forwarded.size());
  benchmark::Initialize(&forwarded_argc, forwarded.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded_argc, forwarded.data()))
    return 1;

  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  if (!report_path.empty()) {
    util::Table table({"Benchmark", "Real time [ns]"});
    for (const auto& [name, real_ns] : reporter.rows)
      table.add_row({name, util::Cell(real_ns, 0)});
    static constexpr obs::ColumnKind kGate[] = {obs::ColumnKind::kExact,
                                                obs::ColumnKind::kLowerBetter};
    if (obs::write_text_file(
            report_path,
            bench::bench_report_json(table, "Micro-benchmark kernel latencies",
                                     kGate))) {
      std::printf("[report] wrote %s\n", report_path.c_str());
    } else {
      std::fprintf(stderr, "[report] FAILED to write %s\n", report_path.c_str());
      return 1;
    }
  }
  benchmark::Shutdown();
  return 0;
}
