// Resume-identity proofs for the checkpoint subsystem (DESIGN.md §14): a
// run interrupted at a checkpoint and resumed must produce a byte-for-byte
// identical "psched-run-report/v1" document to the uninterrupted run — not
// approximately, not within tolerance. The proofs cover the three
// committed golden scenarios (the fig5 paper setup, a failures+pricing
// single-policy run, and the mixed multi-tenant service, also across tenant
// pool widths), always with at least two checkpoint epochs on disk.
//
// Full-report byte comparison needs every report field deterministic, so
// the portfolio proofs run the selector in fixed-count budget mode
// (selection cost is charged in simulation counts, no wall clock). The
// paper-config golden reproductions compare the metric snapshot instead,
// against the *committed* golden files — proving a resumed run reproduces
// repository history, not just a same-binary twin.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "engine/checkpoint.hpp"
#include "engine/experiment.hpp"
#include "engine/tenant.hpp"
#include "obs/report.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace psched {
namespace {

namespace fs = std::filesystem;

/// Absorbs only the goldens' 12-digit decimal round-trip, never drift.
constexpr double kRelTol = 1e-9;

using Golden = std::map<std::string, double>;

Golden read_golden(const std::string& name) {
  const std::string path = std::string(PSCHED_GOLDEN_DIR) + "/" + name + ".txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing committed golden " << path;
  Golden g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, equals;
    double value = 0.0;
    if (fields >> key >> equals >> value && equals == "=") g[key] = value;
  }
  return g;
}

void expect_golden_subset(const std::string& name, const Golden& golden,
                          const Golden& actual) {
  ASSERT_FALSE(golden.empty());
  for (const auto& [key, expected] : golden) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << name << ": metric '" << key << "' disappeared";
    EXPECT_NEAR(it->second, expected, kRelTol * std::max(1.0, std::abs(expected)))
        << name << ": resumed run drifted at '" << key << "'";
  }
}

/// The Figure-5 trace (same generator call as golden_test.cpp).
workload::Trace fig5_trace() {
  return workload::TraceGenerator(workload::kth_sp2_like(0.3)).generate(7).cleaned(64);
}

std::string report_of(const engine::ScenarioResult& result,
                      const engine::EngineConfig& config) {
  return obs::run_report_json(engine::report_inputs(result, config), nullptr);
}

/// Fresh scratch directory per (test, tag).
fs::path scratch_dir(const std::string& tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("psched-resume-" +
       std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
       "-" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

engine::CheckpointConfig checkpoint_config(const fs::path& dir,
                                           std::size_t every) {
  engine::CheckpointConfig c;
  c.every_epochs = every;
  c.directory = dir.string();
  c.keep = 3;
  return c;
}

TEST(CheckpointResume, Fig5PortfolioResumeIsByteIdentical) {
  const workload::Trace trace = fig5_trace();
  ASSERT_FALSE(trace.empty());
  const engine::EngineConfig config = engine::paper_engine_config();
  const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  auto pconfig = engine::paper_portfolio_config(config);
  // Fixed-count budget: selection cost charged in simulation counts, so the
  // whole report — cost gauges included — is a pure function of the config.
  pconfig.selector.budget_mode = core::BudgetMode::kFixedCount;
  pconfig.selector.fixed_count = 12;
  pconfig.selection_period_ticks = 16;

  const engine::ScenarioResult straight = engine::run_portfolio(
      config, trace, portfolio, pconfig, engine::PredictorKind::kPerfect);
  const std::string straight_report = report_of(straight, config);

  const fs::path dir = scratch_dir("fig5");
  // 7 days at a 20 s period is ~30k ticks; every 2500 epochs lands well
  // over the two-checkpoint floor the proof requires.
  engine::CheckpointConfig ckpt = checkpoint_config(dir, 2500);
  engine::CheckpointStats write_stats;
  const engine::ScenarioResult checkpointed = engine::run_portfolio_checkpointed(
      config, trace, portfolio, pconfig, engine::PredictorKind::kPerfect, ckpt,
      write_stats);
  EXPECT_GE(write_stats.written, 2u);
  EXPECT_EQ(report_of(checkpointed, config), straight_report)
      << "checkpoint supervision must not move a single byte";

  engine::CheckpointConfig resume = ckpt;
  resume.resume_from = "auto";
  engine::CheckpointStats resume_stats;
  const engine::ScenarioResult resumed = engine::run_portfolio_checkpointed(
      config, trace, portfolio, pconfig, engine::PredictorKind::kPerfect, resume,
      resume_stats);
  EXPECT_EQ(resume_stats.restored, 1u);
  EXPECT_EQ(resume_stats.rejected, 0u);
  EXPECT_GT(resume_stats.resumed_epoch, 0u);
  EXPECT_EQ(report_of(resumed, config), straight_report)
      << "resume must be byte-identical to the uninterrupted run";
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CheckpointResume, Fig5ResumedReproducesTheCommittedGolden) {
  // The exact committed fig5 scenario (paper config, perfect predictor),
  // interrupted and resumed: every pinned metric must come back bit-for-bit
  // against the repository's own golden file.
  const workload::Trace trace = fig5_trace();
  const engine::EngineConfig config = engine::paper_engine_config();
  const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  const auto pconfig = engine::paper_portfolio_config(config);

  const fs::path dir = scratch_dir("golden");
  engine::CheckpointConfig ckpt = checkpoint_config(dir, 2500);
  engine::CheckpointStats write_stats;
  const engine::ScenarioResult seeded = engine::run_portfolio_checkpointed(
      config, trace, portfolio, pconfig, engine::PredictorKind::kPerfect, ckpt,
      write_stats);
  ASSERT_GE(write_stats.written, 2u);

  engine::CheckpointConfig resume = ckpt;
  resume.resume_from = "auto";
  engine::CheckpointStats resume_stats;
  const engine::ScenarioResult result = engine::run_portfolio_checkpointed(
      config, trace, portfolio, pconfig, engine::PredictorKind::kPerfect,
      resume, resume_stats);
  EXPECT_EQ(resume_stats.restored, 1u);
  EXPECT_GT(resume_stats.resumed_epoch, 0u);

  const metrics::RunMetrics& m = result.run.metrics;
  Golden actual;
  actual["jobs"] = static_cast<double>(m.jobs);
  actual["avg_bounded_slowdown"] = m.avg_bounded_slowdown;
  actual["max_bounded_slowdown"] = m.max_bounded_slowdown;
  actual["avg_wait"] = m.avg_wait;
  actual["rj_proc_seconds"] = m.rj_proc_seconds;
  actual["rv_charged_seconds"] = m.rv_charged_seconds;
  actual["makespan"] = m.makespan;
  actual["ticks"] = static_cast<double>(result.run.ticks);
  actual["total_leases"] = static_cast<double>(result.run.total_leases);
  actual["selection_invocations"] =
      static_cast<double>(result.portfolio.invocations);
  expect_golden_subset("fig5_kth_sp2", read_golden("fig5_kth_sp2"), actual);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CheckpointResume, FailuresAndPricingPortfolioIdentity) {
  // The pricing-golden market (two families, spot with revocations, price
  // surge + walk, reserved commitments) with VM crashes layered on — the
  // configuration with the most RNG streams in flight. Checkpointed and
  // resumed reports must still be byte-identical to the straight run's.
  const workload::Trace trace = fig5_trace();
  ASSERT_FALSE(trace.empty());
  engine::EngineConfig config = engine::paper_engine_config();
  config.failure.vm_mtbf_seconds = 3.0 * kSecondsPerHour;
  config.failure.seed = 17;
  config.pricing.families.push_back(cloud::VmFamily{"small", 0.5, 30.0, 32});
  config.pricing.families.push_back(cloud::VmFamily{"std", 1.0, 120.0, 0});
  config.pricing.spot_price_fraction = 0.3;
  config.pricing.spot_mtbf_seconds = 6.0 * kSecondsPerHour;
  config.pricing.spot_warning_seconds = 120.0;
  config.pricing.schedule = {{0.0, 1.0}, {6.0 * kSecondsPerHour, 1.5}};
  config.pricing.walk_step = 0.08;
  config.pricing.walk_epoch_seconds = 3600.0;
  config.pricing.reserved_count = 4;
  config.pricing.seed = 29;
  const policy::Portfolio portfolio = policy::Portfolio::pricing_portfolio();
  auto pconfig = engine::paper_portfolio_config(config);
  pconfig.selection_period_ticks = 8;
  pconfig.selector.budget_mode = core::BudgetMode::kFixedCount;
  pconfig.selector.fixed_count = 36;

  const engine::ScenarioResult straight = engine::run_portfolio(
      config, trace, portfolio, pconfig, engine::PredictorKind::kPerfect);
  const std::string straight_report = report_of(straight, config);
  // The scenario must actually exercise the layers it claims to.
  EXPECT_GT(straight.run.metrics.failures.job_kills, 0u);
  EXPECT_GT(straight.run.metrics.pricing.spot_leases, 0u);

  const fs::path dir = scratch_dir("fp");
  engine::CheckpointConfig ckpt = checkpoint_config(dir, 2500);
  engine::CheckpointStats write_stats;
  const engine::ScenarioResult checkpointed = engine::run_portfolio_checkpointed(
      config, trace, portfolio, pconfig, engine::PredictorKind::kPerfect, ckpt,
      write_stats);
  EXPECT_GE(write_stats.written, 2u);
  EXPECT_EQ(report_of(checkpointed, config), straight_report);

  engine::CheckpointConfig resume = ckpt;
  resume.resume_from = "auto";
  engine::CheckpointStats resume_stats;
  const engine::ScenarioResult resumed = engine::run_portfolio_checkpointed(
      config, trace, portfolio, pconfig, engine::PredictorKind::kPerfect,
      resume, resume_stats);
  EXPECT_EQ(resume_stats.restored, 1u);
  EXPECT_EQ(report_of(resumed, config), straight_report);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CheckpointResume, TenantMixedResumedReproducesTheCommittedGolden) {
  // The full tenant_mixed_kth_sp2 golden scenario (weights, budget cap,
  // per-tenant failures, spot market, fixed-count portfolio) run under
  // checkpoint supervision, crashed on paper at an arbitration epoch, and
  // resumed: the resumed service must reproduce the committed golden and
  // the straight run bit for bit, pool widths included.
  const double weights[] = {2.0, 1.0, 1.0};
  const std::size_t cap = 64;
  std::vector<workload::Trace> traces;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto floor = static_cast<int>(static_cast<double>(cap) * weights[i] / 4.0);
    traces.push_back(workload::TraceGenerator(workload::kth_sp2_like(0.25))
                         .generate(engine::tenant_workload_seed(13, i))
                         .cleaned(floor));
    ASSERT_FALSE(traces.back().empty());
  }
  engine::MultiTenantConfig mt;
  mt.engine = engine::paper_engine_config();
  mt.engine.provider.max_vms = cap;
  mt.engine.pricing.families.push_back(cloud::VmFamily{"small", 0.5, 30.0, 16});
  mt.engine.pricing.families.push_back(cloud::VmFamily{"std", 1.0, 120.0, 0});
  mt.engine.pricing.spot_price_fraction = 0.3;
  mt.engine.pricing.spot_mtbf_seconds = 6.0 * kSecondsPerHour;
  mt.engine.pricing.spot_warning_seconds = 120.0;
  mt.engine.pricing.seed = 29;
  const policy::Portfolio portfolio = policy::Portfolio::pricing_portfolio();
  mt.portfolio = &portfolio;
  mt.scheduler = engine::paper_portfolio_config(mt.engine);
  mt.scheduler.selection_period_ticks = 16;
  mt.scheduler.selector.budget_mode = core::BudgetMode::kFixedCount;
  mt.scheduler.selector.fixed_count = 12;
  mt.arbitration_period_ticks = 2;
  for (std::size_t i = 0; i < 3; ++i) {
    engine::TenantConfig tenant;
    tenant.weight = weights[i];
    tenant.failure.vm_mtbf_seconds = 3.0 * kSecondsPerHour;
    tenant.failure.seed = engine::tenant_failure_seed(13, i);
    tenant.trace = &traces[i];
    mt.tenants.push_back(tenant);
  }
  mt.tenants[2].budget_vm_hours = 6.0;

  const auto collect = [](const engine::MultiTenantResult& result) {
    Golden g;
    const metrics::RunMetrics& m = result.metrics;
    g["jobs"] = static_cast<double>(m.jobs);
    g["avg_bounded_slowdown"] = m.avg_bounded_slowdown;
    g["avg_wait"] = m.avg_wait;
    g["rj_proc_seconds"] = m.rj_proc_seconds;
    g["rv_charged_seconds"] = m.rv_charged_seconds;
    g["makespan"] = m.makespan;
    g["total_leases"] = static_cast<double>(result.total_leases);
    g["epochs"] = static_cast<double>(result.epochs);
    g["arbitrations"] = static_cast<double>(result.arbitrations);
    g["peak_leased"] = static_cast<double>(result.peak_leased);
    g["job_kills"] = static_cast<double>(m.failures.job_kills);
    g["job_resubmissions"] = static_cast<double>(m.failures.job_resubmissions);
    g["jobs_killed_final"] = static_cast<double>(m.failures.jobs_killed_final);
    g["spot_leases"] = static_cast<double>(m.pricing.spot_leases);
    g["spot_revocations"] = static_cast<double>(m.pricing.spot_revocations);
    g["total_spend_dollars"] = m.pricing.total_spend_dollars();
    if (result.is_portfolio)
      g["selection_invocations"] = static_cast<double>(result.portfolio.invocations);
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
      const engine::TenantResult& t = result.tenants[i];
      const std::string prefix = "tenant" + std::to_string(i) + "_";
      g[prefix + "jobs"] = static_cast<double>(t.scenario.run.metrics.jobs);
      g[prefix + "bsd"] = t.scenario.run.metrics.avg_bounded_slowdown;
      g[prefix + "charged_hours"] = t.charged_hours;
      g[prefix + "killed"] =
          static_cast<double>(t.scenario.run.metrics.failures.jobs_killed_final);
      g[prefix + "min_alloc"] = static_cast<double>(t.min_allocation);
      g[prefix + "max_alloc"] = static_cast<double>(t.max_allocation);
      g[prefix + "over_budget"] = t.over_budget ? 1.0 : 0.0;
    }
    return g;
  };

  const fs::path dir = scratch_dir("tenants");
  // ~3.5k arbitration epochs in the golden run; every 1000 gives >= 2.
  engine::CheckpointConfig ckpt = checkpoint_config(dir, 1000);
  engine::CheckpointStats write_stats;
  const Golden seeded =
      collect(engine::run_tenants_checkpointed(mt, ckpt, write_stats));
  ASSERT_GE(write_stats.written, 2u);

  engine::CheckpointConfig resume = ckpt;
  resume.resume_from = "auto";
  engine::CheckpointStats resume_stats;
  const Golden resumed =
      collect(engine::run_tenants_checkpointed(mt, resume, resume_stats));
  EXPECT_EQ(resume_stats.restored, 1u);
  EXPECT_GT(resume_stats.resumed_epoch, 0u);
  EXPECT_EQ(resumed, seeded) << "resume moved a tenant metric";

  // Resuming on a wider pool must not move anything either.
  util::ThreadPool pool(4);
  engine::CheckpointStats pooled_stats;
  const Golden pooled =
      collect(engine::run_tenants_checkpointed(mt, resume, pooled_stats, &pool));
  EXPECT_EQ(pooled_stats.restored, 1u);
  EXPECT_EQ(pooled, seeded) << "pool width changed a resumed tenant metric";

  expect_golden_subset("tenant_mixed_kth_sp2",
                       read_golden("tenant_mixed_kth_sp2"), resumed);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(CheckpointResume, CorruptCheckpointsAreRejectedWithFreshStartFallback) {
  // The corruption matrix, end to end: every write torn or bit-flipped
  // (read-back verification off, so the corrupt files stay on disk). The
  // resume scan must reject every candidate via checkpoint.rejected and
  // fall back to a fresh start that still matches the straight run.
  const workload::Trace trace = fig5_trace();
  const engine::EngineConfig config = engine::paper_engine_config();
  const policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
  const policy::PolicyTriple triple = portfolio.policies().front();
  const engine::ScenarioResult straight = engine::run_single_policy(
      config, trace, triple, engine::PredictorKind::kPerfect);
  const std::string straight_report = report_of(straight, config);

  for (const validate::FaultInjection fault :
       {validate::FaultInjection::kCheckpointTornWrite,
        validate::FaultInjection::kCheckpointBitFlip}) {
    SCOPED_TRACE(static_cast<int>(fault));
    const fs::path dir = scratch_dir(
        fault == validate::FaultInjection::kCheckpointTornWrite ? "torn" : "flip");
    engine::CheckpointConfig ckpt = checkpoint_config(dir, 2500);
    ckpt.inject_fault = fault;
    ckpt.verify_roundtrip = false;
    engine::CheckpointStats write_stats;
    const engine::ScenarioResult corrupted =
        engine::run_single_policy_checkpointed(config, trace, triple,
                                               engine::PredictorKind::kPerfect,
                                               ckpt, write_stats);
    EXPECT_EQ(report_of(corrupted, config), straight_report)
        << "corrupting the checkpoint files must never touch the run itself";

    engine::CheckpointConfig resume = ckpt;
    resume.resume_from = "auto";
    resume.inject_fault = validate::FaultInjection::kNone;
    resume.verify_roundtrip = true;
    engine::CheckpointStats resume_stats;
    const engine::ScenarioResult resumed =
        engine::run_single_policy_checkpointed(config, trace, triple,
                                               engine::PredictorKind::kPerfect,
                                               resume, resume_stats);
    EXPECT_GT(resume_stats.rejected, 0u)
        << "corrupt checkpoints must be detected and counted";
    EXPECT_EQ(resume_stats.restored, 0u);
    EXPECT_EQ(resume_stats.resumed_epoch, 0u) << "must fall back to a fresh start";
    EXPECT_EQ(report_of(resumed, config), straight_report);
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
}

}  // namespace
}  // namespace psched
