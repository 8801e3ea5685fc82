// Quiet-instant skipping oracle (DESIGN.md §2). The engine dispatches only
// the scheduling instants that can change state. Its every-instant twin is
// the same engine with a telemetry sample at every tick
// (telemetry_every_ticks = 1), which makes every instant a wake-up, so it
// runs every tick the way an engine without skipping would. Both runs must
// produce bit-identical outputs: metrics, ticks, leases, job records,
// failure and pricing stats (engine::first_output_difference). Only
// telemetry and the dispatched-event count may differ, and the skipping run
// must dispatch strictly fewer events, so the skipping cannot silently
// switch itself off.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/tenant.hpp"
#include "workload/generator.hpp"

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

policy::PolicyTriple triple(const std::string& name) {
  const policy::PolicyTriple* t = paper().find(name);
  EXPECT_NE(t, nullptr) << name;
  return t != nullptr ? *t : paper().policies().front();
}

EngineConfig base_config() {
  EngineConfig config = paper_engine_config();
  config.keep_job_records = true;
  return config;
}

/// Run `scenario` skipping quiet instants and as its every-instant twin;
/// the outputs must agree bit for bit and the twin must dispatch more.
void expect_twin_identical(const EngineConfig& config,
                           const std::function<ScenarioResult(const EngineConfig&)>& scenario) {
  EngineConfig every = config;
  every.telemetry_every_ticks = 1;
  const ScenarioResult skipping = scenario(config);
  const ScenarioResult twin = scenario(every);
  EXPECT_EQ(first_output_difference(skipping, twin), "");
  EXPECT_LT(skipping.run.events, twin.run.events);
}

workload::Trace archetype_trace(std::size_t archetype, double days, std::uint64_t seed,
                                int max_procs = 64) {
  return workload::TraceGenerator(workload::paper_archetypes(days)[archetype])
      .generate(seed)
      .cleaned(max_procs);
}

// --- 4 archetypes x both release rules x the 5 provisioning policies --------

using ConstituentCase = std::tuple<std::size_t, ReleaseRule, std::size_t>;

constexpr const char* kProvisioning[] = {"ODA", "ODB", "ODE", "ODM", "ODX"};

class ConstituentTwin : public ::testing::TestWithParam<ConstituentCase> {};

TEST_P(ConstituentTwin, MatchesEveryInstantRun) {
  const auto [archetype, rule, provisioning] = GetParam();
  static constexpr const char* kJobSelection[] = {"FCFS", "LXF", "WFP3", "UNICEF"};
  static constexpr const char* kVmSelection[] = {"FirstFit", "BestFit", "WorstFit"};
  // Vary the other two components with the provisioning index so every
  // job- and VM-selection policy runs somewhere in the matrix.
  const std::string name = std::string(kProvisioning[provisioning]) + "-" +
                           kJobSelection[(provisioning + archetype) % 4] + "-" +
                           kVmSelection[(provisioning + archetype) % 3];
  const workload::Trace trace = archetype_trace(archetype, 0.5, 1000 + archetype);
  ASSERT_FALSE(trace.empty());
  EngineConfig config = base_config();
  config.release_rule = rule;
  expect_twin_identical(config, [&](const EngineConfig& c) {
    return run_single_policy(c, trace, triple(name), PredictorKind::kTsafrir);
  });
}

std::string constituent_case_name(const ::testing::TestParamInfo<ConstituentCase>& info) {
  static constexpr const char* kArchetypes[] = {"KTH", "SDSC", "DAS2", "LPC"};
  const auto [archetype, rule, provisioning] = info.param;
  return std::string(kArchetypes[archetype]) +
         (rule == ReleaseRule::kEagerSurplus ? "_Eager_" : "_Boundary_") +
         kProvisioning[provisioning];
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConstituentTwin,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u),
                       ::testing::Values(ReleaseRule::kEagerSurplus, ReleaseRule::kBoundary),
                       ::testing::Values(0u, 1u, 2u, 3u, 4u)),
    constituent_case_name);

// --- portfolio, failures, pricing, tenants ---------------------------------

core::PortfolioSchedulerConfig fixed_count(const EngineConfig& config, std::size_t count) {
  core::PortfolioSchedulerConfig pconfig = paper_portfolio_config(config);
  pconfig.selector.budget_mode = core::BudgetMode::kFixedCount;
  pconfig.selector.fixed_count = count;
  return pconfig;
}

TEST(TickElision, FixedCountPortfolioMatchesEveryInstantRun) {
  const workload::Trace trace = archetype_trace(0, 0.5, 2013);
  expect_twin_identical(base_config(), [&](const EngineConfig& c) {
    return run_portfolio(c, trace, paper(), fixed_count(c, 12), PredictorKind::kTsafrir);
  });
}

TEST(TickElision, FailuresMatchEveryInstantRun) {
  const workload::Trace trace = archetype_trace(1, 0.5, 77, 32);
  for (const ReleaseRule rule : {ReleaseRule::kEagerSurplus, ReleaseRule::kBoundary}) {
    EngineConfig config = base_config();
    config.release_rule = rule;
    config.provider.max_vms = 32;
    config.failure.p_boot_fail = 0.1;
    config.failure.vm_mtbf_seconds = 3.0 * kSecondsPerHour;
    config.failure.api_outage_gap_seconds = 2.0 * kSecondsPerHour;
    config.failure.api_outage_duration_seconds = 300.0;
    config.failure.seed = 5;
    config.resilience.max_resubmits = 2;
    expect_twin_identical(config, [&](const EngineConfig& c) {
      const ScenarioResult r =
          run_single_policy(c, trace, triple("ODA-FCFS-BestFit"), PredictorKind::kPerfect);
      EXPECT_GT(r.run.metrics.failures.vm_crashes, 0u);
      return r;
    });
  }
}

TEST(TickElision, PricingPortfolioMatchesEveryInstantRun) {
  const workload::Trace trace = archetype_trace(0, 0.5, 31, 16);
  for (const ReleaseRule rule : {ReleaseRule::kEagerSurplus, ReleaseRule::kBoundary}) {
    EngineConfig config = base_config();
    config.release_rule = rule;
    cloud::PricingConfig& pricing = config.pricing;
    pricing.families.push_back(cloud::VmFamily{"small", 0.5, 30.0, 16});
    pricing.families.push_back(cloud::VmFamily{"std", 1.0, 120.0, 0});
    pricing.spot_price_fraction = 0.3;
    pricing.spot_mtbf_seconds = 2.0 * kSecondsPerHour;
    pricing.spot_warning_seconds = 120.0;
    pricing.schedule = {{0.0, 1.0}, {4000.0, 1.4}};
    pricing.walk_step = 0.1;
    pricing.walk_epoch_seconds = 1800.0;
    pricing.reserved_count = 2;
    pricing.reserved_term_seconds = 24.0 * kSecondsPerHour;
    pricing.seed = 77;
    expect_twin_identical(config, [&](const EngineConfig& c) {
      const ScenarioResult r = run_portfolio(c, trace, tiered(), fixed_count(c, 16),
                                             PredictorKind::kPerfect);
      EXPECT_GT(r.run.metrics.pricing.spot_revocations, 0u);
      return r;
    });
  }
}

TEST(TickElision, FourTenantExperimentMatchesEveryInstantRun) {
  std::vector<workload::Trace> traces;
  for (std::size_t i = 0; i < 4; ++i)
    traces.push_back(archetype_trace(i, 0.3, tenant_workload_seed(3, i), 16));
  MultiTenantConfig config;
  config.engine = base_config();
  config.engine.provider.max_vms = 64;
  config.engine.release_rule = ReleaseRule::kBoundary;
  config.portfolio = &paper();
  config.scheduler = fixed_count(config.engine, 8);
  config.arbitration_period_ticks = 3;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    TenantConfig tenant;
    tenant.weight = i == 0 ? 2.0 : 1.0;
    tenant.budget_vm_hours = i == 1 ? 1.0 : 0.0;
    tenant.failure.vm_mtbf_seconds = 4.0 * kSecondsPerHour;
    tenant.failure.seed = tenant_failure_seed(9, i);
    tenant.resilience.max_resubmits = 1;
    tenant.trace = &traces[i];
    config.tenants.push_back(tenant);
  }
  MultiTenantConfig every = config;
  every.engine.telemetry_every_ticks = 1;
  const MultiTenantResult skipping = MultiTenantExperiment(config).run();
  const MultiTenantResult twin = MultiTenantExperiment(every).run();
  EXPECT_EQ(first_output_difference(skipping, twin), "");
  EXPECT_LT(skipping.events, twin.events);
}

// --- same-instant edge cases --------------------------------------------------

workload::Job job(JobId id, double submit, double runtime, int procs) {
  workload::Job j;
  j.id = id;
  j.submit = submit;
  j.runtime = runtime;
  j.procs = procs;
  j.estimate = runtime;
  return j;
}

class EdgeTwin : public ::testing::TestWithParam<ReleaseRule> {
 protected:
  void expect_identical(const EngineConfig& base, const workload::Trace& trace) {
    EngineConfig config = base;
    config.release_rule = GetParam();
    config.validation.check_invariants = true;
    config.validation.abort_on_violation = true;
    expect_twin_identical(config, [&](const EngineConfig& c) {
      return run_single_policy(c, trace, triple("ODA-FCFS-FirstFit"),
                               PredictorKind::kPerfect);
    });
  }
};

TEST_P(EdgeTwin, RuntimeOfExactlyOnePeriod) {
  // Each short job finishes exactly on a scheduling instant, next to a
  // 2-hour job whose quiet stretch is skipped.
  const workload::Trace trace(
      "t", 64,
      {job(0, 0.0, 7200.0, 1), job(1, 0.0, 20.0, 1), job(2, 300.0, 20.0, 2),
       job(3, 1000.0, 20.0, 1)});
  expect_identical(base_config(), trace);
}

TEST_P(EdgeTwin, ArrivalExactlyOnAnInstant) {
  // Arrivals land on skipped instants of a live, quiet chain.
  const workload::Trace trace(
      "t", 64,
      {job(0, 0.0, 7200.0, 1), job(1, 600.0, 100.0, 1), job(2, 1800.0, 30.0, 3),
       job(3, 3620.0, 10.0, 1)});
  expect_identical(base_config(), trace);
}

TEST_P(EdgeTwin, OffGridBootDelay) {
  EngineConfig config = base_config();
  config.provider.boot_delay = 37.5;
  const workload::Trace trace(
      "t", 64,
      {job(0, 3.0, 5000.0, 1), job(1, 417.0, 61.0, 2), job(2, 2222.5, 13.0, 1)});
  expect_identical(config, trace);
}

TEST_P(EdgeTwin, CrashThatEmptiesTheFleet) {
  // One long single-VM job on a crash-prone lease, no resubmission: the
  // crash kills the job for good and leaves no VM, so the next instant is
  // dispatched only to end the chain.
  EngineConfig config = base_config();
  config.failure.vm_mtbf_seconds = 1800.0;
  config.failure.seed = 11;
  config.resilience.max_resubmits = 0;
  const workload::Trace trace("t", 64, {job(0, 0.0, 36000.0, 1)});
  EngineConfig every = config;
  every.release_rule = GetParam();
  every.telemetry_every_ticks = 1;
  const ScenarioResult twin = run_single_policy(every, trace, triple("ODA-FCFS-FirstFit"),
                                                PredictorKind::kPerfect);
  ASSERT_GE(twin.run.metrics.failures.vm_crashes, 1u);
  ASSERT_EQ(twin.run.metrics.failures.jobs_killed_final, 1u);
  expect_identical(config, trace);
}

std::string rule_name(const ::testing::TestParamInfo<ReleaseRule>& info) {
  return info.param == ReleaseRule::kEagerSurplus ? "Eager" : "Boundary";
}

INSTANTIATE_TEST_SUITE_P(BothRules, EdgeTwin,
                         ::testing::Values(ReleaseRule::kEagerSurplus,
                                           ReleaseRule::kBoundary),
                         rule_name);

// --- exact work counts --------------------------------------------------------

TEST(TickElision, PinsTicksAndEventsOfOneKthDay) {
  // Every instant of the chain still counts as a tick: 6312, as when every
  // tick was dispatched. Dispatched events fell from 7188 to 1517.
  const workload::Trace trace = archetype_trace(0, 1.0, 20130717);
  const ScenarioResult r = run_single_policy(paper_engine_config(), trace,
                                             triple("ODA-FCFS-FirstFit"),
                                             PredictorKind::kPerfect);
  EXPECT_EQ(r.run.metrics.jobs, 90u);
  EXPECT_EQ(r.run.ticks, 6312u);
  EXPECT_EQ(r.run.events, 1517u);
}

}  // namespace
}  // namespace psched::engine
