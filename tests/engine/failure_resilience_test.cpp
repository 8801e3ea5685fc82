// Engine-level failure/resilience coverage: the failure-off no-op guarantee,
// determinism of failure-enabled runs across repeats, crash-kill/
// resubmission accounting, resubmission exhaustion, boot-failure retries, and
// API-outage backoff — all with the invariant checker attached in abort mode
// so a passing test doubles as an invariant proof.
#include <gtest/gtest.h>

#include <vector>

#include "engine/cluster_sim.hpp"
#include "engine/experiment.hpp"

namespace psched::engine {
namespace {

const policy::Portfolio& portfolio() {
  static const policy::Portfolio p = policy::Portfolio::paper_portfolio();
  return p;
}

policy::PolicyTriple policy_by_name(const std::string& name) {
  const policy::PolicyTriple* t = portfolio().find(name);
  EXPECT_NE(t, nullptr) << name;
  return *t;
}

workload::Job make_job(JobId id, double submit, double runtime, int procs,
                       UserId user = 0) {
  workload::Job j;
  j.id = id;
  j.submit = submit;
  j.runtime = runtime;
  j.procs = procs;
  j.estimate = runtime * 3;
  j.user = user;
  return j;
}

/// A small but non-trivial workload: staggered arrivals, mixed widths.
std::vector<workload::Job> mixed_jobs(std::size_t count = 12) {
  std::vector<workload::Job> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back(make_job(static_cast<JobId>(i), 300.0 * static_cast<double>(i),
                            600.0 + 150.0 * static_cast<double>(i % 5),
                            1 + static_cast<int>(i % 3),
                            static_cast<UserId>(i % 2)));
  }
  return jobs;
}

/// Checked engine config: invariants on, abort mode — any violation under
/// failures dies loudly instead of being silently recorded.
EngineConfig checked_config() {
  EngineConfig config = paper_engine_config();
  config.validation.check_invariants = true;
  config.validation.abort_on_violation = true;
  return config;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  // Bit-identical, not approximately equal: EXPECT_EQ on doubles.
  EXPECT_EQ(a.metrics.jobs, b.metrics.jobs);
  EXPECT_EQ(a.metrics.avg_bounded_slowdown, b.metrics.avg_bounded_slowdown);
  EXPECT_EQ(a.metrics.avg_wait, b.metrics.avg_wait);
  EXPECT_EQ(a.metrics.rj_proc_seconds, b.metrics.rj_proc_seconds);
  EXPECT_EQ(a.metrics.rv_charged_seconds, b.metrics.rv_charged_seconds);
  EXPECT_EQ(a.metrics.makespan, b.metrics.makespan);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.total_leases, b.total_leases);
  EXPECT_EQ(a.metrics.failures.boot_failures, b.metrics.failures.boot_failures);
  EXPECT_EQ(a.metrics.failures.vm_crashes, b.metrics.failures.vm_crashes);
  EXPECT_EQ(a.metrics.failures.api_rejected_leases,
            b.metrics.failures.api_rejected_leases);
  EXPECT_EQ(a.metrics.failures.lease_retries, b.metrics.failures.lease_retries);
  EXPECT_EQ(a.metrics.failures.job_kills, b.metrics.failures.job_kills);
  EXPECT_EQ(a.metrics.failures.job_resubmissions,
            b.metrics.failures.job_resubmissions);
  EXPECT_EQ(a.metrics.failures.jobs_killed_final,
            b.metrics.failures.jobs_killed_final);
  EXPECT_EQ(a.metrics.failures.wasted_proc_seconds,
            b.metrics.failures.wasted_proc_seconds);
  EXPECT_EQ(a.metrics.failures.failed_vm_charged_seconds,
            b.metrics.failures.failed_vm_charged_seconds);
}

// ---------------------------------------------------------------------------
// The no-op guarantee: all-zero rates must leave every output bit-identical,
// even with a non-default failure seed (the model is never constructed).

TEST(FailureResilience, AllZeroRatesAreBitIdenticalSinglePolicy) {
  const workload::Trace trace("t", 64, mixed_jobs());
  const EngineConfig base = checked_config();
  EngineConfig zeroed = base;
  zeroed.failure.seed = 0xdeadbeef;  // rates all zero: must not matter
  zeroed.resilience.max_resubmits = 7;

  const RunResult a =
      run_single_policy(base, trace, policy_by_name("ODA-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  const RunResult b =
      run_single_policy(zeroed, trace, policy_by_name("ODA-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  expect_identical(a, b);
  EXPECT_FALSE(a.metrics.failures.any());
  EXPECT_FALSE(b.metrics.failures.any());
  // Gated failure checks must not change the check count when off.
  EXPECT_EQ(a.invariant_checks, b.invariant_checks);
}

TEST(FailureResilience, AllZeroRatesAreBitIdenticalPortfolio) {
  const workload::Trace trace("t", 64, mixed_jobs());
  const EngineConfig base = checked_config();
  EngineConfig zeroed = base;
  zeroed.failure.seed = 42;  // rates all zero

  auto run_with = [&](const EngineConfig& config) {
    core::PortfolioSchedulerConfig pconfig = paper_portfolio_config(config);
    pconfig.selection_period_ticks = 8;
    pconfig.selector.budget_mode = core::BudgetMode::kFixedCount;
    pconfig.selector.fixed_count = 12;
    return run_portfolio(config, trace, portfolio(), pconfig,
                         PredictorKind::kPerfect).run;
  };

  expect_identical(run_with(base), run_with(zeroed));
}

// ---------------------------------------------------------------------------
// Failure-enabled runs stay deterministic: fixed seed, fixed-count selector
// budget.

TEST(FailureResilience, FailureRunDeterministicAcrossRepeats) {
  const workload::Trace trace("t", 64, mixed_jobs());
  EngineConfig config = checked_config();
  config.failure.p_boot_fail = 0.1;
  config.failure.vm_mtbf_seconds = 4.0 * kSecondsPerHour;
  config.failure.api_outage_gap_seconds = 2.0 * kSecondsPerHour;
  config.failure.api_outage_duration_seconds = 300.0;
  config.failure.seed = 7;

  auto run = [&] {
    core::PortfolioSchedulerConfig pconfig = paper_portfolio_config(config);
    pconfig.selection_period_ticks = 8;
    pconfig.selector.budget_mode = core::BudgetMode::kFixedCount;
    pconfig.selector.fixed_count = 12;
    return run_portfolio(config, trace, portfolio(), pconfig,
                         PredictorKind::kPerfect).run;
  };

  const RunResult one = run();
  expect_identical(one, run());
}

// ---------------------------------------------------------------------------
// Crash -> kill -> resubmission, with conservation and waste accounting.

TEST(FailureResilience, CrashKillsAreResubmittedAndConserved) {
  // MTBF far below the runtime: crashes are effectively certain. With the
  // default 3 resubmits most jobs die for good; either way every job must be
  // accounted finished-or-killed (the invariant checker enforces the same).
  std::vector<workload::Job> jobs;
  for (JobId i = 0; i < 4; ++i)
    jobs.push_back(make_job(i, 100.0 * static_cast<double>(i), 4000.0, 1));
  const workload::Trace trace("t", 64, jobs);

  EngineConfig config = checked_config();
  config.failure.vm_mtbf_seconds = 1000.0;
  config.failure.seed = 11;

  const RunResult r =
      run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  const metrics::FailureStats& f = r.metrics.failures;
  EXPECT_GE(f.job_kills, 1u);
  EXPECT_GT(f.wasted_proc_seconds, 0.0);
  EXPECT_GT(f.failed_vm_charged_seconds, 0.0);
  // Conservation: every submitted job either finished or was killed final.
  EXPECT_EQ(r.metrics.jobs + f.jobs_killed_final, jobs.size());
  // Kills split into resubmissions and final kills.
  EXPECT_EQ(f.job_kills, f.job_resubmissions + f.jobs_killed_final);
  // The run metrics expose the failure-aware aggregates.
  EXPECT_EQ(r.metrics.goodput_proc_seconds(), r.metrics.rj_proc_seconds);
  EXPECT_EQ(r.metrics.paid_wasted_seconds(), f.failed_vm_charged_seconds);
  EXPECT_GT(r.invariant_checks, 0u);
}

TEST(FailureResilience, ResubmissionExhaustionKillsForGood) {
  // max_resubmits = 0: the first kill is final.
  const workload::Trace trace("t", 64, {make_job(0, 0.0, 5000.0, 1)});
  EngineConfig config = checked_config();
  config.failure.vm_mtbf_seconds = 100.0;  // crash long before the job ends
  config.failure.seed = 3;
  config.resilience.max_resubmits = 0;

  const RunResult r =
      run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  const metrics::FailureStats& f = r.metrics.failures;
  EXPECT_EQ(r.metrics.jobs, 0u);
  EXPECT_EQ(f.jobs_killed_final, 1u);
  EXPECT_EQ(f.job_kills, 1u);
  EXPECT_EQ(f.job_resubmissions, 0u);
}

TEST(FailureResilience, ResubmitBudgetLetsLuckyJobFinish) {
  // MTBF comparable to the runtime plus a generous resubmit budget: the job
  // is expected to finish eventually; every kill before that is a
  // resubmission.
  const workload::Trace trace("t", 64, {make_job(0, 0.0, 400.0, 1)});
  EngineConfig config = checked_config();
  config.failure.vm_mtbf_seconds = 2000.0;
  config.failure.seed = 5;
  config.resilience.max_resubmits = 50;

  const RunResult r =
      run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  EXPECT_EQ(r.metrics.jobs, 1u);
  EXPECT_EQ(r.metrics.failures.jobs_killed_final, 0u);
  EXPECT_EQ(r.metrics.failures.job_kills, r.metrics.failures.job_resubmissions);
}

// ---------------------------------------------------------------------------
// Boot failures: the lease is charged and retried until a VM survives boot.

TEST(FailureResilience, BootFailuresAreChargedAndRetried) {
  const workload::Trace trace("t", 64, {make_job(0, 0.0, 100.0, 1)});
  EngineConfig config = checked_config();
  config.failure.p_boot_fail = 0.9;  // most boots fail; 1.0 would never finish
  config.failure.seed = 1;

  const RunResult r =
      run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  EXPECT_EQ(r.metrics.jobs, 1u);  // the job still runs eventually
  const metrics::FailureStats& f = r.metrics.failures;
  EXPECT_GE(f.boot_failures, 1u);
  EXPECT_GT(f.failed_vm_charged_seconds, 0.0);  // failed boots still pay
  EXPECT_EQ(f.job_kills, 0u);  // boot failures never kill a running job
}

// ---------------------------------------------------------------------------
// API outages: rejected leases back off and retry; the work still completes.

TEST(FailureResilience, ApiOutageRejectsLeasesThenBackoffRetriesSucceed) {
  // Long outage windows with short gaps: the first lease attempts land in an
  // outage, are rejected, and the scheduler retries under backoff until a
  // clear window appears.
  const workload::Trace trace("t", 64, {make_job(0, 0.0, 100.0, 1),
                                        make_job(1, 50.0, 100.0, 1)});
  EngineConfig config = checked_config();
  config.failure.api_outage_gap_seconds = 100.0;
  config.failure.api_outage_duration_seconds = 2000.0;
  config.failure.seed = 2;

  const RunResult r =
      run_single_policy(config, trace, policy_by_name("ODA-FCFS-FirstFit"),
                        PredictorKind::kPerfect).run;
  EXPECT_EQ(r.metrics.jobs, 2u);  // resilience: the outage only delays work
  const metrics::FailureStats& f = r.metrics.failures;
  EXPECT_GE(f.api_rejected_leases, 1u);
  EXPECT_GE(f.lease_retries, 1u);
  EXPECT_EQ(f.job_kills, 0u);
}

}  // namespace
}  // namespace psched::engine
