#include "engine/tenant.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "cloud/failure.hpp"
#include "util/assert.hpp"
#include "util/seed_streams.hpp"

namespace psched::engine {

namespace {

/// SplitMix finalizer: decorrelates the per-tenant index from a stream seed.
std::uint64_t mix_index(std::uint64_t seed, std::size_t tenant) {
  std::uint64_t mixed =
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(tenant) + 1);
  mixed ^= mixed >> 30;
  mixed *= 0xbf58476d1ce4e5b9ULL;
  mixed ^= mixed >> 27;
  mixed *= 0x94d049bb133111ebULL;
  mixed ^= mixed >> 31;
  return mixed;
}

/// Split `units` integer units by weight with largest-remainder rounding.
/// Remainder ties (equal fractional parts) go to the lower index, so the
/// division is a pure function of (weights, units). Sums to exactly `units`.
std::vector<std::size_t> weighted_split(const std::vector<double>& weights,
                                        std::size_t units) {
  const std::size_t n = weights.size();
  std::vector<std::size_t> out(n, 0);
  double total = 0.0;
  for (const double w : weights) total += w;
  if (n == 0 || total <= 0.0 || units == 0) return out;
  std::vector<std::pair<double, std::size_t>> remainders;
  remainders.reserve(n);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double quota = static_cast<double>(units) * weights[i] / total;
    out[i] = static_cast<std::size_t>(quota);
    assigned += out[i];
    remainders.emplace_back(quota - std::floor(quota), i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first > b.first;
                     return a.second < b.second;
                   });
  for (std::size_t k = 0; k < remainders.size() && assigned < units; ++k) {
    ++out[remainders[k].second];
    ++assigned;
  }
  // FP slack can leave the floor sum a unit off in either direction; trim
  // deterministically from the highest index so the split stays exact.
  for (std::size_t i = n; i-- > 0 && assigned > units;) {
    while (out[i] > 0 && assigned > units) {
      --out[i];
      --assigned;
    }
  }
  return out;
}

}  // namespace

std::uint64_t tenant_workload_seed(std::uint64_t root, std::size_t tenant) {
  return mix_index(
      cloud::derive_stream_seed(root, util::kStreamTenantWorkload), tenant);
}

std::uint64_t tenant_failure_seed(std::uint64_t root, std::size_t tenant) {
  return mix_index(cloud::derive_stream_seed(root, util::kStreamTenantFailure),
                   tenant);
}

std::vector<std::size_t> arbitrate_capacity(
    const std::vector<TenantDemand>& demands, std::size_t global_cap) {
  const std::size_t n = demands.size();
  std::vector<std::size_t> alloc(n, 0);
  std::size_t used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    alloc[i] = demands[i].floor_vms;
    used += alloc[i];
  }
  PSCHED_ASSERT_MSG(used <= global_cap, "tenant floors exceed the global cap");
  std::size_t remaining = global_cap - used;

  // Progressive filling: grant one VM at a time to the eligible tenant with
  // unmet demand and the lowest allocation-per-weight ratio (ties to the
  // lower tenant id). This is exact weighted max-min over the floors — the
  // marginal VM always goes to the most deprived hungry tenant, so no
  // tenant can sit below its quota share with unmet demand while another
  // grows past its own share (the tenant.fairness invariant).
  const auto fill = [&](const auto& eligible) {
    while (remaining > 0) {
      std::size_t best = n;
      double best_ratio = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!eligible(i) || demands[i].demand_vms <= alloc[i]) continue;
        const double ratio =
            static_cast<double>(alloc[i]) / demands[i].weight;
        if (best == n || ratio < best_ratio) {
          best = i;
          best_ratio = ratio;
        }
      }
      if (best == n) break;  // every eligible demand is met
      ++alloc[best];
      --remaining;
    }
  };
  // In-budget tenants first; over-budget ones only take what is left.
  fill([&](std::size_t i) { return !demands[i].over_budget; });
  fill([&](std::size_t i) { return demands[i].over_budget; });

  // Leftover headroom: allowances are caps, not reservations, so capacity
  // nobody demanded is split across in-budget tenants by weight — demand
  // arriving mid-epoch leases immediately instead of waiting out the
  // arbitration lag. (This also makes symmetric tenants' allowances exactly
  // equal, which the standalone-equivalence tests rely on.)
  if (remaining > 0 && n > 0) {
    std::vector<std::size_t> idx;
    std::vector<double> weights;
    for (std::size_t i = 0; i < n; ++i) {
      if (!demands[i].over_budget) {
        idx.push_back(i);
        weights.push_back(demands[i].weight);
      }
    }
    if (idx.empty()) {
      for (std::size_t i = 0; i < n; ++i) {
        idx.push_back(i);
        weights.push_back(demands[i].weight);
      }
    }
    const std::vector<std::size_t> share = weighted_split(weights, remaining);
    for (std::size_t k = 0; k < idx.size(); ++k) alloc[idx[k]] += share[k];
    remaining = 0;
  }
  return alloc;
}

MultiTenantExperiment::MultiTenantExperiment(MultiTenantConfig config,
                                             util::ThreadPool* pool)
    : config_(std::move(config)), pool_(pool) {
  PSCHED_ASSERT_MSG(!config_.tenants.empty(), "a multi-tenant run needs tenants");
  PSCHED_ASSERT_MSG(config_.arbitration_period_ticks > 0,
                    "arbitration_period_ticks must be positive");
  PSCHED_ASSERT_MSG(
      config_.portfolio != nullptr || config_.policy.provisioning != nullptr,
      "either a portfolio or a fixed policy triple is required");
  double total_weight = 0.0;
  for (const TenantConfig& t : config_.tenants) {
    PSCHED_ASSERT_MSG(t.trace != nullptr, "tenant without a trace");
    PSCHED_ASSERT_MSG(t.weight > 0.0, "tenant weights must be positive");
    total_weight += t.weight;
  }
  // Liveness: a job wider than its tenant's guaranteed quota share could
  // starve forever when every tenant stays hungry (weighted max-min then
  // pins each tenant near its quota). Clean tenant traces to the quota
  // floor — see tenant_trace cleaning in the CLI and fuzz harness.
  const std::size_t cap = config_.engine.provider.max_vms;
  for (std::size_t i = 0; i < config_.tenants.size(); ++i) {
    const TenantConfig& t = config_.tenants[i];
    const auto quota_floor = static_cast<std::size_t>(
        static_cast<double>(cap) * t.weight / total_weight);
    for (const workload::Job& j : t.trace->jobs()) {
      PSCHED_ASSERT_MSG(static_cast<std::size_t>(j.procs) <= quota_floor,
                        "tenant job wider than its quota share could livelock");
    }
  }
}

MultiTenantResult MultiTenantExperiment::run(EpochObserver* observer) {
  PSCHED_ASSERT_MSG(!ran_, "MultiTenantExperiment::run is single-shot");
  ran_ = true;
  const std::size_t n = config_.tenants.size();
  const std::size_t cap = config_.engine.provider.max_vms;

  // Per-tenant engine stacks. Tenant simulations never see a Recorder (it
  // is not safe to share across concurrent engines); the service report is
  // assembled from results instead.
  ResubmitLedger ledger;
  ledger.reset(n);
  std::vector<std::unique_ptr<core::Scheduler>> schedulers;
  std::vector<std::unique_ptr<predict::RuntimePredictor>> predictors;
  std::vector<std::unique_ptr<ClusterSimulation>> sims;
  schedulers.reserve(n);
  predictors.reserve(n);
  sims.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TenantConfig& t = config_.tenants[i];
    EngineConfig ec = config_.engine;
    ec.failure = t.failure;
    ec.resilience = t.resilience;
    if (config_.portfolio != nullptr) {
      schedulers.push_back(std::make_unique<core::PortfolioScheduler>(
          *config_.portfolio, config_.scheduler));
    } else {
      schedulers.push_back(
          std::make_unique<core::SinglePolicyScheduler>(config_.policy));
    }
    predictors.push_back(make_predictor(config_.predictor));
    sims.push_back(std::make_unique<ClusterSimulation>(
        ec, *t.trace, *schedulers.back(), *predictors.back(), nullptr));
    sims.back()->set_tenant(i, &ledger);
  }

  // Service-level checker: arbitration decisions and per-tenant conservation
  // are judged here; per-tenant engine invariants run on each tenant's own
  // checker inside its ClusterSimulation.
  std::unique_ptr<validate::InvariantChecker> checker;
  if (config_.engine.validation.check_invariants) {
    cloud::ProviderConfig intended = config_.engine.provider;
    intended.inject_fault = validate::FaultInjection::kNone;
    checker = std::make_unique<validate::InvariantChecker>(
        config_.engine.validation, intended);
  }

  MultiTenantResult result;
  double total_weight = 0.0;
  for (const TenantConfig& t : config_.tenants) total_weight += t.weight;

  struct AllocationStats {
    std::size_t min = 0;
    std::size_t max = 0;
    double sum = 0.0;
  };
  std::vector<AllocationStats> alloc_stats(n);

  const auto arbitrate = [&](SimTime now) {
    std::vector<TenantDemand> demands(n);
    std::size_t fleet = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const ClusterSimulation::LoadView view = sims[i]->load_view();
      TenantDemand& d = demands[i];
      d.tenant = i;
      d.weight = config_.tenants[i].weight;
      d.floor_vms = view.leased_vms;
      d.demand_vms = view.leased_vms + view.queued_procs;
      d.over_budget = config_.tenants[i].budget_vm_hours > 0.0 &&
                      sims[i]->charged_hours_so_far() >=
                          config_.tenants[i].budget_vm_hours;
      fleet += view.leased_vms;
    }
    // A misbehaving provider (injected faults) can leave the summed fleets
    // above the cap; the arbiter never evicts, so widen its cap to the live
    // fleet and let the checker record the tenant.global-cap violation
    // against the *intended* cap below.
    std::vector<std::size_t> alloc = arbitrate_capacity(demands, std::max(cap, fleet));
    // Seeded faults (validation self-test): the service checker must catch a
    // broken arbiter.
    if (config_.engine.validation.inject_fault ==
        validate::FaultInjection::kTenantCapOvershoot) {
      alloc[0] += 1;  // allocations already sum to the cap: any extra overshoots
    } else if (config_.engine.validation.inject_fault ==
                   validate::FaultInjection::kTenantUnfairShare &&
               checker && checker->violation_count() == 0 &&
               result.arbitrations < 64) {
      // Everything above the floors goes to tenant 0, starving the rest.
      // Injection stops once the checker has caught it (or after a bounded
      // number of arbitrations): a permanently unfair arbiter would starve
      // queued tenants forever and the epoch loop would never terminate.
      std::size_t others = 0;
      for (std::size_t i = 1; i < n; ++i) {
        alloc[i] = demands[i].floor_vms;
        others += alloc[i];
      }
      alloc[0] = cap - others;
    }
    if (checker) {
      std::vector<validate::TenantAllocation> decision(n);
      for (std::size_t i = 0; i < n; ++i) {
        decision[i].tenant = i;
        decision[i].weight = demands[i].weight;
        decision[i].leased_vms = demands[i].floor_vms;
        decision[i].demand_vms = demands[i].demand_vms;
        decision[i].allocated_vms = alloc[i];
        decision[i].over_budget = demands[i].over_budget;
      }
      checker->on_tenant_arbitration(decision, cap, now);
    }
    for (std::size_t i = 0; i < n; ++i) {
      sims[i]->set_vm_allowance(alloc[i]);
      AllocationStats& stats = alloc_stats[i];
      if (result.arbitrations == 0) {
        stats.min = stats.max = alloc[i];
      } else {
        stats.min = std::min(stats.min, alloc[i]);
        stats.max = std::max(stats.max, alloc[i]);
      }
      stats.sum += static_cast<double>(alloc[i]);
    }
    result.peak_leased = std::max(result.peak_leased, fleet);
    ++result.arbitrations;
  };

  const auto advance_epoch = [&](SimTime horizon) {
    const auto step = [&](std::size_t i) {
      if (sims[i]->active()) sims[i]->advance_until(horizon);
    };
    if (pool_ != nullptr) {
      pool_->run_batch(n, step);
    } else {
      for (std::size_t i = 0; i < n; ++i) step(i);
    }
  };

  // Full-experiment state capture at an epoch boundary (checkpoint support):
  // every tenant's engine under a "t<i>." scope, then the coordinator's own
  // accumulators. Runs on the coordinating thread between epochs.
  const auto capture_all = [&](util::StateDigest& digest) {
    for (std::size_t i = 0; i < n; ++i) {
      std::string scope = "t";
      scope += std::to_string(i);
      scope += '.';
      digest.set_scope(std::move(scope));
      sims[i]->capture_checkpoint_state(digest);
    }
    digest.set_scope("");
    digest.add_u64("service.epochs", result.epochs);
    digest.add_u64("service.arbitrations", result.arbitrations);
    digest.add_size("service.peak_leased", result.peak_leased);
    std::uint64_t allocs = 0;
    for (std::size_t i = 0; i < n; ++i) {
      allocs = util::digest_mix(allocs, static_cast<std::uint64_t>(alloc_stats[i].min));
      allocs = util::digest_mix(allocs, static_cast<std::uint64_t>(alloc_stats[i].max));
      allocs = util::digest_mix(allocs, alloc_stats[i].sum);
    }
    digest.add_u64("service.alloc_stats", allocs);
    if (checker) digest.add_u64("service.checks", checker->checks_run());
  };

  for (std::size_t i = 0; i < n; ++i) sims[i]->start();
  arbitrate(0.0);
  const SimDuration epoch =
      config_.engine.schedule_period *
      static_cast<double>(config_.arbitration_period_ticks);
  while (true) {
    bool any_active = false;
    for (std::size_t i = 0; i < n; ++i) any_active = any_active || sims[i]->active();
    if (!any_active) break;
    ++result.epochs;
    // Exact multiples of the epoch keep the horizon aligned with the
    // engines' phase-aligned ticks (no accumulated FP drift).
    const SimTime horizon = static_cast<double>(result.epochs) * epoch;
    advance_epoch(horizon);
    arbitrate(horizon);
    if (observer != nullptr) {
      bool still_active = false;
      for (std::size_t i = 0; i < n; ++i)
        still_active = still_active || sims[i]->active();
      if (still_active) observer->on_epoch_boundary(result.epochs, capture_all);
    }
  }

  // Finish every tenant (coordinator thread, tenant-id order) and aggregate.
  result.is_portfolio = config_.portfolio != nullptr;
  double slowdown_weighted = 0.0;
  double wait_weighted = 0.0;
  double wf_makespan_weighted = 0.0;
  SimTime end_time = 0.0;
  for (std::size_t i = 0; i < n; ++i) end_time = std::max(end_time, sims[i]->now());
  for (std::size_t i = 0; i < n; ++i) {
    const TenantConfig& t = config_.tenants[i];
    TenantResult tr;
    tr.name = t.name.empty() ? "tenant-" + std::to_string(i) : t.name;
    tr.weight = t.weight;
    tr.budget_vm_hours = t.budget_vm_hours;
    tr.scenario.run = sims[i]->finish();
    tr.scenario.is_portfolio = result.is_portfolio;
    if (result.is_portfolio) {
      const auto& portfolio_scheduler =
          static_cast<const core::PortfolioScheduler&>(*schedulers[i]);
      const core::ReflectionStore& reflection = portfolio_scheduler.reflection();
      tr.scenario.portfolio.invocations = reflection.invocations();
      tr.scenario.portfolio.total_selection_cost_ms = reflection.total_cost_ms();
      tr.scenario.portfolio.mean_simulated_per_invocation =
          reflection.mean_simulated_per_invocation();
      tr.scenario.portfolio.chosen_counts = reflection.chosen_counts();
    }
    const metrics::RunMetrics& m = tr.scenario.run.metrics;
    tr.charged_hours = m.charged_hours();
    tr.over_budget = t.budget_vm_hours > 0.0 && tr.charged_hours >= t.budget_vm_hours;
    tr.min_allocation = alloc_stats[i].min;
    tr.max_allocation = alloc_stats[i].max;
    tr.mean_allocation = result.arbitrations > 0
                             ? alloc_stats[i].sum /
                                   static_cast<double>(result.arbitrations)
                             : 0.0;

    if (checker) {
      checker->on_tenant_run_end(i, t.trace->size(), m.jobs,
                                 m.failures.jobs_killed_final, end_time);
    }

    // Aggregate: counts and totals sum; per-job rates job-weighted; span
    // metrics take the max.
    metrics::RunMetrics& agg = result.metrics;
    agg.jobs += m.jobs;
    agg.rj_proc_seconds += m.rj_proc_seconds;
    agg.rv_charged_seconds += m.rv_charged_seconds;
    agg.makespan = std::max(agg.makespan, m.makespan);
    agg.max_bounded_slowdown = std::max(agg.max_bounded_slowdown, m.max_bounded_slowdown);
    slowdown_weighted += m.avg_bounded_slowdown * static_cast<double>(m.jobs);
    wait_weighted += m.avg_wait * static_cast<double>(m.jobs);
    agg.workflows += m.workflows;
    wf_makespan_weighted += m.avg_workflow_makespan * static_cast<double>(m.workflows);
    agg.max_workflow_makespan =
        std::max(agg.max_workflow_makespan, m.max_workflow_makespan);
    agg.failures.boot_failures += m.failures.boot_failures;
    agg.failures.vm_crashes += m.failures.vm_crashes;
    agg.failures.api_rejected_leases += m.failures.api_rejected_leases;
    agg.failures.api_rejected_releases += m.failures.api_rejected_releases;
    agg.failures.lease_retries += m.failures.lease_retries;
    agg.failures.job_kills += m.failures.job_kills;
    agg.failures.job_resubmissions += m.failures.job_resubmissions;
    agg.failures.jobs_killed_final += m.failures.jobs_killed_final;
    agg.failures.wasted_proc_seconds += m.failures.wasted_proc_seconds;
    agg.failures.failed_vm_charged_seconds += m.failures.failed_vm_charged_seconds;
    agg.pricing.families = std::max(agg.pricing.families, m.pricing.families);
    agg.pricing.on_demand_leases += m.pricing.on_demand_leases;
    agg.pricing.spot_leases += m.pricing.spot_leases;
    agg.pricing.reserved_leases += m.pricing.reserved_leases;
    agg.pricing.spot_warnings += m.pricing.spot_warnings;
    agg.pricing.spot_revocations += m.pricing.spot_revocations;
    agg.pricing.spend_on_demand_dollars += m.pricing.spend_on_demand_dollars;
    agg.pricing.spend_spot_dollars += m.pricing.spend_spot_dollars;
    agg.pricing.spend_reserved_dollars += m.pricing.spend_reserved_dollars;
    agg.pricing.spot_savings_dollars += m.pricing.spot_savings_dollars;
    agg.pricing.revoked_charged_seconds += m.pricing.revoked_charged_seconds;

    result.ticks += tr.scenario.run.ticks;
    result.events += tr.scenario.run.events;
    result.total_leases += tr.scenario.run.total_leases;
    result.invariant_checks += tr.scenario.run.invariant_checks;
    for (const validate::Violation& v : tr.scenario.run.invariant_violations)
      result.invariant_violations.push_back(v);
    if (result.is_portfolio) {
      result.portfolio.invocations += tr.scenario.portfolio.invocations;
      result.portfolio.total_selection_cost_ms +=
          tr.scenario.portfolio.total_selection_cost_ms;
      result.portfolio.mean_simulated_per_invocation +=
          tr.scenario.portfolio.mean_simulated_per_invocation *
          static_cast<double>(tr.scenario.portfolio.invocations);
      if (result.portfolio.chosen_counts.size() <
          tr.scenario.portfolio.chosen_counts.size()) {
        result.portfolio.chosen_counts.resize(
            tr.scenario.portfolio.chosen_counts.size(), 0);
      }
      for (std::size_t k = 0; k < tr.scenario.portfolio.chosen_counts.size(); ++k)
        result.portfolio.chosen_counts[k] += tr.scenario.portfolio.chosen_counts[k];
    }
    result.tenants.push_back(std::move(tr));
  }
  if (result.metrics.jobs > 0) {
    result.metrics.avg_bounded_slowdown =
        slowdown_weighted / static_cast<double>(result.metrics.jobs);
    result.metrics.avg_wait = wait_weighted / static_cast<double>(result.metrics.jobs);
  }
  if (result.metrics.workflows > 0) {
    result.metrics.avg_workflow_makespan =
        wf_makespan_weighted / static_cast<double>(result.metrics.workflows);
  }
  if (result.is_portfolio && result.portfolio.invocations > 0) {
    result.portfolio.mean_simulated_per_invocation /=
        static_cast<double>(result.portfolio.invocations);
  }
  if (checker) {
    result.invariant_checks += checker->checks_run();
    for (const validate::Violation& v : checker->violations())
      result.invariant_violations.push_back(v);
  }
  result.trace_name = "tenants[" + std::to_string(n) + "] " +
                      config_.tenants.front().trace->name();
  result.scheduler_name = result.tenants.front().scenario.run.scheduler_name;
  return result;
}

obs::RunReportInputs multi_tenant_report_inputs(const MultiTenantResult& result,
                                                const MultiTenantConfig& config) {
  obs::RunReportInputs inputs;
  inputs.trace_name = result.trace_name;
  inputs.scheduler_name = result.scheduler_name;
  inputs.metrics = result.metrics;
  inputs.utility = config.engine.utility;
  inputs.ticks = result.ticks;
  inputs.events = result.events;
  inputs.total_leases = result.total_leases;
  inputs.invariant_checks = result.invariant_checks;
  inputs.invariant_violations = result.invariant_violations.size();
  bool any_failures = false;
  for (const TenantConfig& t : config.tenants)
    any_failures = any_failures || t.failure.enabled();
  inputs.failures_enabled = any_failures;
  inputs.pricing_enabled = config.engine.pricing.enabled();
  if (result.is_portfolio) {
    inputs.portfolio.present = true;
    inputs.portfolio.invocations = result.portfolio.invocations;
    inputs.portfolio.total_selection_cost_ms = result.portfolio.total_selection_cost_ms;
    inputs.portfolio.mean_simulated_per_invocation =
        result.portfolio.mean_simulated_per_invocation;
    inputs.portfolio.chosen_counts = result.portfolio.chosen_counts;
  }
  inputs.tenants.present = true;
  inputs.tenants.global_cap = config.engine.provider.max_vms;
  inputs.tenants.arbitration_period_ticks = config.arbitration_period_ticks;
  inputs.tenants.epochs = result.epochs;
  inputs.tenants.arbitrations = result.arbitrations;
  inputs.tenants.peak_leased = result.peak_leased;
  for (const TenantResult& tr : result.tenants) {
    obs::ReportTenant entry;
    entry.name = tr.name;
    entry.weight = tr.weight;
    entry.budget_vm_hours = tr.budget_vm_hours;
    entry.over_budget = tr.over_budget;
    entry.jobs = tr.scenario.run.metrics.jobs;
    entry.killed = tr.scenario.run.metrics.failures.jobs_killed_final;
    entry.charged_hours = tr.charged_hours;
    entry.min_allocation = tr.min_allocation;
    entry.mean_allocation = tr.mean_allocation;
    entry.max_allocation = tr.max_allocation;
    inputs.tenants.tenants.push_back(std::move(entry));
  }
  return inputs;
}

}  // namespace psched::engine
