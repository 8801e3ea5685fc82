#pragma once
// Multi-tenant service mode (DESIGN.md §13): N sharded virtual clusters on
// shared provider capacity.
//
// The paper evaluates one portfolio scheduler driving one virtual cluster;
// a scheduling *service* runs many. MultiTenantExperiment instantiates one
// ClusterSimulation per tenant — each with its own workload trace, scheduler
// (portfolio or fixed policy), runtime predictor, failure seeds, resilience
// knobs, and VM-hour budget — over one shared capacity pool, and steps them
// in lockstep epochs:
//
//   1. every tenant advances to the epoch boundary, in parallel on the
//      shared thread pool (tenant simulations share no mutable state — the
//      crash-resubmission ledger is sharded per tenant — so an epoch step
//      is embarrassingly parallel and bit-identical at any worker count);
//   2. the coordinator reads each tenant's demand (live fleet + queued
//      width) and runs the deterministic fairness arbiter;
//   3. each tenant's provider cap is set to its allowance for the next
//      epoch. Allowances are caps, not reservations: unclaimed capacity is
//      redistributed, and a tenant's cap never drops below its live fleet.
//
// The arbiter is weighted max-min over requested VM(-epoch) units with ties
// broken by tenant id: floors (live fleets) are protected first, then
// capacity progressively fills in-budget tenants with unmet demand — one VM
// at a time to the lowest allocation-per-weight ratio, ties to the lower
// tenant id — then over-budget tenants the same way, then all leftover
// headroom is split by weight (largest-remainder rounding) so demand
// arriving mid-epoch can lease immediately. Every unit of the global cap is
// always allocated. Determinism: demands are read and allowances
// applied on the coordinating thread in tenant-id order, so the schedule is
// a pure function of configs and seeds regardless of the pool width.
//
// Per-tenant seed streams derive from one root via the registered
// "tenant-workload" / "tenant-failure" streams (util/seed_streams.hpp,
// psched-lint D5) so tenant i's draws are uncorrelated with tenant j's and
// with every other subsystem's.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "policy/portfolio.hpp"
#include "util/state_digest.hpp"
#include "util/thread_pool.hpp"

namespace psched::engine {

/// One tenant of a multi-tenant experiment. The trace is borrowed and must
/// outlive the experiment's run().
struct TenantConfig {
  /// Report label; defaults to "tenant-<id>" when empty.
  std::string name;
  /// Fairness weight: quota share = global_cap * weight / sum(weights).
  double weight = 1.0;
  /// VM-hour budget; past it the tenant keeps its live fleet but drops to
  /// the lowest arbitration class (no growth while in-budget demand is
  /// unmet). 0 means unlimited.
  double budget_vm_hours = 0.0;
  /// Per-tenant failure injection; derive the seed via tenant_failure_seed()
  /// so tenants draw uncorrelated failure streams from one root.
  cloud::FailureConfig failure;
  /// Per-tenant resilience knobs (retry backoff state is per-tenant: each
  /// tenant's engine owns its own BackoffSchedule seeded from `failure`).
  cloud::ResilienceConfig resilience;
  /// The tenant's workload (borrowed).
  const workload::Trace* trace = nullptr;
};

/// Configuration of a multi-tenant run.
struct MultiTenantConfig {
  /// Global template: `engine.provider.max_vms` is the SHARED capacity cap;
  /// validation and pricing settings apply to every tenant. Per-tenant
  /// failure/resilience come from each TenantConfig instead.
  EngineConfig engine;
  /// Portfolio mode when non-null (borrowed): every tenant runs its own
  /// PortfolioScheduler over this portfolio with `scheduler` below.
  const policy::Portfolio* portfolio = nullptr;
  core::PortfolioSchedulerConfig scheduler;
  /// Fixed-policy mode when `portfolio` is null.
  policy::PolicyTriple policy;
  PredictorKind predictor = PredictorKind::kPerfect;
  std::vector<TenantConfig> tenants;
  /// Epoch length in scheduling ticks: the arbiter re-divides capacity
  /// every `arbitration_period_ticks * engine.schedule_period` seconds.
  std::size_t arbitration_period_ticks = 1;
};

/// One tenant's demand snapshot, priced by the arbiter.
struct TenantDemand {
  std::size_t tenant = 0;
  double weight = 1.0;
  std::size_t floor_vms = 0;   ///< live fleet: the allocation never evicts
  std::size_t demand_vms = 0;  ///< live fleet + queued width
  bool over_budget = false;    ///< lowest arbitration class
};

/// Deterministic weighted max-min division of `global_cap` VMs (see the
/// header comment). Returns one allowance per demand, in input order;
/// allowances sum to exactly `global_cap` and never fall below the floors
/// (which must themselves fit under the cap). Exposed for unit tests.
[[nodiscard]] std::vector<std::size_t> arbitrate_capacity(
    const std::vector<TenantDemand>& demands, std::size_t global_cap);

/// Per-tenant seed derivation from one root through the registered streams:
/// stable, uncorrelated across tenant indices and across the two streams.
[[nodiscard]] std::uint64_t tenant_workload_seed(std::uint64_t root,
                                                 std::size_t tenant);
[[nodiscard]] std::uint64_t tenant_failure_seed(std::uint64_t root,
                                                std::size_t tenant);

/// One tenant's slice of a finished multi-tenant run.
struct TenantResult {
  std::string name;
  double weight = 1.0;
  double budget_vm_hours = 0.0;
  bool over_budget = false;      ///< budget exhausted by the end of the run
  double charged_hours = 0.0;
  ScenarioResult scenario;       ///< the tenant's own engine result
  std::size_t min_allocation = 0;   ///< across arbitrations
  std::size_t max_allocation = 0;
  double mean_allocation = 0.0;
};

/// Aggregate + per-tenant outputs of a multi-tenant run.
struct MultiTenantResult {
  std::string trace_name;      ///< "tenants[N] <first trace>"
  std::string scheduler_name;
  std::vector<TenantResult> tenants;
  /// Service-level aggregate: jobs/RJ/RV/workflow counts summed, slowdown
  /// and wait job-weighted, makespan the max across tenants.
  metrics::RunMetrics metrics;
  std::uint64_t ticks = 0;
  std::uint64_t events = 0;
  std::size_t total_leases = 0;
  std::uint64_t epochs = 0;        ///< epochs executed
  std::uint64_t arbitrations = 0;  ///< arbiter decisions (epochs + the t=0 one)
  std::size_t peak_leased = 0;     ///< max over arbitrations of summed fleets
  bool is_portfolio = false;
  PortfolioStats portfolio;        ///< summed across tenants, iff is_portfolio
  std::uint64_t invariant_checks = 0;  ///< per-tenant + service-level
  std::vector<validate::Violation> invariant_violations;
};

/// Observer of a multi-tenant run's epoch boundaries (checkpoint support,
/// DESIGN.md §14). on_epoch_boundary fires on the coordinating thread after
/// every tenant advanced to its horizon and the arbiter re-divided capacity —
/// a quiescent instant where every tenant's state is a pure function of
/// configs and seeds. `capture` folds the complete experiment state (every
/// tenant's engine scoped "t<i>.", plus the arbiter's accumulators) into a
/// caller-supplied digest; it is valid only for the duration of the call.
class EpochObserver {
 public:
  virtual ~EpochObserver() = default;
  virtual void on_epoch_boundary(
      std::uint64_t epoch,
      const std::function<void(util::StateDigest&)>& capture) = 0;
};

/// Runs N tenant simulations in lockstep epochs over shared capacity. The
/// thread pool (optional, borrowed) advances the tenants of each epoch in
/// parallel; null runs them serially with bit-identical results.
class MultiTenantExperiment {
 public:
  explicit MultiTenantExperiment(MultiTenantConfig config,
                                 util::ThreadPool* pool = nullptr);

  /// Execute every tenant's trace to completion. Single-shot. `observer`
  /// (optional, borrowed) is notified at every epoch boundary while the run
  /// is still active — the checkpoint supervisor's hook; null is the plain
  /// uninterrupted run, bit-identical to passing an observer that captures.
  [[nodiscard]] MultiTenantResult run(EpochObserver* observer = nullptr);

 private:
  MultiTenantConfig config_;
  util::ThreadPool* pool_;
  bool ran_ = false;
};

/// Assemble obs::RunReportInputs (with the "psched-tenants/v1" section) from
/// a finished multi-tenant run.
[[nodiscard]] obs::RunReportInputs multi_tenant_report_inputs(
    const MultiTenantResult& result, const MultiTenantConfig& config);

}  // namespace psched::engine
