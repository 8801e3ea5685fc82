#pragma once
// The portfolio's online simulator (paper §3.3): given the queued jobs and a
// snapshot of the cloud, deterministically simulate one candidate policy
// until the queue drains, and score it with the utility function.
//
// This is intentionally NOT the outer DGSim-style engine: it is a tight,
// allocation-light loop over plain vectors (the selection step runs it up to
// 60 times per scheduling decision). Jobs run for their *predicted* runtime
// — the simulator must not peek at actual runtimes (paper evaluates exactly
// this information gap in §6.3).
//
// Cost accounting mirrors the outer engine's billing but only counts cost
// incurred *from the snapshot onward*: already-paid time on existing VMs is
// free, extending a VM past its paid boundary charges new hours, and fresh
// leases charge from their lease instant. VMs are released at the end of the
// inner run (and idle VMs at paid-hour boundaries along the way, like the
// engine's release rule).

#include <span>
#include <vector>

#include "cloud/profile.hpp"
#include "core/round_snapshot.hpp"
#include "core/sim_arena.hpp"
#include "metrics/utility.hpp"
#include "policy/allocation.hpp"
#include "policy/portfolio.hpp"
#include "validate/fault.hpp"

namespace psched::core {

/// When idle VMs are released (shared by the outer engine and the inner
/// simulation; the paper leaves this implicit — its ODA critique,
/// "resources charged for an entire hour may be released after just a few
/// minutes of use", implies surplus VMs do not linger).
enum class ReleaseRule {
  /// After each allocation pass, release every idle VM while no job is
  /// waiting (a waiting head job keeps the whole idle pool as its reserve).
  /// Default; matches the paper's cost narrative.
  kEagerSurplus,
  /// Hold idle VMs until just before their next hourly charge (the
  /// cost-aware rule of Genaud & Gossa); maximizes reuse of paid time.
  kBoundary,
};

/// How the ordered queue is served at each scheduling decision (see
/// policy/allocation.hpp: kHeadOfLine is the paper's non-backfilling mode,
/// kEasyBackfill the EASY extension the paper defers to future work).
using policy::AllocationMode;

/// How the inner simulation prices the VM time a candidate policy consumes.
enum class InnerCostModel {
  /// Rounded-up charged hours, exactly like the outer engine's billing.
  /// Default: under the eager release rule the engine really does pay the
  /// full started hour of a released VM, so this is the faithful model.
  kChargedHours,
  /// Paid time actually elapsed while the VM was held during the drain
  /// window (no rounding): the marginal cost attributable to this decision,
  /// treating unused tail-hours as available to future work. The better
  /// model when the engine runs the kBoundary release rule (the engine
  /// then amortizes tail-hours across future jobs, which rounded-hours
  /// scoring cannot see); see bench_ablation_costmodel.
  kElapsedMarginal,
};

struct OnlineSimConfig {
  metrics::UtilityParams utility;
  double slowdown_bound = 10.0;     ///< bounded-slowdown floor (s)
  double schedule_period = 20.0;    ///< decision cadence inside the sim (s)
  double release_window = 20.0;     ///< idle-release lookahead (s, kBoundary)
  ReleaseRule release_rule = ReleaseRule::kEagerSurplus;
  AllocationMode allocation = AllocationMode::kHeadOfLine;
  InnerCostModel cost_model = InnerCostModel::kChargedHours;
  std::size_t max_iterations = 2'000'000;  ///< hard safety valve
  /// Validation self-test switch: kCandidateThrow makes every simulate()
  /// call throw, so the selector's graceful-degradation path (quarantine +
  /// last-known-good policy) is itself testable. Always kNone outside
  /// validation tests; the other fault flavors are provider-level and
  /// ignored here.
  validate::FaultInjection inject_fault = validate::FaultInjection::kNone;
};

/// Result of simulating one policy on one problem instance.
struct SimOutcome {
  double utility = 0.0;
  double avg_bounded_slowdown = 1.0;
  double rj_proc_seconds = 0.0;
  /// Charged cost of the candidate's VM consumption. With pricing off this
  /// is plain charged seconds (the paper's RV). With pricing on
  /// (DESIGN.md §12) each VM's charged seconds are weighted by its
  /// effective price — family price at the snapshot's frozen market
  /// multiplier × tier fraction — so candidate scoring prefers cheap
  /// capacity; dollars = this / billing_quantum.
  double rv_charged_seconds = 0.0;
  double sim_makespan = 0.0;    ///< simulated seconds until the queue drained
  std::size_t decisions = 0;    ///< decision-loop iterations executed
};

/// Thread-safety: `simulate` is const-thread-safe — any number of threads
/// may call it concurrently on one OnlineSimulator instance (with the same
/// or different arguments), provided each concurrent call uses its own
/// SimArena (the span/profile overload allocates one internally). This is a
/// stated contract, not an accident: the simulator holds only the immutable
/// config, every piece of mutable scratch lives in the caller-supplied
/// arena, the RoundSnapshot is read-only during simulation, and the
/// policies it drives are stateless (`const` interfaces throughout
/// policy/*.hpp). Keep new scratch state inside SimArena when extending.
class OnlineSimulator {
 public:
  explicit OnlineSimulator(OnlineSimConfig config);

  [[nodiscard]] const OnlineSimConfig& config() const noexcept { return config_; }

  /// Simulate `policy` scheduling `queue` starting from `profile`.
  /// Deterministic: same inputs -> same outcome on every platform.
  /// Convenience wrapper over the snapshot/arena fast path below: builds a
  /// fresh RoundSnapshot and SimArena per call, so it is allocation-heavy
  /// but needs no caller-side state. Safe to call concurrently.
  [[nodiscard]] SimOutcome simulate(std::span<const policy::QueuedJob> queue,
                                    const cloud::CloudProfile& profile,
                                    const policy::PolicyTriple& policy) const;

  /// Fast path (DESIGN.md §11): simulate `policy` against a prebuilt round
  /// snapshot, using `arena` for every piece of mutable state. Bit-identical
  /// outcome to the wrapper above for the same (queue, profile) inputs. The
  /// snapshot may be shared across concurrent calls; the arena may not —
  /// one arena per concurrent caller.
  [[nodiscard]] SimOutcome simulate(const RoundSnapshot& snapshot,
                                    const policy::PolicyTriple& policy,
                                    SimArena& arena) const;

 private:
  OnlineSimConfig config_;  ///< immutable after construction
};

}  // namespace psched::core
