#pragma once
// Time-constrained portfolio simulation — the paper's Algorithm 1.
//
// The portfolio is partitioned into three sets:
//   Smart — top performers of the previous invocation,
//   Stale — policies (from Smart and Poor) not simulated last time,
//   Poor  — bottom performers of the previous invocation.
// A time budget Delta is split across the sets proportionally to their
// sizes; Smart and Stale are simulated in order, then the remaining budget
// samples Poor uniformly at random. The simulated policies are re-ranked by
// utility: the top lambda fraction becomes the new Smart set, the rest join
// Poor; un-simulated Smart leftovers append to Stale (ordered by
// staleness). The best simulated policy is returned for real scheduling.
//
// The budget can count measured wall time, a fixed synthetic per-policy
// cost (for the deterministic Figure-10 experiment), or both — or, with
// BudgetMode::kFixedCount, a plain simulation count, which removes every
// clock read from the selection path and makes a round reproducible
// bit-for-bit across machines.
//
// Candidates are simulated one at a time, as in the paper: Smart, then
// Stale, then Poor, each against the same per-round RoundSnapshot and in
// one reused SimArena (DESIGN.md §11).
//
// Graceful degradation (DESIGN.md §10): a candidate whose online simulation
// throws — or, under a candidate_timeout_ms bound, blows its per-candidate
// budget — is quarantined to the Poor set instead of aborting the run. If a
// whole round yields no usable score, select() returns a degraded result
// that carries the last-known-good (preferred) policy forward.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/online_sim.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/state_digest.hpp"

namespace psched::core {

/// How to resolve exact utility ties at the top of the ranking. Ties are
/// the common case, not a corner: on a one-job queue with ample capacity,
/// every provisioning/allocation combination that starts the job at the
/// same instant scores identically (often 48 of the 60 policies).
enum class TieBreak {
  kRandom,      ///< uniform among the tied-best (default; reproduces the
                ///< paper's near-even invocation ratios, Figure 5a)
  kSticky,      ///< keep the currently applied policy if it is tied-best
  kFirstIndex,  ///< lowest portfolio index (fully deterministic ranking)
};

/// How the selection budget Delta is accounted.
enum class BudgetMode {
  /// Delta is wall time: each simulation charges measured steady_clock
  /// milliseconds (use_measured_cost) plus synthetic_overhead_ms. Matches
  /// the paper's deployment model; machine-dependent by design.
  kWallclock,
  /// Delta is a simulation count: every candidate charges exactly one unit
  /// and the selector reads no clock at all, so a round's outcome is a pure
  /// function of (portfolio, queue, profile, seed) — bit-identical across
  /// machines and load conditions. use_measured_cost
  /// and synthetic_overhead_ms are ignored.
  kFixedCount,
};

struct SelectorConfig {
  /// Budget accounting mode; kFixedCount removes every wall-clock read from
  /// the selection path (psched-lint rule D1's allowlist covers only the
  /// kWallclock branch).
  BudgetMode budget_mode = BudgetMode::kWallclock;
  /// Per-round simulation budget when budget_mode = kFixedCount: the number
  /// of candidate simulations Delta buys (split across Smart/Stale/Poor
  /// proportionally, exactly like the millisecond budget). 0 means
  /// unbounded. Ignored in kWallclock mode.
  std::size_t fixed_count = 0;
  /// Delta in milliseconds; <= 0 means unbounded (simulate the whole
  /// portfolio — the paper's Sections 6.1-6.4 operating point).
  /// Ignored in kFixedCount mode.
  double time_constraint_ms = 0.0;
  /// Tie resolution among equal-best policies.
  TieBreak tie_break = TieBreak::kRandom;
  /// Fraction of simulated policies promoted to Smart (paper: 0.6).
  double lambda = 0.6;
  /// Deterministic extra cost charged per policy simulation (paper §6.5
  /// adds 10 ms per policy to make the budget bind).
  double synthetic_overhead_ms = 0.0;
  /// Whether measured wall time also counts against the budget. Disable
  /// together with a positive synthetic overhead for machine-independent
  /// experiments.
  bool use_measured_cost = true;
  /// Seed for the random sampling of the Poor set.
  std::uint64_t rng_seed = 0x5eed;
  /// Per-candidate budget blow-out bound (kWallclock mode only): a
  /// candidate whose charged cost exceeds this many milliseconds is
  /// quarantined to Poor instead of entering the ranking. <= 0 (default)
  /// disables the bound. With use_measured_cost the comparison involves
  /// measured wall time and is machine-dependent, like the mode itself;
  /// with synthetic-only accounting it is deterministic. Ignored in
  /// kFixedCount mode (every candidate charges exactly one unit there).
  double candidate_timeout_ms = 0.0;
};

/// Utility score of one simulated policy.
struct PolicyScore {
  std::size_t index = 0;    ///< into Portfolio::policies()
  double utility = 0.0;
  double cost_ms = 0.0;     ///< budget charged for this simulation
};

struct SelectionResult {
  std::size_t best_index = 0;
  double best_utility = 0.0;
  std::vector<PolicyScore> scores;  ///< all policies simulated this round
  /// Budget actually charged: the scores' cost_ms plus what quarantined
  /// candidates charged.
  double total_cost_ms = 0.0;
  /// Candidates quarantined this round: their online simulation threw, or
  /// (kWallclock + candidate_timeout_ms) blew the per-candidate budget.
  /// Quarantined candidates charge the budget they consumed, contribute no
  /// score, and are demoted to the Poor set.
  std::size_t quarantined = 0;
  /// True when every attempted candidate was quarantined: no ranking was
  /// possible and best_index is the last-known-good (preferred) policy
  /// carried over with best_utility = 0 — graceful degradation instead of
  /// aborting the run.
  bool degraded = false;

  [[nodiscard]] std::size_t simulated() const noexcept { return scores.size(); }
};

class TimeConstrainedSelector {
 public:
  /// The selector borrows `portfolio` (must outlive the selector).
  TimeConstrainedSelector(const policy::Portfolio& portfolio, OnlineSimulator simulator,
                          SelectorConfig config);
  /// A temporary portfolio would dangle at the first select().
  TimeConstrainedSelector(policy::Portfolio&& portfolio, OnlineSimulator simulator,
                          SelectorConfig config) = delete;

  /// Run Algorithm 1 on the given problem instance. Requires a non-empty
  /// queue (an empty instance cannot rank policies). `preferred_index` is
  /// the currently applied policy (used by TieBreak::kSticky); pass the
  /// portfolio size (or omit) when there is none. `hints` (the reflection
  /// step's suggestions) are promoted to the front of the Smart set before
  /// the budgeted phases, so historically good policies are simulated first
  /// even under tight budgets.
  [[nodiscard]] SelectionResult select(std::span<const policy::QueuedJob> queue,
                                       const cloud::CloudProfile& profile,
                                       std::size_t preferred_index = SIZE_MAX,
                                       std::span<const std::size_t> hints = {});

  /// Reset Smart/Stale/Poor to the initial state (everything Smart).
  void reset();

  // Set introspection (tests + the stabilization property).
  [[nodiscard]] const std::deque<std::size_t>& smart() const noexcept { return smart_; }
  [[nodiscard]] const std::deque<std::size_t>& stale() const noexcept { return stale_; }
  [[nodiscard]] const std::vector<std::size_t>& poor() const noexcept { return poor_; }

  [[nodiscard]] const SelectorConfig& config() const noexcept { return config_; }
  [[nodiscard]] const OnlineSimulator& simulator() const noexcept { return simulator_; }

  /// Attach (or detach, with nullptr) an observability recorder (borrowed;
  /// must outlive the selector or be detached first). Recording is strictly
  /// passive: no RNG draw, candidate order, score order, or budget charge
  /// depends on the recorder, so selection output is bit-identical with it
  /// attached, detached, or at any ObsLevel.
  void set_recorder(obs::Recorder* recorder) noexcept { recorder_ = recorder; }

  /// Checkpoint support (DESIGN.md §14): fold the selector's cross-round
  /// mutable state — the Poor-sampling RNG position and the
  /// Smart/Stale/Poor partition — into `digest`, bit-exactly. Wall-clock
  /// costs never enter the digest (psched-lint D1): in measured kWallclock
  /// mode they vary run to run by design, and in the deterministic budget
  /// modes they are derived state.
  void capture_checkpoint_state(util::StateDigest& digest) const;

 private:
  /// Simulate policy `index` against the current round snapshot and append
  /// its score to `scores`; returns the budget charged (one unit in
  /// kFixedCount mode). A candidate that throws or blows the per-candidate
  /// budget lands in `quarantined` instead of `scores`.
  double simulate_one(std::size_t index, std::vector<PolicyScore>& scores,
                      std::vector<std::size_t>& quarantined);

  const policy::Portfolio& portfolio_;
  OnlineSimulator simulator_;
  SelectorConfig config_;
  obs::Recorder* recorder_ = nullptr;  ///< null = unobserved (default)
  util::Rng rng_;

  std::deque<std::size_t> smart_;
  std::deque<std::size_t> stale_;
  std::vector<std::size_t> poor_;

  // Hot-path state (DESIGN.md §11): the snapshot is rebuilt once per
  // select() and read by every candidate; the arena is the candidates'
  // reused scratch.
  RoundSnapshot snapshot_;
  SimArena arena_;
};

}  // namespace psched::core
