#include "core/selector.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace psched::core {

namespace {

/// Trace-args payload for one candidate simulation.
std::string candidate_args(std::size_t index) {
  return "{\"policy\":" + std::to_string(index) + '}';
}

}  // namespace

TimeConstrainedSelector::TimeConstrainedSelector(const policy::Portfolio& portfolio,
                                                 OnlineSimulator simulator,
                                                 SelectorConfig config)
    : portfolio_(portfolio),
      simulator_(std::move(simulator)),
      config_(config),
      rng_(config.rng_seed) {
  PSCHED_ASSERT_MSG(portfolio_.size() > 0, "selector needs a non-empty portfolio");
  PSCHED_ASSERT(config_.lambda > 0.0 && config_.lambda <= 1.0);
  reset();
}

void TimeConstrainedSelector::reset() {
  smart_.clear();
  stale_.clear();
  poor_.clear();
  // First invocation: every policy is in Smart (paper, Section 4).
  for (std::size_t i = 0; i < portfolio_.size(); ++i) smart_.push_back(i);
}

void TimeConstrainedSelector::capture_checkpoint_state(util::StateDigest& digest) const {
  digest.add_u64("selector.rng", rng_.state());
  // The partition sequences are order-sensitive state: Smart/Stale are
  // drained front to back and Poor is indexed by the RNG.
  std::uint64_t partition = 0;
  for (const std::size_t i : smart_) partition = util::digest_mix(partition, static_cast<std::uint64_t>(i));
  digest.add_u64("selector.smart", partition);
  partition = 0;
  for (const std::size_t i : stale_) partition = util::digest_mix(partition, static_cast<std::uint64_t>(i));
  digest.add_u64("selector.stale", partition);
  partition = 0;
  for (const std::size_t i : poor_) partition = util::digest_mix(partition, static_cast<std::uint64_t>(i));
  digest.add_u64("selector.poor", partition);
  digest.add_size("selector.smart_len", smart_.size());
  digest.add_size("selector.stale_len", stale_.size());
  digest.add_size("selector.poor_len", poor_.size());
}

double TimeConstrainedSelector::simulate_one(std::size_t index,
                                             std::vector<PolicyScore>& scores,
                                             std::vector<std::size_t>& quarantined) {
  // Candidate trace spans use the recorder's clock (obs.cpp), independent of
  // the budget clock below, so tracing can never perturb budget accounting.
  const bool tracing = recorder_ != nullptr && recorder_->tracing_on();
  if (tracing)
    recorder_->append_event(obs::TraceEvent{"selector.candidate", 'B',
                                            recorder_->now_us(), 0,
                                            candidate_args(index)});
  // kFixedCount reads no clock: every candidate charges exactly one unit,
  // and a throwing candidate still consumed its budget slot.
  const bool fixed = config_.budget_mode == BudgetMode::kFixedCount;
  std::chrono::steady_clock::time_point start;
  if (!fixed) start = std::chrono::steady_clock::now();
  SimOutcome outcome;
  bool failed = false;
  try {
    outcome = simulator_.simulate(snapshot_, portfolio_.policies()[index], arena_);
  } catch (const std::exception&) {
    failed = true;
  }
  double cost = 1.0;
  if (!fixed) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    cost = config_.synthetic_overhead_ms;
    if (config_.use_measured_cost)
      cost += std::chrono::duration<double, std::milli>(elapsed).count();
    // Per-candidate budget blow-out: the time was spent (cost is charged),
    // but the result is not trusted into the ranking.
    if (!failed && config_.candidate_timeout_ms > 0.0 &&
        cost > config_.candidate_timeout_ms)
      failed = true;
  }
  if (failed)
    quarantined.push_back(index);
  else
    scores.push_back(PolicyScore{index, outcome.utility, cost});
  if (tracing)
    recorder_->append_event(
        obs::TraceEvent{"selector.candidate", 'E', recorder_->now_us(), 0, {}});
  return cost;
}

SelectionResult TimeConstrainedSelector::select(
    std::span<const policy::QueuedJob> queue, const cloud::CloudProfile& profile,
    std::size_t preferred_index, std::span<const std::size_t> hints) {
  PSCHED_ASSERT_MSG(!queue.empty(), "selection on an empty queue is undefined");

  // Build the shared round snapshot once (DESIGN.md §11): every candidate
  // reads it.
  snapshot_.build(queue, profile);

  const obs::Recorder::Scope round_scope(recorder_, "selector.round", 0);
  const bool obs_on = recorder_ != nullptr && recorder_->counters_on();

  // Reflection hints: pull the suggested policies out of whichever set they
  // sit in and queue them at the head of Smart (first hint simulated first).
  for (std::size_t h = hints.size(); h-- > 0;) {
    const std::size_t hint = hints[h];
    if (hint >= portfolio_.size()) continue;
    const auto drop = [hint](auto& container) {
      const auto it = std::find(container.begin(), container.end(), hint);
      if (it == container.end()) return false;
      container.erase(it);
      return true;
    };
    if (drop(smart_) || drop(stale_) || drop(poor_)) smart_.push_front(hint);
  }

  // Entry snapshot for the round record (after hint promotion, so the sizes
  // describe the sets Algorithm 1 actually drains). Taken only when
  // observed: the unobserved path must not copy the Smart set.
  const std::size_t smart_in = smart_.size();
  const std::size_t stale_in = stale_.size();
  const std::size_t poor_in = poor_.size();
  std::vector<std::size_t> smart_before;
  if (obs_on) smart_before.assign(smart_.begin(), smart_.end());

  const bool fixed = config_.budget_mode == BudgetMode::kFixedCount;
  const bool bounded =
      fixed ? config_.fixed_count > 0 : config_.time_constraint_ms > 0.0;
  const auto n = static_cast<double>(smart_.size() + stale_.size() + poor_.size());
  PSCHED_ASSERT(n > 0.0);

  // Phase 1: split the budget proportionally to the set sizes (Alg. 1 l.1-2).
  // In kFixedCount mode Delta is a simulation count (one unit per candidate);
  // otherwise it is milliseconds. Unbounded mode (Delta <= 0, or
  // fixed_count = 0) simulates the entire portfolio; the quotas are made
  // infinite directly — an empty set's share of infinity would be
  // 0 * inf = NaN and poison the leftover arithmetic.
  const double inf = std::numeric_limits<double>::infinity();
  const double delta = bounded ? (fixed ? static_cast<double>(config_.fixed_count)
                                        : config_.time_constraint_ms)
                               : inf;
  double quota_smart = bounded ? static_cast<double>(smart_.size()) / n * delta : inf;
  double quota_stale = bounded ? static_cast<double>(stale_.size()) / n * delta : inf;
  double quota_poor = bounded ? delta - quota_smart - quota_stale : inf;

  std::vector<PolicyScore> scores;
  scores.reserve(portfolio_.size());
  std::vector<std::size_t> quarantined;  // threw / blew per-candidate budget
  double charged_ms = 0.0;               // budget actually charged
  const auto charge = [&](std::size_t index, double& set_quota) {
    const double cost = simulate_one(index, scores, quarantined);
    set_quota -= cost;
    charged_ms += cost;
  };

  const auto drain_ordered = [&](std::deque<std::size_t>& set, double& set_quota) {
    while (!set.empty() && set_quota > 0.0) {
      const std::size_t index = set.front();
      set.pop_front();
      charge(index, set_quota);
    }
  };

  // Phase 2a: Smart, in order, while its quota lasts (l.3-7).
  drain_ordered(smart_, quota_smart);
  // Phase 2b: Stale, in staleness order (l.8-12).
  drain_ordered(stale_, quota_stale);
  // Phase 2c: Poor, random picks, with the leftovers folded in (l.13-19).
  double quota = quota_poor + std::max(0.0, quota_smart) + std::max(0.0, quota_stale);
  while (!poor_.empty() && quota > 0.0) {
    const auto pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(poor_.size()) - 1));
    const std::size_t index = poor_[pick];
    poor_[pick] = poor_.back();
    poor_.pop_back();
    charge(index, quota);
  }

  // Phase 3: rearrange (l.20-24). Un-simulated Smart leftovers age into
  // Stale; the simulated policies re-rank into Smart (top lambda) and Poor.
  for (const std::size_t index : smart_) stale_.push_back(index);
  smart_.clear();
  // Quarantined candidates demote straight to Poor: they re-enter the
  // random sampling pool next round but never the ranking.
  for (const std::size_t index : quarantined) poor_.push_back(index);

  PSCHED_ASSERT_MSG(!scores.empty() || !quarantined.empty(),
                    "budget did not allow a single simulation");
  if (scores.empty()) {
    // Graceful degradation: every attempted candidate threw or blew its
    // per-candidate budget. Apply the last-known-good policy instead of
    // aborting the run; next round re-samples the quarantined set.
    SelectionResult result;
    result.degraded = true;
    result.quarantined = quarantined.size();
    result.best_index =
        preferred_index < portfolio_.size() ? preferred_index : 0;
    result.best_utility = 0.0;
    result.total_cost_ms = charged_ms;
    if (obs_on) {
      obs::SelectionRoundRecord record;
      record.sim_now = profile.now;
      record.simulated = 0;
      record.budget_delta = bounded ? delta : 0.0;
      record.budget_charged = charged_ms;
      record.smart_in = smart_in;
      record.stale_in = stale_in;
      record.poor_in = poor_in;
      record.smart_out = smart_.size();
      record.stale_out = stale_.size();
      record.poor_out = poor_.size();
      record.quarantined = quarantined.size();
      record.chosen = result.best_index;
      record.chosen_utility = 0.0;
      record.tie_set = 0;
      record.tie_path = "degraded";
      recorder_->record_round(record);
      recorder_->counter_add("selector.rounds", 1.0);
      recorder_->counter_add("selector.quarantined",
                             static_cast<double>(quarantined.size()));
      recorder_->counter_add("selector.degraded_rounds", 1.0);
    }
    return result;
  }
  std::stable_sort(scores.begin(), scores.end(),
                   [](const PolicyScore& a, const PolicyScore& b) {
                     if (a.utility != b.utility) return a.utility > b.utility;
                     return a.index < b.index;
                   });
  // Resolve exact ties at the head of the ranking (see TieBreak). The tie
  // set is the run of scores equal to the best within absolute epsilon.
  std::size_t tied = 1;
  while (tied < scores.size() &&
         scores[tied].utility >= scores.front().utility - 1e-9)
    ++tied;
  std::size_t winner = 0;
  switch (config_.tie_break) {
    case TieBreak::kFirstIndex:
      break;
    case TieBreak::kRandom:
      winner = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(tied) - 1));
      break;
    case TieBreak::kSticky:
      for (std::size_t i = 0; i < tied; ++i) {
        if (scores[i].index == preferred_index) {
          winner = i;
          break;
        }
      }
      break;
  }
  if (winner != 0) std::swap(scores[0], scores[winner]);

  const auto top = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(config_.lambda * static_cast<double>(scores.size()))));
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (i < top) smart_.push_back(scores[i].index);
    else poor_.push_back(scores[i].index);
  }

  SelectionResult result;
  result.best_index = scores.front().index;
  result.best_utility = scores.front().utility;
  result.total_cost_ms = charged_ms;
  result.quarantined = quarantined.size();
  result.scores = std::move(scores);

  if (obs_on) {
    obs::SelectionRoundRecord record;
    record.sim_now = profile.now;
    record.simulated = result.scores.size();
    record.budget_delta = bounded ? delta : 0.0;
    record.budget_charged = charged_ms;
    record.smart_in = smart_in;
    record.stale_in = stale_in;
    record.poor_in = poor_in;
    record.smart_out = smart_.size();
    record.stale_out = stale_.size();
    record.poor_out = poor_.size();
    for (const std::size_t index : smart_) {
      if (std::find(smart_before.begin(), smart_before.end(), index) ==
          smart_before.end())
        ++record.smart_churn;
    }
    record.quarantined = result.quarantined;
    record.chosen = result.best_index;
    record.chosen_utility = result.best_utility;
    record.tie_set = tied;
    if (tied <= 1) {
      record.tie_path = "unique";
    } else {
      switch (config_.tie_break) {
        case TieBreak::kRandom: record.tie_path = "random"; break;
        case TieBreak::kSticky: record.tie_path = "sticky"; break;
        case TieBreak::kFirstIndex: record.tie_path = "first-index"; break;
      }
    }
    recorder_->record_round(record);
    recorder_->counter_add("selector.rounds", 1.0);
    recorder_->counter_add("selector.candidates",
                           static_cast<double>(result.scores.size()));
    recorder_->counter_add("selector.budget_charged", charged_ms);
    if (result.quarantined > 0)
      recorder_->counter_add("selector.quarantined",
                             static_cast<double>(result.quarantined));
  }
  return result;
}

}  // namespace psched::core
