#include "core/selector.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace psched::core {

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

void TimeConstrainedSelector::capture_state(util::StateDigest& digest) const {
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

double TimeConstrainedSelector::candidate_cost(double measured_ms) const {
  if (config_.budget_mode == BudgetMode::kFixedCount) return 1.0;
  double cost = config_.synthetic_overhead_ms;
  if (config_.use_measured_cost) cost += measured_ms;
  return cost;
}

double TimeConstrainedSelector::evaluate(std::span<const policy::QueuedJob> queue,
                                         const cloud::CloudProfile& profile,
                                         std::span<const std::size_t> candidates,
                                         std::vector<PolicyScore>& scores,
                                         std::vector<std::size_t>& quarantined) {
  // Batch trace spans use the recorder's clock (obs.cpp), independent of
  // the budget clock below, so tracing can never perturb budget accounting.
  const bool tracing = recorder_ != nullptr && recorder_->tracing_on();
  if (tracing)
    recorder_->append_event(
        obs::TraceEvent{"selector.batch", 'B', recorder_->now_us(), 0, {}});
  // kFixedCount and synthetic-only accounting read no clock.
  const bool fixed = config_.budget_mode == BudgetMode::kFixedCount;
  const bool measured = !fixed && config_.use_measured_cost;
  batch_policies_.clear();
  for (const std::size_t index : candidates)
    batch_policies_.push_back(portfolio_.policies()[index]);
  batch_out_.resize(candidates.size());
  std::chrono::steady_clock::time_point start;
  if (measured) start = std::chrono::steady_clock::now();
  const GroupStats stats =
      simulator_.simulate(queue, profile, batch_policies_, arena_, batch_out_);
  double measured_ms = 0.0;
  if (measured) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    measured_ms = std::chrono::duration<double, std::milli>(elapsed).count();
  }
  // Every candidate of a batch charges an equal share of its wall time.
  const double cost =
      candidate_cost(measured_ms / static_cast<double>(candidates.size()));
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    // A throwing candidate still consumed its budget slot. Per-candidate
    // budget blow-out: the time was spent (cost is charged), but the result
    // is not trusted into the ranking.
    const bool failed = batch_out_[k].error != nullptr ||
                        (!fixed && config_.candidate_timeout_ms > 0.0 &&
                         cost > config_.candidate_timeout_ms);
    if (failed)
      quarantined.push_back(candidates[k]);
    else
      scores.push_back(PolicyScore{candidates[k], batch_out_[k].outcome.utility, cost});
  }
  if (tracing) {
    recorder_->append_event(obs::TraceEvent{
        "selector.batch", 'E', recorder_->now_us(), 0,
        "{\"policies\":" + std::to_string(candidates.size()) +
            ",\"paths\":" + std::to_string(stats.paths) +
            ",\"steps\":" + std::to_string(stats.steps) + '}'});
  }
  if (recorder_ != nullptr && recorder_->counters_on()) {
    recorder_->counter_add("selector.paths", static_cast<double>(stats.paths));
    recorder_->counter_add("selector.steps", static_cast<double>(stats.steps));
  }
  return measured_ms;
}

SelectionResult TimeConstrainedSelector::select(
    std::span<const policy::QueuedJob> queue, const cloud::CloudProfile& profile,
    std::size_t preferred_index, std::span<const std::size_t> hints) {
  PSCHED_ASSERT_MSG(!queue.empty(), "selection on an empty queue is undefined");

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
  // Only a bounded measured-wallclock round (or a measured per-candidate
  // timeout) lets a charge depend on the simulation it pays for; there each
  // candidate is evaluated as it is drawn. Every other round draws its
  // whole candidate list first — the charges are known up front — and
  // evaluates it as one shared-prefix batch (DESIGN.md §11.2).
  const bool one_at_a_time = !fixed && config_.use_measured_cost &&
                             (bounded || config_.candidate_timeout_ms > 0.0);
  drawn_.clear();
  const auto charge = [&](std::size_t index, double& set_quota) {
    drawn_.push_back(index);
    const double cost = candidate_cost(
        one_at_a_time ? evaluate(queue, profile, {&index, 1}, scores, quarantined) : 0.0);
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
  // The batch's measured wall time (0 unless measured) is charged on top of
  // the per-candidate charges already taken.
  if (!one_at_a_time && !drawn_.empty())
    charged_ms += evaluate(queue, profile, drawn_, scores, quarantined);

  // Phase 3: rearrange (l.20-24). Un-simulated Smart leftovers age into
  // Stale; the simulated policies re-rank into Smart (top lambda) and Poor.
  for (const std::size_t index : smart_) stale_.push_back(index);
  smart_.clear();
  // Quarantined candidates demote straight to Poor: they re-enter the
  // random sampling pool next round but never the ranking.
  for (const std::size_t index : quarantined) poor_.push_back(index);

  PSCHED_ASSERT_MSG(!scores.empty() || !quarantined.empty(),
                    "budget did not allow a single simulation");
  // The round record (observed rounds only); each outcome below supplies
  // its tie fields and adds its own counters.
  const auto record_round = [&](const SelectionResult& result, std::size_t tie_set,
                                const char* tie_path) {
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
    record.tie_set = tie_set;
    record.tie_path = tie_path;
    recorder_->record_round(record);
    recorder_->counter_add("selector.rounds", 1.0);
    recorder_->counter_add("selector.budget_charged", charged_ms);
    if (result.quarantined > 0)
      recorder_->counter_add("selector.quarantined",
                             static_cast<double>(result.quarantined));
  };
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
      record_round(result, 0, "degraded");
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
    const char* tie_path = "unique";
    if (tied > 1) {
      switch (config_.tie_break) {
        case TieBreak::kRandom: tie_path = "random"; break;
        case TieBreak::kSticky: tie_path = "sticky"; break;
        case TieBreak::kFirstIndex: tie_path = "first-index"; break;
      }
    }
    record_round(result, tied, tie_path);
    recorder_->counter_add("selector.candidates",
                           static_cast<double>(result.scores.size()));
  }
  return result;
}

}  // namespace psched::core
