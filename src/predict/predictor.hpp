#pragma once
// Job runtime prediction (paper Section 3.2). Policies that consume runtimes
// (ODE, ODX, LXF, WFP3, UNICEF) and the online simulator never see actual
// runtimes directly; they go through a RuntimePredictor so the three
// information regimes of the evaluation (accurate / predicted / user
// estimates) are a configuration switch.
//
// Contract: a predictor keeps only per-user state. predict(job) depends on
// the job's own fields and on the completions observed for job.user, so a
// job's prediction changes only when observe_completion() is fed a job of
// the same user. The outer engine caches each queued job's prediction on
// that basis and re-predicts only after such a completion (DESIGN.md §2).
// All six predictors (perfect, user-estimate, Tsafrir, last-runtime,
// running-mean, EWMA) keep to it.

#include <memory>
#include <string>

#include "workload/job.hpp"

namespace psched::predict {

class RuntimePredictor {
 public:
  virtual ~RuntimePredictor() = default;

  /// Predicted runtime (seconds, > 0) for a job that has not finished yet.
  [[nodiscard]] virtual double predict(const workload::Job& job) const = 0;

  /// Feed back a completed job so learning predictors can adapt.
  virtual void observe_completion(const workload::Job& /*job*/) {}

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Oracle: returns the actual runtime (the paper's "accurate runtime" mode).
class PerfectPredictor final : public RuntimePredictor {
 public:
  [[nodiscard]] double predict(const workload::Job& job) const override;
  [[nodiscard]] std::string name() const override { return "perfect"; }
};

/// Returns the user-provided estimate (the paper's "user estimated runtime"
/// mode; estimates are typically far larger than actual runtimes).
class UserEstimatePredictor final : public RuntimePredictor {
 public:
  [[nodiscard]] double predict(const workload::Job& job) const override;
  [[nodiscard]] std::string name() const override { return "user-estimate"; }
};

/// Factory helpers.
[[nodiscard]] std::unique_ptr<RuntimePredictor> make_perfect();
[[nodiscard]] std::unique_ptr<RuntimePredictor> make_user_estimate();

}  // namespace psched::predict
