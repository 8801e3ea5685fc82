#pragma once
// Bench regression gate (DESIGN.md §11): compare a freshly produced
// "psched-bench-report/v1" document against a committed baseline and fail
// on regressions.
//
// A gated report carries an optional "gate" array parallel to "headers":
// one ColumnKind per column saying how that column is compared. Columns of
// deterministic outputs (candidate counts, work counters) gate
// exactly — any drift is a correctness bug, not noise. Timing/throughput
// columns gate within a multiplicative tolerance band: the gate is a
// guardrail against algorithmic blowups (an accidental O(n^2), a lost
// fast path), not a precision benchmark — machine noise must never fail
// it, so the default band is deliberately wide. Reports without a "gate"
// array compare every column exactly (the caller opted into gating by
// invoking the gate at all).
//
// Improvements always pass: a candidate that got faster than its baseline
// is a reason to refresh the baseline (tools/psched_bench_gate --update),
// never a failure.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace psched::obs {

/// How one column of a gated bench table compares against its baseline.
enum class ColumnKind {
  kExact,          ///< bit-for-bit: deterministic outputs, labels, counts
  kLowerBetter,    ///< latency-like: fail if candidate > baseline * tolerance
  kHigherBetter,   ///< throughput-like: fail if candidate < baseline / tolerance
  kInformational,  ///< never gated (context columns, machine-dependent extras)
};

/// Stable wire names for the report's "gate" array.
[[nodiscard]] const char* to_string(ColumnKind kind) noexcept;
/// Parse a wire name; returns false (and leaves `out` untouched) on an
/// unknown name.
[[nodiscard]] bool column_kind_from(std::string_view name, ColumnKind& out) noexcept;

struct BenchGateConfig {
  /// Multiplicative slack for kLowerBetter/kHigherBetter columns: a
  /// candidate fails only when it is worse than baseline by more than this
  /// factor (e.g. 3.0 = "three times slower"). Wide by design — the gate
  /// catches algorithmic regressions, not scheduler jitter. Must be >= 1.
  double timing_tolerance = 3.0;
};

/// One gate comparison outcome, machine-checkable and human-readable.
struct GateResult {
  std::vector<std::string> failures;  ///< empty = pass
  std::size_t cells_checked = 0;      ///< gated cells compared (excl. informational)

  [[nodiscard]] bool pass() const noexcept { return failures.empty(); }
};

/// Gate `candidate_json` against `baseline_json` (both full
/// "psched-bench-report/v1" documents). Structural mismatches — bad JSON,
/// schema drift, different headers, different row counts, diverging "gate"
/// arrays — are failures: a gate that cannot line the tables up must not
/// silently pass. The baseline's "gate" array (falling back to the
/// candidate's, then to all-exact) decides each column's comparison.
[[nodiscard]] GateResult gate_bench_reports(std::string_view baseline_json,
                                            std::string_view candidate_json,
                                            const BenchGateConfig& config);

}  // namespace psched::obs
