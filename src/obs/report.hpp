#pragma once
// End-of-run observability artifacts (DESIGN.md §9):
//
//  * run_report_json  — the machine-readable "psched-run-report/v1" document
//    (metrics, engine totals, selection-round aggregates, phase wall time,
//    counter dump) written by the experiment runner, the bench harness, and
//    `psched_cli run --report-out`;
//  * chrome_trace_json — the Chrome trace-event document ("traceEvents")
//    loadable in chrome://tracing / Perfetto, built from a Recorder's event
//    sink;
//  * validate_run_report / validate_chrome_trace — schema validators shared
//    by the unit tests and tools/psched_report_check, so the schema a test
//    pins is the same one the CLI tool enforces.
//
// The report inputs are plain values (metrics + engine totals) rather than
// engine types: obs sits below engine in the include graph, so engine code
// can embed a Recorder without a cycle.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/collector.hpp"
#include "obs/obs.hpp"

namespace psched::obs {

/// Portfolio-run extras mirrored into the report (absent for single-policy
/// runs: `present == false` serializes the "portfolio" key as null).
struct ReportPortfolio {
  bool present = false;
  std::size_t invocations = 0;
  double total_selection_cost_ms = 0.0;
  double mean_simulated_per_invocation = 0.0;
  std::vector<std::size_t> chosen_counts;  ///< per portfolio policy index
};

/// One tenant's row in the report's "tenants" section.
struct ReportTenant {
  std::string name;
  double weight = 1.0;
  double budget_vm_hours = 0.0;  ///< 0 = unlimited
  bool over_budget = false;
  std::size_t jobs = 0;    ///< finished
  std::size_t killed = 0;  ///< killed for good (resubmission budget spent)
  double charged_hours = 0.0;
  std::size_t min_allocation = 0;  ///< arbiter allowance, across arbitrations
  double mean_allocation = 0.0;
  std::size_t max_allocation = 0;
};

/// Multi-tenant extras mirrored into the report (absent for single-tenant
/// runs: `present == false` serializes the "tenants" key as null).
struct ReportTenants {
  bool present = false;
  std::size_t global_cap = 0;  ///< shared provider capacity
  std::size_t arbitration_period_ticks = 0;
  std::uint64_t epochs = 0;
  std::uint64_t arbitrations = 0;
  std::size_t peak_leased = 0;  ///< max summed live fleets at arbitration
  std::vector<ReportTenant> tenants;
};

/// Checkpoint supervision extras mirrored into the report (absent for runs
/// without checkpointing: `present == false` serializes the "checkpoint" key
/// as null). Only the CLI supervisor fills this in — reports built straight
/// from engine results keep it null so a resumed run's report stays
/// byte-identical to an uninterrupted one.
struct ReportCheckpoint {
  bool present = false;
  std::size_t every_epochs = 0;  ///< checkpoint cadence (epochs)
  std::size_t written = 0;       ///< checkpoints written this process
  std::size_t restored = 0;      ///< successful restores (digest verified)
  std::size_t rejected = 0;      ///< corrupt/stale checkpoints skipped
  std::uint64_t resumed_epoch = 0;  ///< epoch resumed from (0 = fresh start)
};

/// Everything a run report needs beyond what the Recorder holds.
struct RunReportInputs {
  std::string trace_name;
  std::string scheduler_name;
  metrics::RunMetrics metrics;
  metrics::UtilityParams utility;  ///< parameters behind metrics.utility()
  std::uint64_t ticks = 0;
  std::uint64_t events = 0;
  std::size_t total_leases = 0;
  std::uint64_t invariant_checks = 0;
  std::size_t invariant_violations = 0;
  ReportPortfolio portfolio;
  /// True when the run had a failure model attached (EngineConfig::failure
  /// enabled). The report's "failures" section serializes as null when
  /// false, and as a schema-versioned ("psched-failures/v1") object built
  /// from metrics.failures when true — even if every count happens to be 0.
  bool failures_enabled = false;
  /// True when the run had a pricing model attached (EngineConfig::pricing
  /// enabled). The report's "pricing" section serializes as null when false,
  /// and as a schema-versioned ("psched-pricing/v1") object built from
  /// metrics.pricing when true.
  bool pricing_enabled = false;
  /// Multi-tenant section ("psched-tenants/v1"); `tenants.present == false`
  /// (the default, i.e. single-tenant mode) serializes the key as null.
  ReportTenants tenants;
  /// Checkpoint section ("psched-checkpoint-report/v1"); null unless the CLI
  /// supervisor ran with --checkpoint-every.
  ReportCheckpoint checkpoint;
};

/// Serialize the "psched-run-report/v1" document. `recorder` may be null or
/// disabled: the report then carries metrics/engine sections only, with
/// empty phases/counters and `"obs_level": "off"`.
[[nodiscard]] std::string run_report_json(const RunReportInputs& inputs,
                                          const Recorder* recorder);

/// Serialize the Recorder's event sink as a Chrome trace-event document:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`. Events keep sink
/// order (the coordinating thread's order, so deterministic).
[[nodiscard]] std::string chrome_trace_json(const Recorder& recorder);

struct ValidationResult {
  bool ok = true;
  std::string detail;  ///< first failure, empty when ok
};

/// Validate a run-report document: parses, carries the v1 schema tag, and
/// has the required metrics/engine/phases/counters members with the right
/// JSON types.
[[nodiscard]] ValidationResult validate_run_report(std::string_view json);

/// Validate a Chrome trace document: parses, `traceEvents` is an array of
/// well-formed events, per-lane (pid, tid) timestamps are monotone
/// non-decreasing, and every 'B' has a matching 'E' (LIFO per lane, same
/// name).
[[nodiscard]] ValidationResult validate_chrome_trace(std::string_view json);

/// Validate a "psched-bench-report/v1" document (bench `--report` output):
/// parses, carries the v1 schema tag, and every row is rectangular with
/// number-or-string cells matching the header count.
[[nodiscard]] ValidationResult validate_bench_report(std::string_view json);

/// Validate a SARIF v2.1.0 document (psched-lint `--sarif` output, or any
/// tool's): parses within the obs/json depth bound, carries version
/// "2.1.0", has a non-empty `runs` array where each run names its tool
/// driver, and every result has a non-empty ruleId, a message.text string,
/// and locations with an artifactLocation.uri and a 1-based
/// region.startLine. This is the contract GitHub code scanning ingestion
/// relies on; CI validates the emitted file before uploading it.
[[nodiscard]] ValidationResult validate_sarif(std::string_view json);

/// Write `content` to `path` crash-safely via write_file_atomic (temp +
/// fsync + rename; see obs/atomic_file.hpp). A failure — or a crash at any
/// instant — leaves any previous file at `path` intact. Returns false on
/// I/O failure.
bool write_text_file(const std::string& path, std::string_view content);

}  // namespace psched::obs
