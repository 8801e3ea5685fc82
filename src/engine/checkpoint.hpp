#pragma once
// Deterministic checkpoint/restore and crash-safe long-horizon execution
// (DESIGN.md §14).
//
// The engine's events are closures, so a checkpoint does not serialize the
// event queue byte-by-byte. Instead it exploits the engine's documented
// determinism contract — a full run is bit-identical to an incremental run
// stepped with advance_until(), and every outcome is a pure function of
// configs and seeds — and stores a *validated replay* checkpoint:
//
//  * a schema-versioned ("psched-checkpoint/v1") JSON body carrying the
//    epoch boundary, a config fingerprint, and a bit-exact StateDigest of
//    the complete simulation state at that boundary (event-loop position,
//    fleet, queue, RNG stream positions, selector partition, metric
//    accumulators — see the capture_* routines);
//  * a trailing checksum line over the body bytes, so truncation and bit
//    flips are detected before anything is trusted.
//
// Restore rebuilds the stack from the same config, replays deterministically
// to the stored epoch, captures a fresh digest, and accepts the checkpoint
// only if the digests are bit-identical. A resumed run therefore produces a
// byte-for-byte identical run report to an uninterrupted one — there is no
// approximate state to drift from. Corrupt, torn, stale-schema, or
// wrong-config checkpoints are *rejected* (counted, never trusted) and the
// supervisor falls back to the next older checkpoint, or to a fresh start.
//
// Files are written atomically (obs/atomic_file.hpp), named
// "<prefix>-<zero-padded epoch>.ckpt", pruned to the newest `keep`, and
// verified by immediate read-back (the checkpoint.roundtrip invariant) so a
// torn or bit-flipped write — injectable via validate::FaultInjection — is
// caught at write time, not at the next crash.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/tenant.hpp"
#include "util/fingerprint.hpp"
#include "util/state_digest.hpp"
#include "validate/fault.hpp"

namespace psched::engine {

/// Checkpoint supervision knobs (CLI: --checkpoint-every / --checkpoint-dir
/// / --resume-from).
struct CheckpointConfig {
  /// Checkpoint cadence in epochs (multi-tenant: arbitration epochs;
  /// single-run: scheduling ticks). 0 disables checkpoint writing.
  std::size_t every_epochs = 0;
  /// Directory checkpoints are written to and scanned from.
  std::string directory = ".";
  /// Filename stem: files are "<prefix>-<zero-padded epoch>.ckpt".
  std::string prefix = "psched";
  /// Newest checkpoints retained on disk; older ones are pruned. Keep >= 2
  /// so a crash *during* a checkpoint write still leaves a valid fallback.
  std::size_t keep = 2;
  /// Resume source: empty = fresh start, "auto" = newest valid checkpoint
  /// in `directory`, otherwise a checkpoint file path (invalid files fall
  /// back to the auto scan, then to a fresh start).
  std::string resume_from;
  /// Read every written checkpoint back and digest-compare before counting
  /// it written (the checkpoint.roundtrip invariant). Catches torn writes
  /// and bit flips at write time.
  bool verify_roundtrip = true;
  /// Self-test fault injection: kCheckpointTornWrite / kCheckpointBitFlip
  /// corrupt every checkpoint write so tests can prove detection fires.
  validate::FaultInjection inject_fault = validate::FaultInjection::kNone;
};

/// Supervision counters, mirrored into the report's "checkpoint" section
/// and the checkpoint.written/restored/rejected counters.
struct CheckpointStats {
  std::size_t written = 0;   ///< checkpoints written and roundtrip-verified
  std::size_t restored = 0;  ///< restores whose replay digest matched
  std::size_t rejected = 0;  ///< torn/corrupt/stale/mismatched checkpoints
  std::uint64_t resumed_epoch = 0;  ///< epoch resumed from (0 = fresh)
};

/// Why a checkpoint file was rejected.
enum class CheckpointError {
  kNone,
  kIo,              ///< unreadable file
  kTornTrailer,     ///< checksum trailer missing or malformed (truncation)
  kBadChecksum,     ///< body bytes do not match the trailer (bit flip)
  kParse,           ///< body is not the expected JSON shape
  kBadSchema,       ///< schema tag is not "psched-checkpoint/v1"
  kConfigMismatch,  ///< fingerprint of the producing config differs
  kDigestMismatch,  ///< deterministic replay disagrees with the stored digest
};

[[nodiscard]] const char* to_string(CheckpointError error) noexcept;

/// Decoded checkpoint document.
struct CheckpointDoc {
  std::uint64_t sequence = 0;   ///< write sequence within the producing run
  std::uint64_t epoch = 0;      ///< epoch boundary the digest was captured at
  std::uint64_t config_lo = 0;  ///< config fingerprint, low/high words
  std::uint64_t config_hi = 0;
  util::StateDigest digest;
};

struct CheckpointDecodeResult {
  CheckpointError error = CheckpointError::kNone;
  std::string detail;  ///< first failure, empty when ok
  CheckpointDoc doc;   ///< valid iff error == kNone
};

/// FNV-1a over raw bytes — the trailer checksum.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Serialize: one JSON line (schema, sequence, epoch, config fingerprint,
/// digest entries as ["name","hex64"] pairs; every u64 is a hex string —
/// JSON numbers are doubles and cannot carry 64 bits) plus the
/// "#psched-checksum fnv1a64=<16 hex>" trailer line.
[[nodiscard]] std::string encode_checkpoint(const CheckpointDoc& doc);

/// Parse + verify `bytes`: trailer present, checksum matches, body parses,
/// schema tag is current. Config/digest agreement is the caller's check.
[[nodiscard]] CheckpointDecodeResult decode_checkpoint(std::string_view bytes);

/// Write `doc` to `path` atomically. `fault` maps the checkpoint fault
/// injections onto the atomic-write layer (kNone otherwise). Returns false
/// on I/O failure.
bool write_checkpoint_file(const std::string& path, const CheckpointDoc& doc,
                           validate::FaultInjection fault =
                               validate::FaultInjection::kNone);

/// Read + decode one checkpoint file.
[[nodiscard]] CheckpointDecodeResult load_checkpoint_file(const std::string& path);

/// File path for the checkpoint at `epoch` under `config`.
[[nodiscard]] std::string checkpoint_path(const CheckpointConfig& config,
                                          std::uint64_t epoch);

/// Existing checkpoint files under `config.directory` matching
/// "<prefix>-<digits>.ckpt", newest epoch first — the auto-resume scan order.
[[nodiscard]] std::vector<std::string> list_checkpoints(const CheckpointConfig& config);

/// The checkpoint writer/restorer shared by the runners below: resolves the
/// resume source, validates candidates against the config fingerprint, and
/// writes + roundtrip-verifies + prunes checkpoints at epoch boundaries.
class CheckpointSupervisor {
 public:
  CheckpointSupervisor(const CheckpointConfig& config, std::uint64_t config_lo,
                       std::uint64_t config_hi);

  /// Scan the resume source (config.resume_from) and return the newest
  /// checkpoint that decodes cleanly and matches the config fingerprint, or
  /// nullptr. Every invalid candidate increments stats().rejected.
  [[nodiscard]] const CheckpointDoc* plan_resume();

  /// Judge the replayed state against the planned resume target: on a
  /// bit-identical digest counts a restore, otherwise a rejection (the
  /// replayed state is still correct — replay is the ground truth).
  /// Returns true when the restore was accepted.
  bool confirm_restore(const util::StateDigest& replayed);

  /// Write the checkpoint for `epoch`, roundtrip-verify it, prune old files.
  void write(std::uint64_t epoch, const util::StateDigest& digest);

  [[nodiscard]] const CheckpointStats& stats() const noexcept { return stats_; }

 private:
  CheckpointConfig config_;
  std::uint64_t config_lo_ = 0;
  std::uint64_t config_hi_ = 0;
  std::uint64_t sequence_ = 0;
  CheckpointDoc resume_;
  bool have_resume_ = false;
  CheckpointStats stats_;
  std::vector<std::string> written_paths_;
};

/// run_single_policy with checkpoint supervision: resumes from
/// `checkpoint.resume_from` when set, writes checkpoints every
/// `checkpoint.every_epochs` scheduling periods, and accumulates the
/// supervision counters into `stats`. The returned result is bit-identical
/// to the plain runner's.
[[nodiscard]] ScenarioResult run_single_policy_checkpointed(
    const EngineConfig& config, const workload::Trace& trace,
    policy::PolicyTriple triple, PredictorKind predictor,
    const CheckpointConfig& checkpoint, CheckpointStats& stats,
    obs::Recorder* recorder = nullptr);

/// run_portfolio with checkpoint supervision (see above).
[[nodiscard]] ScenarioResult run_portfolio_checkpointed(
    const EngineConfig& config, const workload::Trace& trace,
    const policy::Portfolio& portfolio,
    const core::PortfolioSchedulerConfig& pconfig, PredictorKind predictor,
    const CheckpointConfig& checkpoint, CheckpointStats& stats,
    obs::Recorder* recorder = nullptr);

/// MultiTenantExperiment::run with checkpoint supervision: checkpoints every
/// `checkpoint.every_epochs` arbitration epochs via the EpochObserver hook.
[[nodiscard]] MultiTenantResult run_tenants_checkpointed(
    const MultiTenantConfig& config, const CheckpointConfig& checkpoint,
    CheckpointStats& stats, util::ThreadPool* pool = nullptr);

/// Fingerprints identifying the producing configuration, mixed from the
/// deterministic scalar knobs plus trace identity. A checkpoint whose
/// fingerprint differs is rejected (kConfigMismatch): replaying someone
/// else's config would diverge and waste the whole replay.
[[nodiscard]] util::Fingerprint single_policy_config_fingerprint(
    const EngineConfig& config, const workload::Trace& trace,
    policy::PolicyTriple triple, PredictorKind predictor);
[[nodiscard]] util::Fingerprint portfolio_config_fingerprint(
    const EngineConfig& config, const workload::Trace& trace,
    const policy::Portfolio& portfolio,
    const core::PortfolioSchedulerConfig& pconfig, PredictorKind predictor);
[[nodiscard]] util::Fingerprint tenants_config_fingerprint(
    const MultiTenantConfig& config);

}  // namespace psched::engine
