#include "engine/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/atomic_file.hpp"
#include "obs/json.hpp"
#include "util/assert.hpp"

namespace psched::engine {

namespace {

constexpr const char* kCheckpointSchema = "psched-checkpoint/v1";
constexpr const char* kTrailerPrefix = "#psched-checksum fnv1a64=";
constexpr std::size_t kEpochDigits = 8;

std::string hex_u64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

bool parse_hex_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 16) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out, 16);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

/// Pull one required hex-string member out of the body object.
bool read_hex_member(const obs::JsonValue& root, const char* key,
                     std::uint64_t& out, std::string& detail) {
  const obs::JsonValue* member = root.find(key);
  if (member == nullptr || !member->is(obs::JsonValue::Type::kString) ||
      !parse_hex_u64(member->string, out)) {
    detail = std::string("member \"") + key + "\" missing or not a hex u64";
    return false;
  }
  return true;
}

}  // namespace

const char* to_string(CheckpointError error) noexcept {
  switch (error) {
    case CheckpointError::kNone: return "none";
    case CheckpointError::kIo: return "io";
    case CheckpointError::kTornTrailer: return "torn-trailer";
    case CheckpointError::kBadChecksum: return "bad-checksum";
    case CheckpointError::kParse: return "parse";
    case CheckpointError::kBadSchema: return "bad-schema";
    case CheckpointError::kConfigMismatch: return "config-mismatch";
    case CheckpointError::kDigestMismatch: return "digest-mismatch";
  }
  return "unknown";
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string encode_checkpoint(const CheckpointDoc& doc) {
  std::string body = "{\"schema\":\"";
  body += kCheckpointSchema;
  body += "\",\"sequence\":\"";
  body += hex_u64(doc.sequence);
  body += "\",\"epoch\":\"";
  body += hex_u64(doc.epoch);
  body += "\",\"config_lo\":\"";
  body += hex_u64(doc.config_lo);
  body += "\",\"config_hi\":\"";
  body += hex_u64(doc.config_hi);
  body += "\",\"digest\":[";
  bool first = true;
  for (const util::StateDigest::Entry& entry : doc.digest.entries()) {
    if (!first) body += ',';
    first = false;
    body += "[\"";
    body += obs::json_escape(entry.name);
    body += "\",\"";
    body += hex_u64(entry.value);
    body += "\"]";
  }
  body += "]}\n";
  std::string out = body;
  out += kTrailerPrefix;
  out += hex_u64(fnv1a64(body));
  out += '\n';
  return out;
}

CheckpointDecodeResult decode_checkpoint(std::string_view bytes) {
  CheckpointDecodeResult result;
  const auto reject = [&](CheckpointError error, std::string detail) {
    result.error = error;
    result.detail = std::move(detail);
    return result;
  };

  // Locate the trailer: the body is one JSON line, the trailer the next.
  const std::size_t newline = bytes.find('\n');
  if (newline == std::string_view::npos)
    return reject(CheckpointError::kTornTrailer, "no body/trailer separator");
  const std::string_view body = bytes.substr(0, newline + 1);
  std::string_view trailer = bytes.substr(newline + 1);
  if (!trailer.empty() && trailer.back() == '\n') trailer.remove_suffix(1);
  const std::string_view prefix(kTrailerPrefix);
  if (trailer.size() != prefix.size() + 16 ||
      trailer.substr(0, prefix.size()) != prefix) {
    return reject(CheckpointError::kTornTrailer,
                  "checksum trailer missing or malformed");
  }
  std::uint64_t expected = 0;
  if (!parse_hex_u64(trailer.substr(prefix.size()), expected))
    return reject(CheckpointError::kTornTrailer, "checksum is not 16 hex digits");
  const std::uint64_t actual = fnv1a64(body);
  if (actual != expected) {
    return reject(CheckpointError::kBadChecksum,
                  "body checksum " + hex_u64(actual) + " != trailer " +
                      hex_u64(expected));
  }

  const obs::JsonParseResult parsed = obs::json_parse(body);
  if (!parsed.ok)
    return reject(CheckpointError::kParse, "body is not valid JSON: " + parsed.error);
  const obs::JsonValue& root = parsed.value;
  if (!root.is(obs::JsonValue::Type::kObject))
    return reject(CheckpointError::kParse, "body root is not an object");

  const obs::JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is(obs::JsonValue::Type::kString))
    return reject(CheckpointError::kParse, "schema tag missing");
  if (schema->string != kCheckpointSchema) {
    return reject(CheckpointError::kBadSchema,
                  "unexpected schema tag \"" + schema->string + '"');
  }

  std::string detail;
  if (!read_hex_member(root, "sequence", result.doc.sequence, detail) ||
      !read_hex_member(root, "epoch", result.doc.epoch, detail) ||
      !read_hex_member(root, "config_lo", result.doc.config_lo, detail) ||
      !read_hex_member(root, "config_hi", result.doc.config_hi, detail)) {
    return reject(CheckpointError::kParse, std::move(detail));
  }

  const obs::JsonValue* digest = root.find("digest");
  if (digest == nullptr || !digest->is(obs::JsonValue::Type::kArray))
    return reject(CheckpointError::kParse, "digest missing or not an array");
  for (const obs::JsonValue& pair : digest->array) {
    std::uint64_t value = 0;
    if (!pair.is(obs::JsonValue::Type::kArray) || pair.array.size() != 2 ||
        !pair.array[0].is(obs::JsonValue::Type::kString) ||
        !pair.array[1].is(obs::JsonValue::Type::kString) ||
        !parse_hex_u64(pair.array[1].string, value)) {
      return reject(CheckpointError::kParse,
                    "digest entry is not a [name, hex u64] pair");
    }
    result.doc.digest.add_u64(pair.array[0].string, value);
  }
  return result;
}

bool write_checkpoint_file(const std::string& path, const CheckpointDoc& doc,
                           validate::FaultInjection fault) {
  obs::AtomicWriteFault write_fault = obs::AtomicWriteFault::kNone;
  if (fault == validate::FaultInjection::kCheckpointTornWrite)
    write_fault = obs::AtomicWriteFault::kTornDestination;
  else if (fault == validate::FaultInjection::kCheckpointBitFlip)
    write_fault = obs::AtomicWriteFault::kBitFlip;
  return obs::write_file_atomic(path, encode_checkpoint(doc), write_fault);
}

CheckpointDecodeResult load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    CheckpointDecodeResult result;
    result.error = CheckpointError::kIo;
    result.detail = "cannot open " + path;
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return decode_checkpoint(buffer.str());
}

std::string checkpoint_path(const CheckpointConfig& config, std::uint64_t epoch) {
  std::string digits = std::to_string(epoch);
  if (digits.size() < kEpochDigits)
    digits.insert(0, kEpochDigits - digits.size(), '0');
  return (std::filesystem::path(config.directory) /
          (config.prefix + "-" + digits + ".ckpt"))
      .string();
}

std::vector<std::string> list_checkpoints(const CheckpointConfig& config) {
  const std::string stem_prefix = config.prefix + "-";
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(config.directory, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= stem_prefix.size() + 5) continue;
    if (name.compare(0, stem_prefix.size(), stem_prefix) != 0) continue;
    if (name.size() < 5 || name.compare(name.size() - 5, 5, ".ckpt") != 0) continue;
    const std::string digits =
        name.substr(stem_prefix.size(), name.size() - stem_prefix.size() - 5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::uint64_t epoch = 0;
    const auto [ptr, err] =
        std::from_chars(digits.data(), digits.data() + digits.size(), epoch);
    if (err != std::errc{} || ptr != digits.data() + digits.size()) continue;
    found.emplace_back(epoch, entry.path().string());
  }
  // Newest epoch first; path as a deterministic tiebreak.
  std::sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [epoch, path] : found) paths.push_back(std::move(path));
  return paths;
}

CheckpointSupervisor::CheckpointSupervisor(const CheckpointConfig& config,
                                           std::uint64_t config_lo,
                                           std::uint64_t config_hi)
    : config_(config), config_lo_(config_lo), config_hi_(config_hi) {
  if (config_.keep == 0) config_.keep = 1;
  if (config_.every_epochs > 0 && !config_.directory.empty()) {
    // Best-effort: a missing directory would otherwise fail every write (each
    // counted as rejected), which reads like corruption rather than misuse.
    std::error_code ec;
    std::filesystem::create_directories(config_.directory, ec);
  }
}

const CheckpointDoc* CheckpointSupervisor::plan_resume() {
  if (config_.resume_from.empty()) return nullptr;
  std::vector<std::string> candidates;
  if (config_.resume_from != "auto") candidates.push_back(config_.resume_from);
  for (std::string& path : list_checkpoints(config_)) {
    if (std::find(candidates.begin(), candidates.end(), path) == candidates.end())
      candidates.push_back(std::move(path));
  }
  for (const std::string& path : candidates) {
    CheckpointDecodeResult loaded = load_checkpoint_file(path);
    if (loaded.error != CheckpointError::kNone) {
      ++stats_.rejected;
      continue;
    }
    if (loaded.doc.config_lo != config_lo_ || loaded.doc.config_hi != config_hi_) {
      ++stats_.rejected;
      continue;
    }
    resume_ = std::move(loaded.doc);
    have_resume_ = true;
    // Keep the sequence monotone across the crash so a resumed process
    // never reuses an interrupted run's sequence numbers.
    sequence_ = resume_.sequence;
    return &resume_;
  }
  return nullptr;  // every candidate rejected: fresh start
}

bool CheckpointSupervisor::confirm_restore(const util::StateDigest& replayed) {
  if (!have_resume_) return false;
  if (replayed == resume_.digest) {
    ++stats_.restored;
    stats_.resumed_epoch = resume_.epoch;
    return true;
  }
  // The deterministic replay IS the ground truth: a mismatch rejects the
  // checkpoint, never the replayed state.
  ++stats_.rejected;
  return false;
}

void CheckpointSupervisor::write(std::uint64_t epoch,
                                 const util::StateDigest& digest) {
  CheckpointDoc doc;
  doc.sequence = ++sequence_;
  doc.epoch = epoch;
  doc.config_lo = config_lo_;
  doc.config_hi = config_hi_;
  doc.digest = digest;
  const std::string path = checkpoint_path(config_, epoch);
  if (!write_checkpoint_file(path, doc, config_.inject_fault)) {
    ++stats_.rejected;
    return;
  }
  if (config_.verify_roundtrip) {
    // The checkpoint.roundtrip invariant: a checkpoint that does not decode
    // back to the digest just captured must never be trusted later — delete
    // it now so the auto scan falls back to the previous good one.
    const CheckpointDecodeResult back = load_checkpoint_file(path);
    if (back.error != CheckpointError::kNone || back.doc.digest != digest ||
        back.doc.epoch != epoch) {
      ++stats_.rejected;
      std::remove(path.c_str());
      return;
    }
  }
  ++stats_.written;
  written_paths_.push_back(path);
  while (written_paths_.size() > config_.keep) {
    std::remove(written_paths_.front().c_str());
    written_paths_.erase(written_paths_.begin());
  }
}

namespace {

/// Mix a string through the byte-exact FNV hash (Fingerprint::mix takes
/// words, not bytes).
void mix_string(util::Fingerprint& fp, std::string_view text) {
  fp.mix(fnv1a64(text));
  fp.mix(static_cast<std::uint64_t>(text.size()));
}

void mix_engine_config(util::Fingerprint& fp, const EngineConfig& config) {
  fp.mix(static_cast<std::uint64_t>(config.provider.max_vms));
  fp.mix(config.provider.boot_delay);
  fp.mix(config.provider.billing_quantum);
  fp.mix(config.schedule_period);
  fp.mix(config.slowdown_bound);
  fp.mix(static_cast<int>(config.release_rule));
  fp.mix(static_cast<int>(config.allocation));
  fp.mix(config.failure.enabled());
  fp.mix(config.pricing.enabled());
}

/// Drive one ClusterSimulation under checkpoint supervision. Epochs count
/// scheduling periods; bit-identical to sim.run() + finish() by the engine's
/// incremental-stepping contract.
void drive_checkpointed(ClusterSimulation& sim, const EngineConfig& config,
                        const CheckpointConfig& checkpoint,
                        CheckpointSupervisor& supervisor) {
  const std::uint64_t every =
      checkpoint.every_epochs == 0
          ? 1
          : static_cast<std::uint64_t>(checkpoint.every_epochs);
  sim.start();
  std::uint64_t epoch = 0;
  if (const CheckpointDoc* target = supervisor.plan_resume(); target != nullptr) {
    epoch = target->epoch;
    sim.advance_until(static_cast<double>(epoch) * config.schedule_period);
    util::StateDigest replayed;
    sim.capture_checkpoint_state(replayed);
    supervisor.confirm_restore(replayed);
  }
  while (sim.active()) {
    epoch += every;
    sim.advance_until(static_cast<double>(epoch) * config.schedule_period);
    if (checkpoint.every_epochs != 0 && sim.active()) {
      util::StateDigest digest;
      sim.capture_checkpoint_state(digest);
      supervisor.write(epoch, digest);
    }
  }
}

void accumulate(CheckpointStats& into, const CheckpointStats& from) {
  into.written += from.written;
  into.restored += from.restored;
  into.rejected += from.rejected;
  if (from.resumed_epoch != 0) into.resumed_epoch = from.resumed_epoch;
}

/// Epoch hook wiring a MultiTenantExperiment to the supervisor: confirms the
/// planned restore at its epoch and writes checkpoints on cadence.
class TenantCheckpointObserver final : public EpochObserver {
 public:
  TenantCheckpointObserver(CheckpointSupervisor& supervisor,
                           const CheckpointConfig& checkpoint,
                           const CheckpointDoc* resume_target)
      : supervisor_(supervisor),
        every_(checkpoint.every_epochs),
        resume_epoch_(resume_target != nullptr ? resume_target->epoch : 0),
        pending_restore_(resume_target != nullptr) {}

  void on_epoch_boundary(
      std::uint64_t epoch,
      const std::function<void(util::StateDigest&)>& capture) override {
    if (pending_restore_ && epoch == resume_epoch_) {
      util::StateDigest replayed;
      capture(replayed);
      supervisor_.confirm_restore(replayed);
      pending_restore_ = false;
    }
    if (every_ != 0 && epoch % every_ == 0) {
      util::StateDigest digest;
      capture(digest);
      supervisor_.write(epoch, digest);
    }
  }

 private:
  CheckpointSupervisor& supervisor_;
  std::uint64_t every_ = 0;
  std::uint64_t resume_epoch_ = 0;
  bool pending_restore_ = false;
};

}  // namespace

util::Fingerprint single_policy_config_fingerprint(const EngineConfig& config,
                                                   const workload::Trace& trace,
                                                   policy::PolicyTriple triple,
                                                   PredictorKind predictor) {
  util::Fingerprint fp;
  mix_string(fp, "single-policy");
  mix_string(fp, trace.name());
  fp.mix(static_cast<std::uint64_t>(trace.size()));
  mix_engine_config(fp, config);
  mix_string(fp, triple.name());
  fp.mix(static_cast<int>(predictor));
  return fp;
}

util::Fingerprint portfolio_config_fingerprint(
    const EngineConfig& config, const workload::Trace& trace,
    const policy::Portfolio& portfolio,
    const core::PortfolioSchedulerConfig& pconfig, PredictorKind predictor) {
  util::Fingerprint fp;
  mix_string(fp, "portfolio");
  mix_string(fp, trace.name());
  fp.mix(static_cast<std::uint64_t>(trace.size()));
  mix_engine_config(fp, config);
  fp.mix(static_cast<std::uint64_t>(portfolio.size()));
  for (const policy::PolicyTriple& triple : portfolio.policies())
    mix_string(fp, triple.name());
  fp.mix(static_cast<std::uint64_t>(pconfig.selection_period_ticks));
  fp.mix(static_cast<int>(pconfig.trigger));
  fp.mix(pconfig.selector.lambda);
  fp.mix(static_cast<int>(predictor));
  // Deliberately excluded: observability — the engine is bit-identical
  // with and without it, so a checkpoint written at one level resumes
  // cleanly at another.
  return fp;
}

util::Fingerprint tenants_config_fingerprint(const MultiTenantConfig& config) {
  util::Fingerprint fp;
  mix_string(fp, "tenants");
  mix_engine_config(fp, config.engine);
  fp.mix(static_cast<std::uint64_t>(config.arbitration_period_ticks));
  fp.mix(static_cast<int>(config.predictor));
  fp.mix(config.portfolio != nullptr);
  if (config.portfolio != nullptr) {
    fp.mix(static_cast<std::uint64_t>(config.portfolio->size()));
    for (const policy::PolicyTriple& triple : config.portfolio->policies())
      mix_string(fp, triple.name());
    fp.mix(static_cast<std::uint64_t>(config.scheduler.selection_period_ticks));
  } else {
    mix_string(fp, config.policy.name());
  }
  fp.mix(static_cast<std::uint64_t>(config.tenants.size()));
  for (const TenantConfig& tenant : config.tenants) {
    fp.mix(tenant.weight);
    fp.mix(tenant.budget_vm_hours);
    fp.mix(tenant.failure.enabled());
    mix_string(fp, tenant.trace->name());
    fp.mix(static_cast<std::uint64_t>(tenant.trace->size()));
  }
  return fp;
}

ScenarioResult run_single_policy_checkpointed(
    const EngineConfig& config, const workload::Trace& trace,
    policy::PolicyTriple triple, PredictorKind predictor,
    const CheckpointConfig& checkpoint, CheckpointStats& stats,
    obs::Recorder* recorder) {
  core::SinglePolicyScheduler scheduler(triple);
  const auto pred = make_predictor(predictor);
  ClusterSimulation sim(config, trace, scheduler, *pred, recorder);
  const util::Fingerprint fp =
      single_policy_config_fingerprint(config, trace, triple, predictor);
  CheckpointSupervisor supervisor(checkpoint, fp.lo(), fp.hi());
  drive_checkpointed(sim, config, checkpoint, supervisor);
  ScenarioResult result;
  result.run = sim.finish();
  accumulate(stats, supervisor.stats());
  return result;
}

ScenarioResult run_portfolio_checkpointed(
    const EngineConfig& config, const workload::Trace& trace,
    const policy::Portfolio& portfolio,
    const core::PortfolioSchedulerConfig& pconfig, PredictorKind predictor,
    const CheckpointConfig& checkpoint, CheckpointStats& stats,
    obs::Recorder* recorder) {
  core::PortfolioScheduler scheduler(portfolio, pconfig);
  const auto pred = make_predictor(predictor);
  ClusterSimulation sim(config, trace, scheduler, *pred, recorder);
  const util::Fingerprint fp =
      portfolio_config_fingerprint(config, trace, portfolio, pconfig, predictor);
  CheckpointSupervisor supervisor(checkpoint, fp.lo(), fp.hi());
  drive_checkpointed(sim, config, checkpoint, supervisor);
  ScenarioResult result;
  result.run = sim.finish();
  result.is_portfolio = true;
  const core::ReflectionStore& reflection = scheduler.reflection();
  result.portfolio.invocations = reflection.invocations();
  result.portfolio.total_selection_cost_ms = reflection.total_cost_ms();
  result.portfolio.mean_simulated_per_invocation =
      reflection.mean_simulated_per_invocation();
  result.portfolio.chosen_counts = reflection.chosen_counts();
  accumulate(stats, supervisor.stats());
  return result;
}

MultiTenantResult run_tenants_checkpointed(const MultiTenantConfig& config,
                                           const CheckpointConfig& checkpoint,
                                           CheckpointStats& stats,
                                           util::ThreadPool* pool) {
  const util::Fingerprint fp = tenants_config_fingerprint(config);
  CheckpointSupervisor supervisor(checkpoint, fp.lo(), fp.hi());
  const CheckpointDoc* target = supervisor.plan_resume();
  TenantCheckpointObserver observer(supervisor, checkpoint, target);
  MultiTenantExperiment experiment(config, pool);
  MultiTenantResult result = experiment.run(&observer);
  accumulate(stats, supervisor.stats());
  return result;
}

}  // namespace psched::engine
