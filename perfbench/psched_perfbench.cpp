// psched benchmark program.
//
// Runs one workload — a fixed set of scenarios over traces generated from
// --seed — repeatedly for about --seconds, and prints its metrics. It reaches
// each layer only through public calls and times them from the outside with
// benchmark-owned decorators:
//
//   --trace 0  end-to-end metrics, tracing off: wall_s, setup_s, peak_rss_mb.
//   --trace 1  per-layer metrics: untraced repetitions (decision latency from
//              two clock reads around each Scheduler::policy_for_tick)
//              alternate with traced ones, which add a counting RuntimePredictor
//              decorator and an obs::Recorder at kCounters; sampled selection
//              rounds are replayed through
//              core::OnlineSimulator::simulate(queue, profile, policy).
//
// Every scenario's outputs are folded into a digest. Repetitions must agree,
// traced runs must match untraced ones, the decorated single-cluster wiring
// must match engine::run_portfolio / run_single_policy on the first trace,
// and, when run.py passes --expect-digest for the default seed, the digest
// must match the recorded one. A mismatch, an exception, an unfinished job or
// a degraded selection round counts as a failed operation. The last stdout
// line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/online_sim.hpp"
#include "core/scheduler.hpp"
#include "engine/cluster_sim.hpp"
#include "engine/experiment.hpp"
#include "engine/tenant.hpp"
#include "obs/obs.hpp"
#include "policy/portfolio.hpp"
#include "predict/predictor.hpp"
#include "util/argparse.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace psched;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

template <typename T>
double median(std::vector<T> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? static_cast<double>(values[n / 2])
                    : 0.5 * (static_cast<double>(values[n / 2 - 1]) +
                             static_cast<double>(values[n / 2]));
}

/// Nearest-rank percentile of `sorted` (ascending), q in (0, 1].
template <typename T>
T percentile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return T{};
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// --- host-speed calibration --------------------------------------------------
//
// Shared hosts change speed by tens of percent over seconds to minutes as
// neighbours come and go, which moves every timing of a run together. A fixed
// kernel that uses no psched code — sorting and ordered-map updates, the mix
// of branches and pointer chasing the simulators spend their time in — is
// timed before every scenario. Each repetition's timings are scaled by
// kReferenceKernelS / (median kernel time of that repetition), so wall_s and
// setup_s read as seconds on a host that runs the kernel in
// kReferenceKernelS. A change to psched moves them; a change of host speed
// mostly does not. The unscaled host seconds are printed beside them.

constexpr double kReferenceKernelS = 0.0004;

double calibration_sample() {
  static volatile std::uint64_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::vector<std::uint32_t> values(2048);
  for (std::uint32_t& v : values) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<std::uint32_t>(x);
  }
  std::sort(values.begin(), values.end());
  std::map<std::uint32_t, std::uint32_t> counts;
  for (std::size_t i = 0; i < values.size(); i += 2) counts[values[i] % 4096] += values[i];
  sink = sink + counts.size() + values[values.size() / 2];
  return seconds_between(t0, Clock::now());
}

// --- workloads ---------------------------------------------------------------

enum class Kind {
  kPortfolio,     ///< one PortfolioScheduler engine run per trace
  /// kPoliciesPerTrace constituent policies under SinglePolicyScheduler per
  /// trace, rotating through the portfolio: trace k runs policies
  /// k * kPoliciesPerTrace + j (mod 60). A trace's run time follows its
  /// longest job, so spreading the policies over many traces averages that
  /// out where 60 runs of one trace would repeat it.
  kConstituents,
};

constexpr std::size_t kPoliciesPerTrace = 8;

/// Each workload is a closed loop: one engine drives its own simulated
/// clock, scenario after scenario. Many short traces rather than one long
/// one keep the cost of a run from hanging on one seed's bursts.
struct Workload {
  const char* name;
  Kind kind;
  const char* archetype;
  double days;             ///< horizon of each generated trace
  std::size_t traces;      ///< traces per repetition
  engine::PredictorKind predictor;
  /// Multi-tenant experiments the traced run adds (0 = none): kTenants
  /// tenants of the same archetype, tenant_days each, over the shared cap.
  std::size_t tenant_experiments;
  double tenant_days;
};

constexpr std::size_t kTenants = 4;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"portfolio-sdsc", Kind::kPortfolio, "SDSC-SP2", 0.5, 96,
       engine::PredictorKind::kPerfect, 0, 0.0},
      {"portfolio-kth", Kind::kPortfolio, "KTH-SP2", 0.5, 80,
       engine::PredictorKind::kPerfect, 8, 0.0625},
      {"constituents-lpc", Kind::kConstituents, "LPC-EGEE", 0.25, 120,
       engine::PredictorKind::kTsafrir, 0, 0.0},
  };
  return all;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Seed of trace (or tenant experiment) `k` of a run with root seed `seed`.
std::uint64_t scenario_seed(std::uint64_t seed, std::size_t k) {
  return splitmix64(splitmix64(seed) + k);
}

workload::GeneratorConfig archetype_config(const std::string& name, double days) {
  for (const workload::GeneratorConfig& c : workload::paper_archetypes(days))
    if (c.name == name) return c;
  throw std::runtime_error("unknown archetype " + name);
}

struct Context {
  engine::EngineConfig config = engine::paper_engine_config();
  /// The paper's engine with a fixed-count selection budget and no cap:
  /// every round scores the whole portfolio, so the work is the same on
  /// every host. The memo, wave and checkpoint settings keep their defaults,
  /// so deleting them needs no change here.
  core::PortfolioSchedulerConfig pconfig = [this] {
    core::PortfolioSchedulerConfig pc = engine::paper_portfolio_config(config);
    pc.selector.budget_mode = core::BudgetMode::kFixedCount;
    pc.selector.fixed_count = 0;
    return pc;
  }();
  policy::Portfolio portfolio = policy::Portfolio::paper_portfolio();
};

std::vector<workload::Trace> make_traces(const Workload& w, std::uint64_t seed) {
  const workload::TraceGenerator generator(archetype_config(w.archetype, w.days));
  std::vector<workload::Trace> traces;
  traces.reserve(w.traces);
  for (std::size_t k = 0; k < w.traces; ++k)
    traces.push_back(generator.generate(scenario_seed(seed, k)).cleaned(64));
  return traces;
}

/// The tenant traces of multi-tenant experiment `k`, cleaned to the quota
/// floor so the arbiter can always make progress.
std::vector<workload::Trace> make_tenant_traces(const Workload& w, const Context& ctx,
                                                std::uint64_t seed, std::size_t k) {
  const workload::TraceGenerator generator(archetype_config(w.archetype, w.tenant_days));
  const auto floor =
      static_cast<int>(std::min<std::size_t>(ctx.config.provider.max_vms / kTenants, 64));
  std::vector<workload::Trace> traces;
  for (std::size_t i = 0; i < kTenants; ++i)
    traces.push_back(generator
                         .generate(engine::tenant_workload_seed(scenario_seed(seed, k), i))
                         .cleaned(floor));
  return traces;
}

// --- output digest -----------------------------------------------------------

/// FNV-1a over the bit patterns of the simulated outputs.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add_run(const engine::RunResult& run) {
    const metrics::RunMetrics& m = run.metrics;
    add(static_cast<std::uint64_t>(m.jobs));
    add(m.avg_bounded_slowdown);
    add(m.max_bounded_slowdown);
    add(m.avg_wait);
    add(m.rj_proc_seconds);
    add(m.rv_charged_seconds);
    add(m.makespan);
    add(static_cast<std::uint64_t>(run.total_leases));
  }
  void add_portfolio(std::uint64_t rounds, std::uint64_t candidates,
                     const std::vector<std::size_t>& chosen_counts) {
    add(rounds);
    add(candidates);
    for (const std::size_t c : chosen_counts) add(static_cast<std::uint64_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// Selection rounds and scored candidates of a portfolio run.
struct PortfolioCounts {
  std::uint64_t rounds = 0;
  std::uint64_t candidates = 0;
};

PortfolioCounts portfolio_counts(const engine::PortfolioStats& stats) {
  PortfolioCounts c;
  c.rounds = stats.invocations;
  c.candidates = static_cast<std::uint64_t>(std::llround(
      stats.mean_simulated_per_invocation * static_cast<double>(c.rounds)));
  return c;
}

/// Folds one scenario result into `d`; false when a trace job is unfinished
/// or (portfolio) a round did not score the whole portfolio — a quarantined
/// candidate or a degraded round.
bool fold_scenario(Digest& d, const engine::ScenarioResult& r, const workload::Trace& trace,
                   std::size_t portfolio_size) {
  d.add_run(r.run);
  if (!r.is_portfolio) return r.run.metrics.jobs == trace.size();
  const PortfolioCounts c = portfolio_counts(r.portfolio);
  d.add_portfolio(c.rounds, c.candidates, r.portfolio.chosen_counts);
  return r.run.metrics.jobs == trace.size() && c.candidates == c.rounds * portfolio_size;
}

// --- decorators --------------------------------------------------------------

/// A selection round captured for replay (traced run only).
struct CapturedRound {
  std::vector<policy::QueuedJob> queue;
  cloud::CloudProfile profile;
};

/// The traced run replays every kCaptureStride-th selection round.
constexpr std::size_t kCaptureStride = 8;

/// What the traced run records at the scheduler boundary.
struct SchedulerProbe {
  const obs::Recorder* recorder = nullptr;  ///< detects selection rounds
  bool capture = false;
  std::size_t rounds_seen = 0;
  std::int64_t decide_ns = 0;
  std::vector<std::size_t> queue_depths;    ///< at each selection round
  std::vector<CapturedRound> captured;
};

/// Times every policy_for_tick call with two clock reads. Calls with a
/// non-empty queue are the scheduling decisions; their latencies are kept
/// when a vector is given.
class TimedScheduler final : public core::Scheduler {
 public:
  TimedScheduler(core::Scheduler& inner, std::vector<std::int64_t>* decision_ns,
                 SchedulerProbe* probe)
      : inner_(inner), decision_ns_(decision_ns), probe_(probe) {}

  [[nodiscard]] policy::PolicyTriple policy_for_tick(
      std::uint64_t tick, std::span<const policy::QueuedJob> queue,
      const cloud::CloudProfile& profile) override {
    const Clock::time_point t0 = Clock::now();
    const policy::PolicyTriple chosen = inner_.policy_for_tick(tick, queue, profile);
    const std::int64_t ns = ns_between(t0, Clock::now());
    if (decision_ns_ != nullptr && !queue.empty()) decision_ns_->push_back(ns);
    if (probe_ != nullptr) observe(queue, profile, ns);
    return chosen;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void set_recorder(obs::Recorder* recorder) override { inner_.set_recorder(recorder); }

 private:
  void observe(std::span<const policy::QueuedJob> queue,
               const cloud::CloudProfile& profile, std::int64_t ns) {
    probe_->decide_ns += ns;
    const std::size_t rounds = probe_->recorder->rounds().size();
    if (rounds == probe_->rounds_seen) return;
    probe_->rounds_seen = rounds;
    probe_->queue_depths.push_back(queue.size());
    if (probe_->capture && (rounds - 1) % kCaptureStride == 0)
      probe_->captured.push_back({{queue.begin(), queue.end()}, profile});
  }

  core::Scheduler& inner_;
  std::vector<std::int64_t>* decision_ns_;  ///< null: latencies not kept
  SchedulerProbe* probe_;
};

/// Counts and times predict + observe_completion (traced run only).
class TimedPredictor final : public predict::RuntimePredictor {
 public:
  explicit TimedPredictor(predict::RuntimePredictor& inner) : inner_(inner) {}

  [[nodiscard]] double predict(const workload::Job& job) const override {
    const Clock::time_point t0 = Clock::now();
    const double runtime = inner_.predict(job);
    ns_ += ns_between(t0, Clock::now());
    ++calls_;
    return runtime;
  }
  void observe_completion(const workload::Job& job) override {
    const Clock::time_point t0 = Clock::now();
    inner_.observe_completion(job);
    ns_ += ns_between(t0, Clock::now());
    ++calls_;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] std::int64_t ns() const noexcept { return ns_; }

 private:
  predict::RuntimePredictor& inner_;
  mutable std::uint64_t calls_ = 0;
  mutable std::int64_t ns_ = 0;
};

// --- one repetition ----------------------------------------------------------

/// Per-layer figures of one traced repetition.
struct Layers {
  double generate_s = 0.0;
  double run_s = 0.0;
  double decide_s = 0.0;
  double predict_s = 0.0;
  std::uint64_t predict_calls = 0;
  std::uint64_t jobs = 0;
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  std::uint64_t leases = 0;
  double charged_hours = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t candidates = 0;
  std::uint64_t random_ties = 0;
  std::uint64_t tie_set_sum = 0;
  double memo_hits = 0.0;
  std::vector<std::size_t> queue_depths;
  std::vector<CapturedRound> captured;

  void add_run(const engine::ScenarioResult& r) {
    events += r.run.events;
    ticks += r.run.ticks;
    leases += r.run.total_leases;
    charged_hours += r.run.metrics.charged_hours();
    if (r.is_portfolio) {
      const PortfolioCounts c = portfolio_counts(r.portfolio);
      rounds += c.rounds;
      candidates += c.candidates;
    }
  }
};

/// What a repetition records besides its run times.
struct RepMode {
  bool traced = false;     ///< recorder + predictor decorator + probe
  bool capture = false;    ///< keep selection rounds for replay
  bool decisions = false;  ///< keep per-decision latencies
};

struct Rep {
  double setup_s = 0.0;
  std::vector<double> kernel_s;    ///< calibration kernel time before each scenario
  std::vector<double> scenario_s;  ///< run time of each scenario, in order
  double decision_p50_ms = 0.0;
  double decision_p99_ms = 0.0;
  std::size_t decisions = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;        ///< every scenario of the repetition
  std::string first_digest;  ///< the scenarios of the first trace
  Layers layers;             ///< filled by traced repetitions
};

/// Peak resident memory of this process image, from VmHWM. getrusage's
/// ru_maxrss is not used: Linux carries it across execve, so it can report
/// the launching process's peak.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(status);
  return kib / 1024.0;
}

/// Factor that turns this repetition's host seconds into reference seconds.
double host_scale(const Rep& rep) { return kReferenceKernelS / median(rep.kernel_s); }

/// One single-cluster engine run through the benchmark's decorators.
engine::ScenarioResult run_engine(const Workload& w, const Context& ctx,
                                  const workload::Trace& trace, std::size_t policy,
                                  const RepMode& mode, Rep& rep,
                                  std::vector<std::int64_t>* decision_ns) {
  const bool traced = mode.traced;
  const Clock::time_point c0 = Clock::now();
  obs::Recorder recorder(
      obs::ObsConfig{traced ? obs::ObsLevel::kCounters : obs::ObsLevel::kOff});
  SchedulerProbe probe;
  probe.recorder = &recorder;
  probe.capture = mode.capture;
  std::unique_ptr<core::PortfolioScheduler> portfolio;
  std::unique_ptr<core::SinglePolicyScheduler> single;
  core::Scheduler* inner = nullptr;
  if (w.kind == Kind::kPortfolio) {
    portfolio = std::make_unique<core::PortfolioScheduler>(ctx.portfolio, ctx.pconfig);
    inner = portfolio.get();
  } else {
    single = std::make_unique<core::SinglePolicyScheduler>(ctx.portfolio.policies()[policy]);
    inner = single.get();
  }
  TimedScheduler scheduler(*inner, decision_ns, traced ? &probe : nullptr);
  const std::unique_ptr<predict::RuntimePredictor> base = engine::make_predictor(w.predictor);
  TimedPredictor timed(*base);
  predict::RuntimePredictor& predictor =
      traced ? static_cast<predict::RuntimePredictor&>(timed) : *base;
  engine::ClusterSimulation sim(ctx.config, trace, scheduler, predictor,
                                traced ? &recorder : nullptr);
  const Clock::time_point r0 = Clock::now();
  engine::ScenarioResult result;
  result.run = sim.run();
  const Clock::time_point r1 = Clock::now();
  rep.setup_s += seconds_between(c0, r0);
  rep.scenario_s.push_back(seconds_between(r0, r1));
  if (portfolio) {
    const core::ReflectionStore& reflection = portfolio->reflection();
    result.is_portfolio = true;
    result.portfolio.invocations = reflection.invocations();
    result.portfolio.mean_simulated_per_invocation =
        reflection.mean_simulated_per_invocation();
    result.portfolio.chosen_counts = reflection.chosen_counts();
  }
  if (traced) {
    Layers& l = rep.layers;
    l.run_s += seconds_between(r0, r1);
    l.decide_s += static_cast<double>(probe.decide_ns) * 1e-9;
    l.predict_s += static_cast<double>(timed.ns()) * 1e-9;
    l.predict_calls += timed.calls();
    l.add_run(result);
    for (const obs::SelectionRoundRecord& r : recorder.rounds()) {
      l.tie_set_sum += r.tie_set;
      if (std::strcmp(r.tie_path, "random") == 0) ++l.random_ties;
    }
    const auto memo = recorder.counters().find("selector.memo_hits");
    if (memo != recorder.counters().end()) l.memo_hits += memo->second;
    l.queue_depths.insert(l.queue_depths.end(), probe.queue_depths.begin(),
                          probe.queue_depths.end());
    for (CapturedRound& c : probe.captured) l.captured.push_back(std::move(c));
  }
  return result;
}

/// Engine runs per trace.
std::size_t runs_per_trace(const Workload& w) {
  return w.kind == Kind::kConstituents ? kPoliciesPerTrace : 1;
}

/// Portfolio index of run `s` on trace `k` (kConstituents).
std::size_t policy_index(const Context& ctx, std::size_t k, std::size_t s) {
  return (k * kPoliciesPerTrace + s) % ctx.portfolio.size();
}

/// Runs every scenario of the workload once.
Rep run_rep(const Workload& w, const Context& ctx, std::uint64_t seed,
            const RepMode& mode) {
  Rep rep;
  const Clock::time_point g0 = Clock::now();
  const std::vector<workload::Trace> traces = make_traces(w, seed);
  rep.setup_s = seconds_between(g0, Clock::now());
  rep.layers.generate_s = rep.setup_s;

  std::vector<std::int64_t> decision_ns;
  Digest all;
  Digest first;
  const std::size_t runs = runs_per_trace(w);
  for (std::size_t k = 0; k < traces.size(); ++k) {
    rep.layers.jobs += traces[k].size();
    for (std::size_t s = 0; s < runs; ++s) {
      ++rep.attempted;
      rep.kernel_s.push_back(calibration_sample());
      try {
        const engine::ScenarioResult r =
            run_engine(w, ctx, traces[k], policy_index(ctx, k, s), mode, rep,
                       mode.decisions ? &decision_ns : nullptr);
        Digest one;
        if (!fold_scenario(one, r, traces[k], ctx.portfolio.size())) ++rep.failed;
        all.add(one.value());
        if (k == 0) first.add(one.value());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "scenario %zu/%zu failed: %s\n", k, s, e.what());
        ++rep.failed;
      }
    }
  }
  std::sort(decision_ns.begin(), decision_ns.end());
  rep.decisions = decision_ns.size();
  rep.decision_p50_ms = static_cast<double>(percentile(decision_ns, 0.50)) * 1e-6;
  rep.decision_p99_ms = static_cast<double>(percentile(decision_ns, 0.99)) * 1e-6;
  rep.digest = all.hex();
  rep.first_digest = first.hex();
  return rep;
}

/// Digest of the first trace's scenarios through the library's own entry
/// points (engine::run_portfolio / run_single_policy, no decorators).
std::string reference_first_digest(const Workload& w, const Context& ctx,
                                   std::uint64_t seed) {
  Workload one = w;
  one.traces = 1;
  const workload::Trace trace = make_traces(one, seed).front();
  Digest first;
  const auto fold = [&](const engine::ScenarioResult& r) {
    Digest d;
    fold_scenario(d, r, trace, ctx.portfolio.size());
    first.add(d.value());
  };
  if (w.kind == Kind::kPortfolio) {
    fold(engine::run_portfolio(ctx.config, trace, ctx.portfolio, ctx.pconfig, w.predictor));
  } else {
    for (std::size_t s = 0; s < runs_per_trace(w); ++s)
      fold(engine::run_single_policy(ctx.config, trace,
                                     ctx.portfolio.policies()[policy_index(ctx, 0, s)],
                                     w.predictor));
  }
  return first.hex();
}

/// The set-up part of a repetition alone: generate the traces and construct
/// every scenario's scheduler, predictor and engine.
double setup_only(const Workload& w, const Context& ctx, std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  const std::vector<workload::Trace> traces = make_traces(w, seed);
  for (std::size_t k = 0; k < traces.size(); ++k) {
    for (std::size_t s = 0; s < runs_per_trace(w); ++s) {
      std::unique_ptr<core::Scheduler> scheduler;
      if (w.kind == Kind::kPortfolio)
        scheduler = std::make_unique<core::PortfolioScheduler>(ctx.portfolio, ctx.pconfig);
      else
        scheduler = std::make_unique<core::SinglePolicyScheduler>(
            ctx.portfolio.policies()[policy_index(ctx, k, s)]);
      const auto predictor = engine::make_predictor(w.predictor);
      const engine::ClusterSimulation sim(ctx.config, traces[k], *scheduler, *predictor);
    }
  }
  return seconds_between(t0, Clock::now());
}

// --- multi-tenant service ----------------------------------------------------

/// engine/tenant figures from the traced run's multi-tenant experiments.
struct TenantLayers {
  double run_s = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t epochs = 0;
  std::uint64_t rounds = 0;
  std::uint64_t candidates = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs the workload's multi-tenant experiments one after another: kTenants
/// tenants over the shared 256-VM cap, stepped in epochs on a thread pool of
/// at most nproc threads. Each experiment's run() is timed from the outside.
TenantLayers run_tenant_experiments(const Workload& w, const Context& ctx,
                                    std::uint64_t seed) {
  TenantLayers out;
  util::ThreadPool pool(
      std::min<std::size_t>(kTenants, std::max(1u, std::thread::hardware_concurrency())));
  for (std::size_t k = 0; k < w.tenant_experiments; ++k) {
    ++out.attempted;
    try {
      const std::vector<workload::Trace> traces = make_tenant_traces(w, ctx, seed, k);
      engine::MultiTenantConfig mt;
      mt.engine = ctx.config;
      mt.portfolio = &ctx.portfolio;
      mt.scheduler = ctx.pconfig;
      mt.predictor = w.predictor;
      for (const workload::Trace& trace : traces) {
        engine::TenantConfig t;
        t.trace = &trace;
        mt.tenants.push_back(t);
      }
      engine::MultiTenantExperiment experiment(mt, &pool);
      const Clock::time_point r0 = Clock::now();
      const engine::MultiTenantResult r = experiment.run();
      out.run_s += seconds_between(r0, Clock::now());
      out.epochs += r.epochs;
      bool ok = r.tenants.size() == traces.size();
      for (std::size_t i = 0; ok && i < traces.size(); ++i) {
        Digest unused;
        ok = fold_scenario(unused, r.tenants[i].scenario, traces[i], ctx.portfolio.size());
        const PortfolioCounts c = portfolio_counts(r.tenants[i].scenario.portfolio);
        out.rounds += c.rounds;
        out.candidates += c.candidates;
        out.jobs += traces[i].size();
      }
      if (!ok) ++out.failed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tenant experiment %zu failed: %s\n", k, e.what());
      ++out.failed;
    }
  }
  return out;
}

/// Seconds of the workload's scenarios: each scenario's median run time over
/// the repetitions, summed. The median per scenario filters the short bursts
/// of host noise that a whole-repetition median keeps. `scaled` converts each
/// repetition to reference seconds first.
double wall_seconds(const std::vector<Rep>& reps, bool scaled) {
  double total = 0.0;
  for (std::size_t i = 0; i < reps.front().scenario_s.size(); ++i) {
    std::vector<double> runs;
    for (const Rep& r : reps)
      if (i < r.scenario_s.size())
        runs.push_back(r.scenario_s[i] * (scaled ? host_scale(r) : 1.0));
    total += median(runs);
  }
  return total;
}

// --- replay of captured rounds -----------------------------------------------

struct Replay {
  std::uint64_t rounds = 0;
  std::uint64_t candidates = 0;
  std::uint64_t distinct = 0;
  std::uint64_t decisions = 0;
  double seconds = 0.0;
};

/// Re-simulates every portfolio policy on each captured round and counts the
/// bit-identical outcomes.
Replay replay(const std::vector<CapturedRound>& captured, const Context& ctx) {
  const core::OnlineSimulator simulator(ctx.pconfig.online_sim);
  Replay out;
  for (const CapturedRound& round : captured) {
    std::set<std::array<std::uint64_t, 6>> outcomes;
    for (const policy::PolicyTriple& p : ctx.portfolio.policies()) {
      const Clock::time_point t0 = Clock::now();
      const core::SimOutcome o = simulator.simulate(round.queue, round.profile, p);
      out.seconds += seconds_between(t0, Clock::now());
      const std::array<double, 5> fields = {o.utility, o.avg_bounded_slowdown,
                                            o.rj_proc_seconds, o.rv_charged_seconds,
                                            o.sim_makespan};
      std::array<std::uint64_t, 6> key{};
      for (std::size_t i = 0; i < fields.size(); ++i)
        std::memcpy(&key[i], &fields[i], sizeof key[i]);
      key[5] = o.decisions;
      outcomes.insert(key);
      out.decisions += o.decisions;
      ++out.candidates;
    }
    out.distinct += outcomes.size();
    ++out.rounds;
  }
  return out;
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}


/// Per-layer metrics of a traced run; zero where the workload bypasses the
/// layer (see perfbench/manifest.json for which metric applies where).
std::vector<Metric> layer_metrics(const Layers& l, const Replay& rp, const TenantLayers& t,
                                  const std::vector<Rep>& plain, double overhead) {
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const Rep& r : plain) {
    p50s.push_back(r.decision_p50_ms);
    p99s.push_back(r.decision_p99_ms);
  }
  std::vector<std::size_t> depths = l.queue_depths;
  std::sort(depths.begin(), depths.end());
  const double self_s = l.run_s - l.decide_s - l.predict_s;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"workload.generate_s", l.generate_s, "s"},
      {"workload.jobs", count(l.jobs), "count"},
      {"predict.calls", count(l.predict_calls), "count"},
      {"predict.s", l.predict_s, "s"},
      {"engine.run_s", l.run_s, "s"},
      {"engine.self_s", self_s, "s"},
      {"engine.events", count(l.events), "count"},
      {"engine.ticks", count(l.ticks), "count"},
      {"engine.ns_per_event", ratio(self_s * 1e9, count(l.events)), "ns"},
      {"engine.tenant.run_s", t.run_s, "s"},
      {"engine.tenant.jobs", count(t.jobs), "count"},
      {"engine.tenant.epochs", count(t.epochs), "count"},
      {"engine.tenant.us_per_epoch", ratio(t.run_s * 1e6, count(t.epochs)), "us"},
      {"engine.tenant.rounds", count(t.rounds), "count"},
      {"engine.tenant.candidates", count(t.candidates), "count"},
      {"engine.tenant.us_per_candidate", ratio(t.run_s * 1e6, count(t.candidates)), "us"},
      {"cloud.leases", count(l.leases), "count"},
      {"cloud.charged_hours", l.charged_hours, "h"},
      {"core.decide_s", l.decide_s, "s"},
      {"core.decide_share", ratio(l.decide_s, l.run_s), "ratio"},
      {"core.decision_ms_p50", median(p50s), "ms"},
      {"core.decision_ms_p99", median(p99s), "ms"},
      {"core.decision_samples", count(plain.front().decisions), "count"},
      {"core.rounds", count(l.rounds), "count"},
      {"core.candidates", count(l.candidates), "count"},
      {"core.us_per_candidate", ratio(l.decide_s * 1e6, count(l.candidates)), "us"},
      {"core.queue_depth_p50", count(percentile(depths, 0.50)), "count"},
      {"core.queue_depth_p99", count(percentile(depths, 0.99)), "count"},
      {"core.queue_depth_max", depths.empty() ? 0.0 : count(depths.back()), "count"},
      {"core.random_tie_ratio", ratio(count(l.random_ties), count(l.rounds)), "ratio"},
      {"core.tie_set_mean", ratio(count(l.tie_set_sum), count(l.rounds)), "count"},
      {"core.replayed_rounds", count(rp.rounds), "count"},
      {"core.distinct_ratio", ratio(count(rp.distinct), count(rp.candidates)), "ratio"},
      {"core.inner_decisions", count(rp.decisions), "count"},
      {"core.ns_per_decision", ratio(rp.seconds * 1e9, count(rp.decisions)), "ns"},
      {"core.memo_hits", l.memo_hits, "count"},
      {"obs.trace_overhead_ratio", overhead, "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser parser(argc, argv);
  const std::string name = parser.get("workload", "");
  const std::string trace_flag = parser.get("trace", "0");
  const double seconds = parser.get_double("seconds", 10.0);
  if (name.empty() || !parser.has("seed") || seconds <= 0.0 ||
      (trace_flag != "0" && trace_flag != "1")) {
    std::fputs("usage: psched_perfbench --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--expect-digest HEX] [--commit ID]\n",
               stderr);
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed", 0));
  const bool trace = trace_flag == "1";
  const std::string expect_digest = parser.get("expect-digest", "");
  const std::string commit = parser.get("commit", "unknown");
  const Workload* found = nullptr;
  for (const Workload& w : workloads())
    if (name == w.name) found = &w;
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  const Workload& w = *found;
  const Context ctx;

  // Repetitions until the budget is spent (at least one). With --trace 1,
  // untraced and traced repetitions alternate, in alternating order, so both
  // see the same host conditions.
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  const Clock::time_point start = Clock::now();
  for (double round_s = 0.0;
       plain.empty() || seconds_between(start, Clock::now()) + round_s <= seconds;) {
    const Clock::time_point r0 = Clock::now();
    const bool traced_first = trace && plain.size() % 2 == 1;
    const RepMode traced_mode{true, traced.empty(), false};
    if (traced_first) traced.push_back(run_rep(w, ctx, seed, traced_mode));
    plain.push_back(run_rep(w, ctx, seed, RepMode{false, false, trace}));
    if (trace && !traced_first)
      traced.push_back(run_rep(w, ctx, seed, traced_mode));
    round_s = seconds_between(r0, Clock::now());
  }
  // Read before the output checks below run anything more.
  const double peak_mb = peak_rss_mb();

  // Set-up is cheap next to a repetition: time extra ones so its median
  // rests on at least seven samples.
  std::vector<double> setups;
  std::vector<double> kernels;
  for (const Rep& r : plain) {
    setups.push_back(r.setup_s * host_scale(r));
    kernels.insert(kernels.end(), r.kernel_s.begin(), r.kernel_s.end());
  }
  while (setups.size() < 7) {
    const double kernel = calibration_sample();
    kernels.push_back(kernel);
    setups.push_back(setup_only(w, ctx, seed) * kReferenceKernelS / kernel);
  }
  const double run_scale = kReferenceKernelS / median(kernels);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto check = [&](bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what);
    }
  };
  for (const std::vector<Rep>* reps : {&plain, &traced}) {
    for (const Rep& r : *reps) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  const std::string digest = plain.front().digest;
  for (const Rep& r : plain) check(r.digest == digest, "repetitions disagree");
  for (const Rep& r : traced) check(r.digest == digest, "traced digest differs from untraced");
  check(reference_first_digest(w, ctx, seed) == plain.front().first_digest,
        "decorated wiring differs from engine::run_portfolio/run_single_policy");
  if (!expect_digest.empty())
    check(digest == expect_digest, "digest differs from the recorded one");

  std::printf("workload %s seed %llu: %zu repetitions of %zu traces x %.3g days\n",
              w.name, static_cast<unsigned long long>(seed), plain.size(), w.traces,
              w.days);
  std::printf("digest %s\n", digest.c_str());

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"wall_s", wall_seconds(plain, true), "s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_mb, "MB"},
    };
    std::printf("scenarios per repetition %zu, setup samples %zu\n",
                plain.front().scenario_s.size(), setups.size());
    std::printf("host seconds (unscaled): wall %.6g\n", wall_seconds(plain, false));
  } else {
    const Replay rp = replay(traced.front().layers.captured, ctx);
    // The traced repetition with the median engine time represents the run.
    std::sort(traced.begin(), traced.end(), [](const Rep& a, const Rep& b) {
      return a.layers.run_s < b.layers.run_s;
    });
    const TenantLayers tenants = run_tenant_experiments(w, ctx, seed);
    attempted += tenants.attempted;
    failed += tenants.failed;
    metrics = layer_metrics(traced[traced.size() / 2].layers, rp, tenants, plain,
                            wall_seconds(traced, true) / wall_seconds(plain, true) - 1.0);
  }

  for (const Metric& m : metrics)
    std::printf("metric %-32s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("failed_ratio %.6g (%llu of %llu operations)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf(
      "provenance {\"nproc\": %u, \"build_type\": %s, \"compiler\": %s, \"commit\": %s, "
      "\"seed\": %llu, \"workload\": %s, \"archetype\": %s, \"horizon_days\": %s, "
      "\"traces\": %zu, \"repetitions\": %zu, \"host_scale\": %s}\n",
      std::thread::hardware_concurrency(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(), json_string(commit).c_str(),
      static_cast<unsigned long long>(seed), json_string(w.name).c_str(),
      json_string(w.archetype).c_str(), number(w.days).c_str(), w.traces, plain.size(),
      number(run_scale).c_str());

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
