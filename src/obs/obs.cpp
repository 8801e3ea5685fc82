#include "obs/obs.hpp"

#include <chrono>

namespace psched::obs {

std::string to_string(ObsLevel level) {
  switch (level) {
    case ObsLevel::kOff: return "off";
    case ObsLevel::kCounters: return "counters";
    case ObsLevel::kTrace: return "trace";
  }
  return "off";
}

ObsLevel obs_level_from_string(const std::string& name, bool& ok) {
  ok = true;
  if (name == "off") return ObsLevel::kOff;
  if (name == "counters") return ObsLevel::kCounters;
  if (name == "trace") return ObsLevel::kTrace;
  ok = false;
  return ObsLevel::kOff;
}

namespace {

std::int64_t steady_ns() {
  // The observability layer's single wall-clock site (psched-lint D1
  // allowlist, DESIGN.md §9): timestamps here are reporting-only and never
  // feed a scheduling decision.
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

}  // namespace

Recorder::Recorder(ObsConfig config) : config_(config) {
  if (counters_on()) epoch_ns_ = steady_ns();
}

std::int64_t Recorder::now_us() const {
  if (!counters_on()) return 0;
  return (steady_ns() - epoch_ns_) / 1000;
}

void Recorder::counter_add(const char* name, double delta) {
  if (!counters_on()) return;
  counters_[name] += delta;
}

void Recorder::gauge_set(const char* name, double value) {
  if (!counters_on()) return;
  gauges_[name] = value;
}

void Recorder::phase_add(const char* name, double us) {
  if (!counters_on()) return;
  PhaseStat& stat = phases_[name];
  ++stat.calls;
  stat.total_us += us;
}

void Recorder::append_event(TraceEvent event) {
  if (!tracing_on()) return;
  util::MutexLock lock(events_mu_);
  events_.push_back(std::move(event));
}

void Recorder::instant(const char* name, std::uint32_t tid, std::string args_json) {
  if (!tracing_on()) return;
  append_event(TraceEvent{name, 'i', now_us(), tid, std::move(args_json)});
}

void Recorder::record_round(const SelectionRoundRecord& record) {
  if (!counters_on()) return;
  rounds_.push_back(record);
}

std::vector<TraceEvent> Recorder::events_snapshot() const {
  util::MutexLock lock(events_mu_);
  return events_;
}

Recorder::Scope::Scope(Recorder* recorder, const char* name, std::uint32_t tid)
    : rec_(recorder != nullptr && recorder->counters_on() ? recorder : nullptr),
      name_(name),
      tid_(tid) {
  if (rec_ == nullptr) return;
  start_us_ = rec_->now_us();
  if (rec_->tracing_on())
    rec_->append_event(TraceEvent{name_, 'B', start_us_, tid_, {}});
}

Recorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  const std::int64_t end_us = rec_->now_us();
  rec_->phase_add(name_, static_cast<double>(end_us - start_us_));
  if (rec_->tracing_on())
    rec_->append_event(TraceEvent{name_, 'E', end_us, tid_, {}});
}

}  // namespace psched::obs
