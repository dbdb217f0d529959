#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include <sys/resource.h>

#include "common.h"
#include "smn/query_serving.h"

namespace wanday {

namespace {

/// Least latency charged to a failed query: the deadline of the default
/// query budget, which both monolith and federated queries are served
/// under. An over-deadline query already took longer; a shed or invalid
/// one is charged the deadline.
const double kFailedQueryFloorMs =
    std::chrono::duration<double, std::milli>(smn::smn::QueryBudgetConfig{}.deadline).count();

}  // namespace

void QueryStats::merge(const QueryStats& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
  service_ms.insert(service_ms.end(), other.service_ms.begin(), other.service_ms.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  attempted += other.attempted;
  shed += other.shed;
  deadline_exceeded += other.deadline_exceeded;
  invalid += other.invalid;
  rows += other.rows;
}

QueryFleet::QueryFleet(std::size_t threads, double rate_per_s, std::uint64_t seed,
                       Tracer& tracer, Send send)
    : threads_(threads),
      rate_per_s_(rate_per_s),
      tracer_(tracer),
      send_(std::move(send)),
      start_(Clock::now()),
      per_thread_(threads) {
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this, t, seed] { run(t, seed * 1000003u + t); });
  }
}

QueryFleet::~QueryFleet() { stop(); }

QueryStats QueryFleet::stop() {
  stop_.store(true, std::memory_order_release);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  QueryStats merged;
  for (const QueryStats& stats : per_thread_) merged.merge(stats);
  return merged;
}

void QueryFleet::run(std::size_t thread, std::uint64_t seed) {
  smn::util::Rng rng(seed);
  QueryStats& stats = per_thread_[thread];
  const double period_s = static_cast<double>(threads_) / rate_per_s_;
  const double offset_s = static_cast<double>(thread) / rate_per_s_;
  for (std::uint64_t k = 0;; ++k) {
    const auto due = start_ + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(offset_s + k * period_s));
    // Sleep in short slices so stop() never waits a whole period, then
    // spin the last stretch so timer wake-up lag is not charged to the
    // system under test.
    const auto wake = due - std::chrono::milliseconds(2);
    while (Clock::now() < wake) {
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_until(std::min(wake, Clock::now() + std::chrono::milliseconds(20)));
    }
    while (Clock::now() < due) std::this_thread::yield();
    if (stop_.load(std::memory_order_acquire)) return;
    const auto sent = Clock::now();
    QueryOutcome outcome;
    {
      const Scope span(tracer_, "smn.query", Layer::kSmn);
      outcome = send_(thread, rng);
    }
    const auto done = Clock::now();
    ++stats.attempted;
    stats.late_ms.push_back(ms_between(due, sent));
    const bool failed = !outcome.admitted || outcome.deadline_exceeded || !outcome.valid;
    if (!outcome.admitted) ++stats.shed;
    if (outcome.deadline_exceeded) ++stats.deadline_exceeded;
    if (!outcome.valid) ++stats.invalid;
    if (outcome.admitted) {
      stats.service_ms.push_back(ms_between(sent, done));
      stats.rows += outcome.rows;
    }
    const double latency_ms = ms_between(due, done);
    stats.latency_ms.push_back(failed ? std::max(latency_ms, kFailedQueryFloorMs) : latency_ms);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool logs_identical(const smn::telemetry::BandwidthLog& a, const smn::telemetry::BandwidthLog& b) {
  return a.record_count() == b.record_count() &&
         std::equal(a.timestamps().begin(), a.timestamps().end(), b.timestamps().begin()) &&
         std::equal(a.pair_ids().begin(), a.pair_ids().end(), b.pair_ids().begin()) &&
         std::equal(a.bandwidths().begin(), a.bandwidths().end(), b.bandwidths().begin());
}

bool summaries_identical(const std::vector<smn::telemetry::WindowSummary>& a,
                         const std::vector<smn::telemetry::WindowSummary>& b,
                         std::size_t* where) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].window_start != b[i].window_start || a[i].window_length != b[i].window_length ||
        a[i].pair != b[i].pair || a[i].sample_count != b[i].sample_count ||
        a[i].mean != b[i].mean || a[i].p50 != b[i].p50 || a[i].p95 != b[i].p95 ||
        a[i].min != b[i].min || a[i].max != b[i].max) {
      if (where != nullptr) *where = i;
      return false;
    }
  }
  if (a.size() != b.size()) {
    if (where != nullptr) *where = n;
    return false;
  }
  return true;
}

bool range_well_formed(const smn::telemetry::BandwidthLog& log, smn::util::SimTime begin,
                       smn::util::SimTime end) {
  const auto timestamps = log.timestamps();
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    if (timestamps[i] < begin || timestamps[i] >= end) return false;
    if (i > 0 && timestamps[i - 1] > timestamps[i]) return false;
  }
  return true;
}

double shard_skew(const smn::telemetry::LogStoreStats& stats) {
  double max = 0.0;
  double sum = 0.0;
  for (const std::size_t records : stats.shard_records) {
    max = std::max(max, static_cast<double>(records));
    sum += static_cast<double>(records);
  }
  return sum > 0.0 ? max / (sum / static_cast<double>(stats.shard_records.size())) : 0.0;
}

void write_span_file(const Tracer& tracer, const Options& options) {
  const auto path = std::filesystem::path(options.out_dir) / ("spans-" + options.workload + ".json");
  if (!tracer.write_json(path.string())) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace wanday
