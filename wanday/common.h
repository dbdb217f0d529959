// Shared pieces of the WAN-day pipeline benchmark: command-line options,
// the per-replay result record, the open-loop query fleet, the correctness
// check log, and small statistics helpers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/bandwidth_log.h"
#include "telemetry/log_store.h"
#include "telemetry/time_coarsening.h"
#include "trace.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace wanday {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" (the benchmark) or "tiny" (the self-tests: same stages, small
  /// WAN and trace).
  std::string size = "full";
  /// Deliberately wrong answer planted for the self-tests: "" (none),
  /// "drop_record" (one record missing from the ingest oracle) or
  /// "mutate_summary" (one summary altered inside a region export).
  std::string plant;
  /// Directory for the result record and the span file.
  std::string out_dir = ".";
  std::string commit = "unknown";
  bool tiny() const { return size == "tiny"; }
};

/// Records every check made after timing; a failed check fails the run.
struct CheckLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// Samples of the open-loop query fleet.
struct QueryStats {
  /// Due time to completion. A failed query (shed, over its deadline or
  /// invalid) is charged at least the budget's deadline, so it lies beyond
  /// the latency limit while every sample stays a finite number.
  std::vector<double> latency_ms;
  std::vector<double> service_ms;  ///< actual send to completion, admitted only
  std::vector<double> late_ms;     ///< actual send minus due time
  std::uint64_t attempted = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t invalid = 0;  ///< unsorted, out of range, or shrinking results
  std::uint64_t rows = 0;

  void merge(const QueryStats& other);
};

/// What one served query returned, as judged by the workload's sender.
struct QueryOutcome {
  bool admitted = false;
  bool deadline_exceeded = false;
  std::size_t rows = 0;
  bool valid = true;
};

/// Open-loop query generator: `threads` threads together send `rate_per_s`
/// queries per second on a fixed schedule, whether or not earlier queries
/// have returned. Each query is timed from the moment it was due, so a
/// stall charges its wait to every query scheduled behind it.
class QueryFleet {
 public:
  /// `send(thread, rng)` sends one query and judges its result; it runs on
  /// the fleet's threads. Threads start immediately.
  using Send = std::function<QueryOutcome(std::size_t thread, smn::util::Rng& rng)>;
  QueryFleet(std::size_t threads, double rate_per_s, std::uint64_t seed, Tracer& tracer,
             Send send);
  ~QueryFleet();
  QueryFleet(const QueryFleet&) = delete;
  QueryFleet& operator=(const QueryFleet&) = delete;

  /// Stops sending, joins every thread and returns the merged samples.
  QueryStats stop();

 private:
  void run(std::size_t thread, std::uint64_t seed);

  const std::size_t threads_;
  const double rate_per_s_;
  Tracer& tracer_;
  Send send_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> stop_{false};
  std::vector<QueryStats> per_thread_;
  std::vector<std::thread> workers_;  ///< last: joined before the state above dies
};

/// Everything one replay (one set-up plus one simulated multi-day run)
/// measured. Per-layer values are only filled on traced replays.
struct ReplayResult {
  double setup_s = 0.0;
  double replay_s = 0.0;
  double sim_days = 0.0;
  std::vector<double> epoch_ms;
  std::vector<double> resolve_ms;
  QueryStats queries;
  std::optional<double> te_fidelity;
  CheckLog checks;
  bool traced = false;
  /// Per-layer counters read from library results and store statistics.
  std::map<std::string, double> layer;
  std::optional<TraceSummary> trace;
  /// Dominance verdict of the traced replay (see README.md).
  std::optional<bool> dominance_ok;
};

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; NaN when empty.
double quantile(std::vector<double> values, double q);

/// Record-for-record equality of two columnar logs.
bool logs_identical(const smn::telemetry::BandwidthLog& a, const smn::telemetry::BandwidthLog& b);

/// Field-for-field equality of two summary sequences; on mismatch `*where`
/// (when non-null) receives the first differing index.
bool summaries_identical(const std::vector<smn::telemetry::WindowSummary>& a,
                         const std::vector<smn::telemetry::WindowSummary>& b,
                         std::size_t* where = nullptr);

/// Checks a served fine range: timestamps sorted and inside [begin, end).
bool range_well_formed(const smn::telemetry::BandwidthLog& log, smn::util::SimTime begin,
                       smn::util::SimTime end);

/// Largest shard's fine records over the mean shard's (0 when empty).
double shard_skew(const smn::telemetry::LogStoreStats& stats);

/// Writes the tracer's spans to <out_dir>/spans-<workload>.json.
void write_span_file(const Tracer& tracer, const Options& options);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Workload entry points: one set-up plus one replay plus its checks, and
/// on untraced replays the te_fidelity reference solve.
ReplayResult run_monolith(const Options& options, bool traced);
ReplayResult run_federated(const Options& options, bool traced);

}  // namespace wanday
