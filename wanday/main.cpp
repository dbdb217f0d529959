// WAN-day pipeline benchmark program. One invocation runs one workload:
// repeated replays (each with its own set-up) until --seconds of replay
// time are measured, then prints every metric by name and unit and, as the
// last line, one JSON result object. See README.md.
//
//   wanday_bench --workload <ingest_day|regime_day|federated_day> --seed <n>
//                --seconds <s> --trace <0|1> [--size full|tiny]
//                [--plant drop_record|mutate_summary] [--out <dir>]
//                [--commit <id>]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "util/contracts.h"

namespace {

using namespace wanday;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A JSON number; a metric with no samples (NaN) prints as null.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Every per-layer metric, with its unit. Stages a workload does not run
/// report 0.
const std::vector<std::pair<const char*, const char*>>& layer_metric_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"telemetry.ingest.calls", "count"},
      {"telemetry.ingest.busy_ms", "ms"},
      {"telemetry.ingest.records_per_s", "1/s"},
      {"telemetry.shard_skew", "ratio"},
      {"telemetry.seal.busy_ms", "ms"},
      {"telemetry.seal.records_retired", "count"},
      {"telemetry.spill.bytes", "bytes"},
      {"telemetry.spill.maps", "count"},
      {"telemetry.resident_bytes", "bytes"},
      {"telemetry.drift.busy_ms", "ms"},
      {"smn.query.attempted", "count"},
      {"smn.query.shed", "count"},
      {"smn.query.deadline_exceeded", "count"},
      {"smn.query.service_p50_ms", "ms"},
      {"smn.query.service_p99_ms", "ms"},
      {"smn.query.rows", "count"},
      {"smn.query.gen_late_ms", "ms"},
      {"smn.resolve.count", "count"},
      {"smn.resolve.busy_ms", "ms"},
      {"smn.plan.busy_ms", "ms"},
      {"smn.adaptive.warm_hit_rate", "ratio"},
      {"smn.tick.busy_ms", "ms"},
      {"lp.mcf.sp_calls", "count"},
      {"lp.mcf.warm_hits", "count"},
      {"lp.mcf.warm_misses", "count"},
      {"te.sweep.busy_ms", "ms"},
      {"te.sweep.pairs", "count"},
      {"te.sweep.ch_fallback_ratio", "ratio"},
      {"te.federated.global_ms", "ms"},
      {"te.federated.refine_ms", "ms"},
      {"te.federated.sp_calls", "count"},
      {"smn.export.build_ms", "ms"},
      {"smn.export.wire_ms", "ms"},
      {"smn.export.bytes", "bytes"},
      {"smn.global.ingest_ms", "ms"},
      {"smn.global.merge_ms", "ms"},
      {"smn.global.summaries", "count"},
      {"layer.telemetry.self_ms", "ms"},
      {"layer.smn.self_ms", "ms"},
      {"layer.lp.self_ms", "ms"},
      {"layer.te.self_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
      {"trace.dominance_ok", "bool"},
  };
  return units;
}

bool parse_args(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--size") {
      options->size = value;
    } else if (flag == "--plant") {
      options->plant = value;
    } else if (flag == "--out") {
      options->out_dir = value;
    } else if (flag == "--commit") {
      options->commit = value;
    } else {
      return false;
    }
  }
  const bool known = options->workload == "ingest_day" || options->workload == "regime_day" ||
                     options->workload == "federated_day";
  return known && options->seconds > 0.0 && (options->size == "full" || options->size == "tiny");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: wanday_bench --workload <ingest_day|regime_day|federated_day> "
                 "--seed <n> --seconds <s> --trace <0|1> [--size full|tiny] "
                 "[--plant drop_record|mutate_summary] [--out <dir>] [--commit <id>]\n");
    return 2;
  }
  // A rejected export or a broken contract becomes a failed check, not an
  // abort with no result.
  smn::util::set_contract_mode(smn::util::ContractMode::kThrow);
  std::filesystem::create_directories(options.out_dir);

  const bool federated = options.workload == "federated_day";
  // Replay i draws its inputs from a seed derived from (--seed, i), so a
  // run's medians cover several draws of the traffic instead of one. Under
  // --trace 1 replays alternate untraced / traced on the same draw, so the
  // tracing overhead compares equal inputs in one process.
  const std::size_t min_replays = options.trace ? 2 : 6;
  // Keep the whole command well inside its time limit.
  const double budget_s = 140.0;
  const auto run_start = Clock::now();
  std::vector<ReplayResult> replays;
  double measured_s = 0.0;
  while (true) {
    const bool traced = options.trace && replays.size() % 2 == 1;
    Options draw = options;
    draw.seed = options.seed * 1000 + (options.trace ? replays.size() / 2 : replays.size());
    const auto start = Clock::now();
    ReplayResult replay;
    try {
      replay = federated ? run_federated(draw, traced) : run_monolith(draw, traced);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "replay failed: %s\n", error.what());
      return 1;
    }
    const double took = std::chrono::duration<double>(Clock::now() - start).count();
    std::printf("replay %zu%s: setup %.3f s, replay %.3f s (%.1f sim days), %zu epochs, "
                "epoch p99 %.1f ms, resolve p50 %.1f ms, query p99 %.1f ms, %llu queries, "
                "checks %llu/%llu failed, %.1f s in all\n",
                replays.size(), traced ? " (traced)" : "", replay.setup_s, replay.replay_s,
                replay.sim_days, replay.epoch_ms.size(), quantile(replay.epoch_ms, 0.99),
                median(replay.resolve_ms),
                quantile(replay.queries.latency_ms, 0.99),
                static_cast<unsigned long long>(replay.queries.attempted),
                static_cast<unsigned long long>(replay.checks.failed),
                static_cast<unsigned long long>(replay.checks.attempted), took);
    for (const std::string& failure : replay.checks.failures) {
      std::printf("  CHECK FAILED: %s\n", failure.c_str());
    }
    // Under --trace 1 every replay counts: the untraced ones exist only
    // for the overhead comparison.
    if (options.trace || !replay.traced) measured_s += replay.replay_s;
    replays.push_back(std::move(replay));
    const double elapsed = std::chrono::duration<double>(Clock::now() - run_start).count();
    if (replays.size() >= min_replays && measured_s >= options.seconds) break;
    if (replays.size() >= min_replays && elapsed + took > budget_s) break;
  }

  // --- Aggregate. ---
  std::vector<double> setup_s;
  std::vector<double> day_s;
  std::vector<double> traced_day_s;
  // Epoch and query quantiles are taken per replay (1152 epochs, so the
  // epoch p99 has 11 samples beyond it; several hundred queries) and the
  // run reports their median over the untraced replays: one replay
  // disturbed by the host moves no metric. A replay runs only a handful of
  // solves whose cost depends on the traffic draw, so the median solve time
  // is taken over the solves of all untraced replays together.
  std::vector<double> epoch_p50;
  std::vector<double> epoch_p99;
  std::vector<double> query_p50;
  std::vector<double> query_p99;
  std::vector<double> resolve_ms;
  QueryStats all_queries;
  QueryStats traced_queries;
  CheckLog checks;
  std::vector<double> te_fidelity;
  std::uint64_t epochs = 0;
  for (const ReplayResult& r : replays) {
    setup_s.push_back(r.setup_s);
    if (r.te_fidelity) te_fidelity.push_back(*r.te_fidelity);
    checks.attempted += r.checks.attempted;
    checks.failed += r.checks.failed;
    epochs += r.epoch_ms.size();
    if (r.traced) {
      traced_day_s.push_back(r.replay_s / r.sim_days);
      traced_queries.merge(r.queries);
      all_queries.merge(r.queries);
      continue;
    }
    day_s.push_back(r.replay_s / r.sim_days);
    epoch_p50.push_back(quantile(r.epoch_ms, 0.50));
    epoch_p99.push_back(quantile(r.epoch_ms, 0.99));
    query_p50.push_back(quantile(r.queries.latency_ms, 0.50));
    query_p99.push_back(quantile(r.queries.latency_ms, 0.99));
    resolve_ms.insert(resolve_ms.end(), r.resolve_ms.begin(), r.resolve_ms.end());
    all_queries.merge(r.queries);
  }

  std::vector<Metric> end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"day_s", median(day_s), "s"},
      {"epoch_p50_ms", median(epoch_p50), "ms"},
      {"epoch_p99_ms", median(epoch_p99), "ms"},
      {"query_p50_ms", median(query_p50), "ms"},
      {"query_p99_ms", median(query_p99), "ms"},
      {"resolve_p50_ms", median(resolve_ms), "ms"},
      {"te_fidelity", median(te_fidelity), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };

  std::vector<Metric> per_layer;
  if (options.trace) {
    std::map<std::string, double> sums;
    std::size_t traced = 0;
    bool dominance = true;
    double spans = 0.0;
    for (const ReplayResult& r : replays) {
      if (!r.traced) continue;
      ++traced;
      for (const auto& [name, value] : r.layer) sums[name] += value;
      for (const auto& [layer, ms] : r.trace->layer_self_ms) sums["layer." + layer + ".self_ms"] += ms;
      spans += static_cast<double>(r.trace->spans);
      dominance = dominance && r.dominance_ok.value_or(false);
    }
    const double n = static_cast<double>(std::max<std::size_t>(1, traced));
    for (auto& [name, value] : sums) value /= n;
    sums["smn.query.attempted"] = static_cast<double>(traced_queries.attempted) / n;
    sums["smn.query.shed"] = static_cast<double>(traced_queries.shed) / n;
    sums["smn.query.deadline_exceeded"] = static_cast<double>(traced_queries.deadline_exceeded) / n;
    sums["smn.query.service_p50_ms"] = quantile(traced_queries.service_ms, 0.50);
    sums["smn.query.service_p99_ms"] = quantile(traced_queries.service_ms, 0.99);
    sums["smn.query.rows"] = static_cast<double>(traced_queries.rows) / n;
    sums["smn.query.gen_late_ms"] = quantile(traced_queries.late_ms, 0.99);
    sums["trace.overhead_pct"] = 100.0 * (median(traced_day_s) / median(day_s) - 1.0);
    sums["trace.spans"] = spans / n;
    sums["trace.dominance_ok"] = dominance ? 1.0 : 0.0;
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = sums.find(name);
      per_layer.push_back({name, it == sums.end() ? 0.0 : it->second, unit});
    }
  }

  // --- Report. ---
  const bool correct = checks.failed == 0;
  const std::uint64_t attempted = epochs + all_queries.attempted + checks.attempted;
  const std::uint64_t failed =
      all_queries.shed + all_queries.deadline_exceeded + all_queries.invalid + checks.failed;
  const std::vector<Metric>& shown = options.trace ? per_layer : end_to_end;
  for (const Metric& m : end_to_end) {
    std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : per_layer) {
    std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("queries: %llu attempted, %llu shed (%.4f%%), %llu over deadline (%.4f%%)\n",
              static_cast<unsigned long long>(all_queries.attempted),
              static_cast<unsigned long long>(all_queries.shed),
              all_queries.attempted ? 100.0 * all_queries.shed / all_queries.attempted : 0.0,
              static_cast<unsigned long long>(all_queries.deadline_exceeded),
              all_queries.attempted
                  ? 100.0 * all_queries.deadline_exceeded / all_queries.attempted
                  : 0.0);

  std::string machine = "{\"hw_threads\": " +
                        std::to_string(std::thread::hardware_concurrency()) +
                        ", \"build_type\": " + json_string(WANDAY_BUILD_TYPE) +
                        ", \"compiler\": " + json_string(WANDAY_COMPILER) +
                        ", \"workload\": " + json_string(options.workload) +
                        ", \"seed\": " + std::to_string(options.seed) +
                        ", \"size\": " + json_string(options.size) +
                        ", \"commit\": " + json_string(options.commit) + "}";
  auto metrics_json = [](const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " +
             number(metrics[i].value) + ", \"unit\": " + json_string(metrics[i].unit) + "}";
    }
    return out + "}";
  };
  const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(failed) +
                             ", \"metrics\": " + metrics_json(shown) + "}";

  // Full record beside the spans: machine block, every metric, each replay.
  const std::string record_path =
      (std::filesystem::path(options.out_dir) /
       ("result-" + options.workload + (options.trace ? "-trace" : "") + ".json"))
          .string();
  if (std::FILE* out = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(out, "{\"machine\": %s,\n \"end_to_end\": %s,\n \"per_layer\": %s,\n",
                 machine.c_str(), metrics_json(end_to_end).c_str(),
                 metrics_json(per_layer).c_str());
    std::fprintf(out, " \"replays\": [");
    for (std::size_t i = 0; i < replays.size(); ++i) {
      const ReplayResult& r = replays[i];
      std::fprintf(out, "%s{\"traced\": %s, \"setup_s\": %s, \"replay_s\": %s, \"epochs\": %zu}",
                   i ? ", " : "", r.traced ? "true" : "false", number(r.setup_s).c_str(),
                   number(r.replay_s).c_str(), r.epoch_ms.size());
    }
    std::fprintf(out, "],\n \"result\": %s}\n", result.c_str());
    std::fclose(out);
  }

  std::printf("{\"machine\": %s}\n", machine.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
