// PR-5 storage bench — the spill tier under the sharded
// BandwidthLogStore on a multi-day ~308-DC planetary WAN workload (four
// days of 5-minute epochs, ~2.3M records). Ingests the same log into an
// all-resident store (never sealed — the fine_range ground truth and the
// resident-memory yardstick) and a spill-enabled store, seals every day but
// the last, and measures:
//
//   * resident fine-segment memory before vs after the seal (the demotion
//     win; gated at >= 3x with three of four days spilled),
//   * cold-read latency: fine_range() over one spilled day (each call opens
//     the day's column files and reads them back, checksum verified) vs the
//     same day read from the all-resident store,
//   * a 15-minute read of a spilled day, with its work counts: the spill
//     bytes it checksummed (against the day's spill bytes) and the rows it
//     scanned — the read verifies only the blocks its window overlaps,
//   * byte-identity of the spill store's fine_range() against the
//     all-resident store — over the full horizon, over a purely spilled
//     range, and over a range straddling the spill/resident boundary — and
//     of its coarse() output against a no-spill store sealing the same
//     days (spilling must not change what retention emits).
//
// Writes BENCH_spill_tier.json into the working directory:
//   {
//     "instance": {...},
//     "memory": {"all_resident_bytes", "spilled_resident_bytes",
//                "resident_reduction", "spilled_file_bytes", "spill_files"},
//     "cold_read": {"spilled_day_ms", "resident_day_ms", ...},
//     "window_read": {"window_s", "ms", "records", "rows_scanned",
//                     "bytes_verified", "day_spill_bytes", "verified_fraction"},
//     "fidelity": {"full_identical", "spilled_only_identical",
//                  "straddle_identical", "coarse_identical", "reduction_ok",
//                  "window_identical"}
//   }
//
// `--smoke` shrinks the WAN and pair count for the bench_smoke ctest label
// but keeps the four-day shape, so the 3x reduction gate holds there too.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "telemetry/log_store.h"
#include "telemetry/traffic_generator.h"
#include "topology/wan_generator.h"

namespace {

using namespace smn;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

bool logs_identical(const telemetry::BandwidthLog& a, const telemetry::BandwidthLog& b) {
  if (a.record_count() != b.record_count()) return false;
  for (std::size_t i = 0; i < a.record_count(); ++i) {
    if (a.timestamps()[i] != b.timestamps()[i] || a.pair_ids()[i] != b.pair_ids()[i] ||
        a.bandwidths()[i] != b.bandwidths()[i]) {
      return false;
    }
  }
  return true;
}

bool summaries_identical(std::span<const telemetry::WindowSummary> a,
                         std::span<const telemetry::WindowSummary> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].pair != b[i].pair || a[i].window_start != b[i].window_start ||
        a[i].window_length != b[i].window_length || a[i].sample_count != b[i].sample_count ||
        a[i].mean != b[i].mean || a[i].p50 != b[i].p50 || a[i].p95 != b[i].p95 ||
        a[i].min != b[i].min || a[i].max != b[i].max) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // Four days of 5-minute epochs; the full leg runs the ~308-DC planetary
  // WAN with 2000 active pairs (~2.3M records).
  topology::WanConfig wan_config;
  if (smoke) {
    wan_config.regions_per_continent = 2;
    wan_config.dcs_per_region = 3;
  }
  constexpr util::SimTime kDays = 4;
  telemetry::TrafficConfig traffic;
  traffic.duration = kDays * util::kDay;
  traffic.active_pairs = smoke ? 100 : 2000;
  traffic.seed = 53;
  const util::SimTime window = util::kHour;
  const util::SimTime last_day = (kDays - 1) * util::kDay;
  const int reps = smoke ? 1 : 3;

  const auto wan = topology::generate_planetary_wan(wan_config);
  const telemetry::TrafficGenerator gen(wan, traffic);
  const telemetry::BandwidthLog log = gen.generate();
  const std::size_t records = log.record_count();
  std::printf("instance: %zu DCs, %zu pairs, %lld days (%zu records)\n", wan.datacenter_count(),
              gen.pairs().size(), static_cast<long long>(kDays), records);

  const std::string spill_dir =
      (std::filesystem::temp_directory_path() / "smn_bench_p4_spill").string();
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);

  const telemetry::LogStoreConfig resident_config{.streaming_window = window, .shards = 8};
  telemetry::LogStoreConfig spill_config = resident_config;
  spill_config.spill_dir = spill_dir;

  // All-resident reference: ingests everything and never seals, so its
  // resident bytes are the "no spill tier" footprint and its fine_range is
  // the ground truth the spilled reads must reproduce byte-for-byte.
  telemetry::BandwidthLogStore reference(resident_config);
  reference.ingest(log);
  const std::size_t all_resident_bytes = reference.stats().resident_bytes;

  // Spill store: seal every day but the last (sealing with `now` at the
  // final day start and zero max age retires exactly days 0..kDays-2).
  telemetry::BandwidthLogStore spilled(spill_config);
  spilled.ingest(log);
  const auto seal_start = Clock::now();
  const std::size_t retired = spilled.coarsen_older_than(last_day, 0, window);
  const double seal_ms = ms_since(seal_start);
  const telemetry::LogStoreStats after = spilled.stats();
  const double reduction =
      after.resident_bytes > 0
          ? static_cast<double>(all_resident_bytes) / static_cast<double>(after.resident_bytes)
          : std::numeric_limits<double>::infinity();
  const bool reduction_ok = reduction >= 3.0;

  // No-spill store sealing the same days: spilling must not change the
  // coarse summaries retention emits.
  telemetry::BandwidthLogStore dropped(resident_config);
  dropped.ingest(log);
  dropped.coarsen_older_than(last_day, 0, window);
  const bool coarse_identical =
      summaries_identical(spilled.coarse().summaries(), dropped.coarse().summaries());

  // --- Byte-identity of the spilled read path vs the all-resident store:
  // full horizon, a purely spilled range, and a range straddling the
  // boundary between the last spilled day and the resident day. ---
  const bool full_identical =
      logs_identical(spilled.fine_range(0, traffic.duration), reference.fine_range(0, traffic.duration));
  const util::SimTime spilled_lo = util::kDay / 2;
  const bool spilled_only_identical =
      logs_identical(spilled.fine_range(spilled_lo, spilled_lo + util::kDay),
                     reference.fine_range(spilled_lo, spilled_lo + util::kDay));
  const util::SimTime straddle_lo = last_day - util::kDay / 2;
  const util::SimTime straddle_hi = last_day + util::kDay / 2;
  const bool straddle_identical = logs_identical(spilled.fine_range(straddle_lo, straddle_hi),
                                                 reference.fine_range(straddle_lo, straddle_hi));

  // --- Cold-read latency: one spilled day read back vs the same day
  // all-resident. Every call re-opens (nothing is cached between reads), so
  // this is the steady-state cost of touching the cold tier. ---
  double spilled_day_ms = std::numeric_limits<double>::infinity();
  double resident_day_ms = std::numeric_limits<double>::infinity();
  std::size_t day_records = 0;
  for (int r = 0; r < reps; ++r) {
    {
      const auto start = Clock::now();
      const telemetry::BandwidthLog day = spilled.fine_range(0, util::kDay);
      spilled_day_ms = std::min(spilled_day_ms, ms_since(start));
      day_records = day.record_count();
    }
    {
      const auto start = Clock::now();
      const telemetry::BandwidthLog day = reference.fine_range(0, util::kDay);
      resident_day_ms = std::min(resident_day_ms, ms_since(start));
    }
  }
  // --- A 15-minute read inside spilled day 1, with its work counts. The
  // day's spill bytes are its files on disk, headers included. ---
  const util::SimTime window_lo = util::kDay + 6 * util::kHour;
  const util::SimTime window_hi = window_lo + 15 * util::kMinute;
  std::size_t day_spill_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(spill_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find("_day" + std::to_string(util::kDay) + "_") != std::string::npos) {
      day_spill_bytes += entry.file_size();
    }
  }
  const telemetry::LogStoreStats before_window = spilled.stats();
  double window_ms = std::numeric_limits<double>::infinity();
  telemetry::BandwidthLog window_log;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    window_log = spilled.fine_range(window_lo, window_hi);
    window_ms = std::min(window_ms, ms_since(start));
  }
  const telemetry::LogStoreStats after_window = spilled.stats();
  const std::uint64_t window_bytes_verified =
      (after_window.spill_bytes_verified - before_window.spill_bytes_verified) / reps;
  const std::uint64_t window_rows_scanned =
      (after_window.rows_scanned - before_window.rows_scanned) / reps;
  const double verified_fraction =
      day_spill_bytes > 0
          ? static_cast<double>(window_bytes_verified) / static_cast<double>(day_spill_bytes)
          : 0.0;
  const bool window_identical =
      logs_identical(window_log, reference.fine_range(window_lo, window_hi));

  const auto records_per_s = [&](double ms) {
    return ms > 0.0 ? static_cast<double>(day_records) / (ms / 1000.0) : 0.0;
  };
  const double cold_over_resident =
      resident_day_ms > 0.0 ? spilled_day_ms / resident_day_ms : 0.0;

  std::printf("seal: retired %zu records into %zu spill files in %.1f ms\n", retired,
              after.spilled_files, seal_ms);
  std::printf("resident fine bytes: %zu all-resident -> %zu with spill tier (%.2fx %s)\n",
              all_resident_bytes, after.resident_bytes, reduction,
              reduction_ok ? "reduction" : "BELOW 3x GATE");
  const telemetry::LogStoreStats final_stats = spilled.stats();
  std::printf("cold tier on disk: %zu bytes across %zu files; %llu maps / %llu unmaps\n",
              after.spilled_bytes, after.spilled_files,
              static_cast<unsigned long long>(final_stats.spill_maps),
              static_cast<unsigned long long>(final_stats.spill_unmaps));
  std::printf("day read (%zu records): spilled %.2f ms vs resident %.2f ms (%.2fx)\n",
              day_records, spilled_day_ms, resident_day_ms, cold_over_resident);
  std::printf("15-minute spilled read (%zu records): %.3f ms, %zu rows scanned, %llu of the "
              "day's %zu spill bytes verified (%.2f%%)\n",
              window_log.record_count(), window_ms, static_cast<std::size_t>(window_rows_scanned),
              static_cast<unsigned long long>(window_bytes_verified), day_spill_bytes,
              100.0 * verified_fraction);
  std::printf("fidelity: full %s, spilled-only %s, straddle %s, coarse %s, window %s\n",
              full_identical ? "identical" : "MISMATCH",
              spilled_only_identical ? "identical" : "MISMATCH",
              straddle_identical ? "identical" : "MISMATCH",
              coarse_identical ? "identical" : "MISMATCH",
              window_identical ? "identical" : "MISMATCH");

  std::FILE* out = std::fopen("BENCH_spill_tier.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_spill_tier.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"instance\": {\"dcs\": %zu, \"pairs\": %zu, \"days\": %lld, "
               "\"records\": %zu, \"window_s\": %lld, \"smoke\": %s},\n",
               wan.datacenter_count(), gen.pairs().size(), static_cast<long long>(kDays),
               records, static_cast<long long>(window), smoke ? "true" : "false");
  std::fprintf(out,
               "  \"memory\": {\"all_resident_bytes\": %zu, \"spilled_resident_bytes\": %zu, "
               "\"resident_reduction\": %.6f, \"spilled_file_bytes\": %zu, "
               "\"spill_files\": %zu},\n",
               all_resident_bytes, after.resident_bytes, reduction, after.spilled_bytes,
               after.spilled_files);
  std::fprintf(out,
               "  \"cold_read\": {\"spilled_day_ms\": %.3f, \"resident_day_ms\": %.3f, "
               "\"spilled_day_records_per_s\": %.0f, \"resident_day_records_per_s\": %.0f, "
               "\"cold_over_resident\": %.3f, \"day_records\": %zu, \"seal_ms\": %.3f},\n",
               spilled_day_ms, resident_day_ms, records_per_s(spilled_day_ms),
               records_per_s(resident_day_ms), cold_over_resident, day_records, seal_ms);
  std::fprintf(out,
               "  \"window_read\": {\"window_s\": %lld, \"ms\": %.3f, \"records\": %zu, "
               "\"rows_scanned\": %llu, \"bytes_verified\": %llu, \"day_spill_bytes\": %zu, "
               "\"verified_fraction\": %.6f},\n",
               static_cast<long long>(window_hi - window_lo), window_ms,
               window_log.record_count(), static_cast<unsigned long long>(window_rows_scanned),
               static_cast<unsigned long long>(window_bytes_verified), day_spill_bytes,
               verified_fraction);
  std::fprintf(out,
               "  \"fidelity\": {\"full_identical\": %s, \"spilled_only_identical\": %s, "
               "\"straddle_identical\": %s, \"coarse_identical\": %s, \"reduction_ok\": %s, "
               "\"window_identical\": %s}\n",
               full_identical ? "true" : "false", spilled_only_identical ? "true" : "false",
               straddle_identical ? "true" : "false", coarse_identical ? "true" : "false",
               reduction_ok ? "true" : "false", window_identical ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_spill_tier.json\n");
  return (full_identical && spilled_only_identical && straddle_identical && coarse_identical &&
          reduction_ok && window_identical)
             ? 0
             : 1;
}
