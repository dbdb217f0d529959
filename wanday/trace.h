// In-memory span recorder for the traced benchmark run. A span wraps one
// call the benchmark makes into a library layer: name, layer, start, end,
// the span that caused it, and the recording thread. Spans stay in
// per-thread buffers while the replay runs (one uncontended append per
// span) and are analysed and written out after it ends. With tracing off
// every Scope is a single predictable branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wanday {

/// The repository module a span's work belongs to. kBench marks the
/// benchmark's own structure (the epoch and the export round), which owns
/// no work of its own beyond dispatch.
enum class Layer : std::uint8_t { kBench, kTelemetry, kSmn, kLp, kTe };

const char* layer_name(Layer layer);

/// Span handle: the recording thread's index in the high half, the span's
/// index in that thread's buffer in the low half. -1 = no span.
using SpanId = std::int64_t;
inline constexpr SpanId kNoSpan = -1;

struct SpanRecord {
  const char* name = "";
  Layer layer = Layer::kBench;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanId parent = kNoSpan;
};

/// Per-name and per-layer totals derived from a finished trace.
struct TraceSummary {
  std::map<std::string, double> busy_ms;     ///< by span name: sum of durations
  std::map<std::string, double> self_ms;     ///< by span name: duration minus child cover
  std::map<std::string, double> calls;       ///< by span name
  std::map<std::string, double> layer_self_ms;  ///< by layer name
  std::size_t spans = 0;

  /// Lookups that read 0 for a name no span carried.
  static double of(const std::map<std::string, double>& table, const std::string& key) {
    const auto it = table.find(key);
    return it == table.end() ? 0.0 : it->second;
  }
  double busy(const std::string& name) const { return of(busy_ms, name); }
  double self(const std::string& name) const { return of(self_ms, name); }
  double count(const std::string& name) const { return of(calls, name); }
  double layer_self(const std::string& layer) const { return of(layer_self_ms, layer); }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span on the calling thread. `parent` = kNoSpan takes the
  /// thread's innermost open span; pass an explicit id to parent a span on
  /// another thread (an export stream working for the replay's epoch).
  SpanId open(const char* name, Layer layer, SpanId parent = kNoSpan);
  void close(SpanId id);
  /// Renames an open span of the calling thread once its call has shown
  /// what it did (a controller tick that did or did not fire a re-solve).
  void relabel(SpanId id, const char* name, Layer layer);

  /// Folds every recorded span into per-name and per-layer totals. Call
  /// only after every recording thread has finished.
  TraceSummary summarize() const;

  /// Writes every span as JSON (one object per span, times in microseconds
  /// from the tracer's origin). Returns false on an I/O error.
  bool write_json(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<SpanId> open;  ///< stack of open span ids
  };

  Buffer& local();
  std::int64_t now_ns() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  std::uint64_t generation_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  ///< guarded by mutex_ on registration
};

/// RAII span. No-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, Layer layer, SpanId parent = kNoSpan)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name, layer, parent) : kNoSpan) {}
  ~Scope() {
    if (id_ != kNoSpan) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  SpanId id() const noexcept { return id_; }
  void relabel(const char* name, Layer layer) {
    if (id_ != kNoSpan) tracer_.relabel(id_, name, layer);
  }

 private:
  Tracer& tracer_;
  SpanId id_;
};

}  // namespace wanday
