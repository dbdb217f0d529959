#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace wanday {
namespace {

std::atomic<std::uint64_t> next_generation{1};

/// The calling thread's buffer in the tracer it last recorded into.
struct ThreadSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot tls_slot;

constexpr int kThreadShift = 32;

std::uint32_t index_of(SpanId id) { return static_cast<std::uint32_t>(id & 0xFFFFFFFFll); }

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kTelemetry: return "telemetry";
    case Layer::kSmn: return "smn";
    case Layer::kLp: return "lp";
    case Layer::kTe: return "te";
  }
  return "?";
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled),
      origin_(std::chrono::steady_clock::now()),
      generation_(next_generation.fetch_add(1)) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Buffer& Tracer::local() {
  if (tls_slot.generation != generation_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto buffer = std::make_unique<Buffer>();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer->spans.reserve(4096);
    tls_slot = {generation_, buffer.get()};
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<Buffer*>(tls_slot.buffer);
}

SpanId Tracer::open(const char* name, Layer layer, SpanId parent) {
  Buffer& buffer = local();
  if (parent == kNoSpan && !buffer.open.empty()) parent = buffer.open.back();
  const SpanId id = (static_cast<SpanId>(buffer.thread) << kThreadShift) |
                    static_cast<SpanId>(buffer.spans.size());
  buffer.spans.push_back({name, layer, now_ns(), 0, parent});
  buffer.open.push_back(id);
  return id;
}

void Tracer::close(SpanId id) {
  const std::int64_t end = now_ns();
  Buffer& buffer = local();
  buffer.spans[index_of(id)].end_ns = end;
  if (!buffer.open.empty() && buffer.open.back() == id) buffer.open.pop_back();
}

void Tracer::relabel(SpanId id, const char* name, Layer layer) {
  SpanRecord& span = local().spans[index_of(id)];
  span.name = name;
  span.layer = layer;
}

TraceSummary Tracer::summarize() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  TraceSummary out;
  // Child intervals per parent, so self time can subtract their union.
  std::map<SpanId, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : buffer->spans) {
      if (span.parent != kNoSpan) children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  for (const auto& buffer : buffers_) {
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const SpanRecord& span = buffer->spans[i];
      const SpanId id = (static_cast<SpanId>(buffer->thread) << kThreadShift) |
                        static_cast<SpanId>(i);
      const std::int64_t duration = span.end_ns - span.start_ns;
      std::int64_t covered = 0;
      const auto kids = children.find(id);
      if (kids != children.end()) {
        auto intervals = kids->second;
        std::sort(intervals.begin(), intervals.end());
        std::int64_t run_start = 0;
        std::int64_t run_end = -1;
        for (auto [s, e] : intervals) {
          s = std::max(s, span.start_ns);
          e = std::min(e, span.end_ns);
          if (e <= s) continue;
          if (s > run_end) {
            if (run_end > run_start) covered += run_end - run_start;
            run_start = s;
            run_end = e;
          } else {
            run_end = std::max(run_end, e);
          }
        }
        if (run_end > run_start) covered += run_end - run_start;
      }
      const double busy = static_cast<double>(duration) / 1e6;
      const double self = static_cast<double>(duration - covered) / 1e6;
      out.busy_ms[span.name] += busy;
      out.self_ms[span.name] += self;
      out.calls[span.name] += 1.0;
      out.layer_self_ms[layer_name(span.layer)] += self;
      ++out.spans;
    }
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [\n");
  bool first = true;
  for (const auto& buffer : buffers_) {
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const SpanRecord& span = buffer->spans[i];
      const SpanId id = (static_cast<SpanId>(buffer->thread) << kThreadShift) |
                        static_cast<SpanId>(i);
      std::fprintf(out,
                   "%s{\"id\": %lld, \"name\": \"%s\", \"layer\": \"%s\", \"thread\": %u, "
                   "\"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %lld}",
                   first ? "" : ",\n", static_cast<long long>(id), span.name,
                   layer_name(span.layer), buffer->thread,
                   static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.end_ns) / 1e3, static_cast<long long>(span.parent));
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace wanday
