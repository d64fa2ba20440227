#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// \file trace.hpp
/// Zero-cost-when-disabled trace spans (see DESIGN.md, "Telemetry layer"
/// and docs/observability.md).
///
/// The recorder keeps one append-only event buffer per thread, stamped
/// with a monotonic clock, and serializes to Chrome trace-event JSON
/// (`traceEvents` array of `ph:"X"` complete events with pid/tid/ts/dur/
/// args) that loads directly in Perfetto or chrome://tracing, plus a
/// plain-text hierarchical summary (count/total/mean/p99 per span path).
///
/// Cost model — the hard constraint is that telemetry must never change a
/// schedule and must cost nothing when off:
///  - A single relaxed atomic holds the state: `Off` (span constructors
///    are one predicted branch, measured by `BM_TraceOverhead`), `Idle`
///    (timestamps are taken but nothing is stored — isolates clock cost
///    in benchmarks), and `Recording` (events append to the calling
///    thread's buffer).
///  - Buffers are registered once per thread under a mutex and held by
///    shared_ptr, so they survive thread exit; appends lock only the
///    owning thread's (uncontended) buffer mutex, and only while
///    recording.
///
/// Instrumentation never synchronizes between worker threads, so it
/// cannot perturb any of the repo's determinism guarantees — the
/// bit-identical-schedule tests in tests/test_trace_schedules.cpp pin
/// that across all variants and thread counts.

namespace cawo {
class JsonWriter;
}

namespace cawo::obs {

/// Runtime tracing state (one relaxed atomic, see file comment).
enum class TraceState : int {
  Off = 0,       ///< span sites cost one predicted branch
  Idle = 1,      ///< timestamps taken, nothing stored (bench mode)
  Recording = 2, ///< events append to per-thread buffers
};

namespace detail {
extern std::atomic<int> g_traceState;
inline int traceStateRelaxed() {
  return g_traceState.load(std::memory_order_relaxed);
}
} // namespace detail

/// One span/instant/counter argument, pre-rendered for the JSON writer.
struct TraceArg {
  std::string key;
  std::string text; ///< payload: string body or formatted number
  bool quoted;      ///< true → JSON string, false → raw number literal
};

/// One recorded event. `name` must point at storage that outlives the
/// recorder (string literals at every call site).
struct TraceEvent {
  enum class Kind : std::uint8_t { Span, Instant, Counter, AsyncSpan };
  const char* name;
  Kind kind;
  std::int64_t tsNs;  ///< ns since the recorder epoch
  std::int64_t durNs; ///< spans only
  double counterValue;
  std::vector<TraceArg> args;
  std::uint64_t asyncId = 0; ///< AsyncSpan only: nestable-async track id
};

/// Per-thread append-only buffer; owned jointly by the registering thread
/// (thread_local shared_ptr) and the recorder, so events survive thread
/// exit. The mutex is only ever contended by a reader (write/clear).
struct TraceThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  int tid = 0;
  std::string threadName;
};

/// Process-wide trace recorder. All spans record into `global()`; the
/// class is only instantiable there (tests reset it via clear()).
class TraceRecorder {
public:
  static TraceRecorder& global();

  void setState(TraceState s);
  TraceState state() const;

  /// Label the process lane in the trace (store shards use pid = shard
  /// index so a merged view shows shard lanes side by side).
  void setProcess(int pid, std::string name);
  int pid() const;

  /// Drop every recorded event (thread registrations and tids persist).
  void clear();
  std::size_t eventCount() const;

  /// ns since the recorder epoch, on the monotonic clock.
  std::int64_t nowNs() const;
  std::int64_t toEpochNs(std::chrono::steady_clock::time_point tp) const;

  /// Record on the calling thread's buffer; no-ops unless Recording.
  void recordSpan(const char* name, std::int64_t tsNs, std::int64_t durNs,
                  std::vector<TraceArg> args = {});
  void recordInstant(const char* name, std::vector<TraceArg> args = {});
  void recordCounter(const char* name, double value);
  /// Cross-thread span, serialized as a paired nestable-async begin/end
  /// (`ph:"b"`/`"e"`) under track `id` — the Chrome-format answer to
  /// spans that overlap on a thread lane (serve's per-request spans,
  /// which cover queue time while the worker handles other requests).
  void recordAsyncSpan(const char* name, std::uint64_t id, std::int64_t tsNs,
                       std::int64_t durNs, std::vector<TraceArg> args = {});

  /// Name the calling thread's lane (emitted as ph:"M" metadata). Cheap
  /// and allowed in any state — pools name their workers at startup.
  void setThreadName(std::string name);

  /// Serialize everything recorded so far as Chrome trace-event JSON.
  void writeChromeTrace(std::ostream& out) const;

  /// Plain-text hierarchical rollup: count/total/mean/p99 per span path
  /// (children indented under the span that contains them).
  void writeSummary(std::ostream& out) const;

private:
  TraceRecorder();
  TraceThreadBuffer& localBuffer();
  std::vector<std::shared_ptr<TraceThreadBuffer>> snapshotBuffers() const;

  mutable std::mutex registryMutex_;
  std::vector<std::shared_ptr<TraceThreadBuffer>> buffers_;
  std::chrono::steady_clock::time_point epoch_;
  int pid_ = 1;
  std::string processName_ = "cawosched";
};

/// True when any tracing is on (Idle or Recording).
inline bool traceEnabled() { return detail::traceStateRelaxed() != 0; }
/// True only while events are actually stored — guard arg formatting.
inline bool traceRecording() { return detail::traceStateRelaxed() == 2; }

/// RAII complete-event span. The constructor is the per-site cost: one
/// relaxed load and a predicted branch when tracing is Off.
class TraceScope {
public:
  explicit TraceScope(const char* name) {
    if (detail::traceStateRelaxed() != 0) begin(name);
  }
  ~TraceScope() {
    if (name_ != nullptr) end();
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  bool recording() const { return recording_; }

  /// Attach an argument (stored only while this span is recording, so
  /// callers can skip building values behind `recording()`).
  void arg(const char* key, const std::string& value);
  void arg(const char* key, std::int64_t value);
  void arg(const char* key, double value);

private:
  void begin(const char* name);
  void end();

  const char* name_ = nullptr;
  std::int64_t startNs_ = 0;
  bool recording_ = false;
  std::vector<TraceArg> args_;
};

/// Free-function event helpers (no-ops unless Recording).
void traceInstant(const char* name);
void traceCounter(const char* name, double value);
/// Span with explicit endpoints, for phases whose boundaries were
/// captured as time points before the decision to record (serve records
/// queue-wait this way from its admission/pickup stamps).
void traceSpanBetween(const char* name,
                      std::chrono::steady_clock::time_point begin,
                      std::chrono::steady_clock::time_point end,
                      std::vector<TraceArg> args = {});
/// Cross-thread span on nestable-async track `id`: spans sharing an id
/// render as one stacked per-request track in Perfetto instead of
/// colliding with unrelated spans on the recording thread's lane.
void traceAsyncSpanBetween(const char* name, std::uint64_t id,
                           std::chrono::steady_clock::time_point begin,
                           std::chrono::steady_clock::time_point end,
                           std::vector<TraceArg> args = {});
/// Name the calling thread's trace lane; safe in any state.
void traceSetThreadName(const std::string& name);

} // namespace cawo::obs
