#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <map>
#include <ostream>
#include <utility>

#include "exp/json.hpp"
#include "obs/metrics.hpp"

namespace cawo::obs {

namespace detail {
std::atomic<int> g_traceState{0};
} // namespace detail

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::setState(TraceState s) {
  detail::g_traceState.store(static_cast<int>(s), std::memory_order_relaxed);
}

TraceState TraceRecorder::state() const {
  return static_cast<TraceState>(detail::traceStateRelaxed());
}

void TraceRecorder::setProcess(int pid, std::string name) {
  std::lock_guard<std::mutex> lock(registryMutex_);
  pid_ = pid;
  processName_ = std::move(name);
}

int TraceRecorder::pid() const {
  std::lock_guard<std::mutex> lock(registryMutex_);
  return pid_;
}

std::int64_t TraceRecorder::nowNs() const {
  return toEpochNs(std::chrono::steady_clock::now());
}

std::int64_t
TraceRecorder::toEpochNs(std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_)
      .count();
}

TraceThreadBuffer& TraceRecorder::localBuffer() {
  // Per-thread cache: registration happens once per thread, under the
  // registry mutex; afterwards appends touch only this buffer. The
  // shared_ptr keeps the buffer alive in the recorder after thread exit.
  thread_local std::shared_ptr<TraceThreadBuffer> tl;
  if (!tl) {
    tl = std::make_shared<TraceThreadBuffer>();
    std::lock_guard<std::mutex> lock(registryMutex_);
    tl->tid = static_cast<int>(buffers_.size()) + 1;
    buffers_.push_back(tl);
  }
  return *tl;
}

std::vector<std::shared_ptr<TraceThreadBuffer>>
TraceRecorder::snapshotBuffers() const {
  std::lock_guard<std::mutex> lock(registryMutex_);
  return buffers_;
}

void TraceRecorder::clear() {
  for (const auto& buf : snapshotBuffers()) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    buf->events.clear();
  }
}

std::size_t TraceRecorder::eventCount() const {
  std::size_t n = 0;
  for (const auto& buf : snapshotBuffers()) {
    std::lock_guard<std::mutex> lock(buf->mutex);
    n += buf->events.size();
  }
  return n;
}

void TraceRecorder::recordSpan(const char* name, std::int64_t tsNs,
                               std::int64_t durNs,
                               std::vector<TraceArg> args) {
  if (state() != TraceState::Recording) return;
  auto& buf = localBuffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(TraceEvent{name, TraceEvent::Kind::Span, tsNs, durNs,
                                  0.0, std::move(args)});
}

void TraceRecorder::recordInstant(const char* name,
                                  std::vector<TraceArg> args) {
  if (state() != TraceState::Recording) return;
  auto& buf = localBuffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(TraceEvent{name, TraceEvent::Kind::Instant, nowNs(), 0,
                                  0.0, std::move(args)});
}

void TraceRecorder::recordCounter(const char* name, double value) {
  if (state() != TraceState::Recording) return;
  auto& buf = localBuffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(
      TraceEvent{name, TraceEvent::Kind::Counter, nowNs(), 0, value, {}});
}

void TraceRecorder::recordAsyncSpan(const char* name, std::uint64_t id,
                                    std::int64_t tsNs, std::int64_t durNs,
                                    std::vector<TraceArg> args) {
  if (state() != TraceState::Recording) return;
  auto& buf = localBuffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(TraceEvent{name, TraceEvent::Kind::AsyncSpan, tsNs,
                                  durNs, 0.0, std::move(args), id});
}

void TraceRecorder::setThreadName(std::string name) {
  auto& buf = localBuffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.threadName = std::move(name);
}

namespace {

void writeArgs(JsonWriter& w, const std::vector<TraceArg>& args) {
  w.key("args");
  w.beginObject();
  for (const auto& a : args) {
    w.key(a.key);
    if (a.quoted) {
      w.value(a.text);
    } else {
      w.rawValue(a.text);
    }
  }
  w.endObject();
}

/// Events of one thread, snapshotted for serialization.
struct LaneSnapshot {
  int tid;
  std::string name;
  std::vector<TraceEvent> events;
};

} // namespace

void TraceRecorder::writeChromeTrace(std::ostream& out) const {
  std::vector<LaneSnapshot> lanes;
  int pid;
  std::string processName;
  {
    std::lock_guard<std::mutex> lock(registryMutex_);
    pid = pid_;
    processName = processName_;
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> bufLock(buf->mutex);
      lanes.push_back(LaneSnapshot{buf->tid, buf->threadName, buf->events});
    }
  }

  JsonWriter w(out, 1);
  w.beginObject();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.beginArray();

  w.compactNext();
  w.beginObject();
  w.key("ph"); w.value("M");
  w.key("name"); w.value("process_name");
  w.key("pid"); w.value(pid);
  w.key("tid"); w.value(0);
  w.key("args");
  w.beginObject();
  w.key("name"); w.value(processName);
  w.endObject();
  w.endObject();

  for (const auto& lane : lanes) {
    if (lane.name.empty()) continue;
    w.compactNext();
    w.beginObject();
    w.key("ph"); w.value("M");
    w.key("name"); w.value("thread_name");
    w.key("pid"); w.value(pid);
    w.key("tid"); w.value(lane.tid);
    w.key("args");
    w.beginObject();
    w.key("name"); w.value(lane.name);
    w.endObject();
    w.endObject();
  }

  for (const auto& lane : lanes) {
    for (const auto& ev : lane.events) {
      if (ev.kind == TraceEvent::Kind::AsyncSpan) {
        // Paired nestable-async begin/end; (cat, id) names the track, so
        // spans of one request stack together regardless of which thread
        // recorded them.
        char idBuf[24];
        std::snprintf(idBuf, sizeof(idBuf), "0x%llx",
                      static_cast<unsigned long long>(ev.asyncId));
        w.compactNext();
        w.beginObject();
        w.key("ph"); w.value("b");
        w.key("cat"); w.value("request");
        w.key("name"); w.value(ev.name);
        w.key("id"); w.value(idBuf);
        w.key("pid"); w.value(pid);
        w.key("tid"); w.value(lane.tid);
        w.key("ts"); w.rawValue(jsonNumber(static_cast<double>(ev.tsNs) / 1000.0));
        if (!ev.args.empty()) writeArgs(w, ev.args);
        w.endObject();
        w.compactNext();
        w.beginObject();
        w.key("ph"); w.value("e");
        w.key("cat"); w.value("request");
        w.key("name"); w.value(ev.name);
        w.key("id"); w.value(idBuf);
        w.key("pid"); w.value(pid);
        w.key("tid"); w.value(lane.tid);
        w.key("ts");
        w.rawValue(jsonNumber(static_cast<double>(ev.tsNs + ev.durNs) / 1000.0));
        w.endObject();
        continue;
      }
      w.compactNext();
      w.beginObject();
      switch (ev.kind) {
      case TraceEvent::Kind::Span:
        w.key("ph"); w.value("X");
        w.key("name"); w.value(ev.name);
        w.key("pid"); w.value(pid);
        w.key("tid"); w.value(lane.tid);
        w.key("ts"); w.rawValue(jsonNumber(static_cast<double>(ev.tsNs) / 1000.0));
        w.key("dur"); w.rawValue(jsonNumber(static_cast<double>(ev.durNs) / 1000.0));
        if (!ev.args.empty()) writeArgs(w, ev.args);
        break;
      case TraceEvent::Kind::Instant:
        w.key("ph"); w.value("i");
        w.key("name"); w.value(ev.name);
        w.key("pid"); w.value(pid);
        w.key("tid"); w.value(lane.tid);
        w.key("ts"); w.rawValue(jsonNumber(static_cast<double>(ev.tsNs) / 1000.0));
        w.key("s"); w.value("t");
        if (!ev.args.empty()) writeArgs(w, ev.args);
        break;
      case TraceEvent::Kind::Counter:
        w.key("ph"); w.value("C");
        w.key("name"); w.value(ev.name);
        w.key("pid"); w.value(pid);
        w.key("tid"); w.value(lane.tid);
        w.key("ts"); w.rawValue(jsonNumber(static_cast<double>(ev.tsNs) / 1000.0));
        w.key("args");
        w.beginObject();
        w.key("value"); w.value(ev.counterValue);
        w.endObject();
        break;
      case TraceEvent::Kind::AsyncSpan:
        break; // handled above
      }
      w.endObject();
    }
  }

  w.endArray();
  w.endObject();
  out << "\n";
}

void TraceRecorder::writeSummary(std::ostream& out) const {
  // Rebuild the span hierarchy per thread lane: sort by (ts asc, dur
  // desc) and stack by containment, so a child's path is
  // "<parent path>/<name>". Aggregation is over full paths.
  struct PathStats {
    Histogram durationsUs{std::vector<double>{}};
    double totalUs = 0;
  };
  std::map<std::string, PathStats> byPath;
  std::size_t spanCount = 0;
  std::size_t laneCount = 0;

  for (const auto& buf : snapshotBuffers()) {
    std::vector<TraceEvent> spans;
    {
      std::lock_guard<std::mutex> lock(buf->mutex);
      for (const auto& ev : buf->events) {
        if (ev.kind == TraceEvent::Kind::Span) {
          spans.push_back(ev);
        } else if (ev.kind == TraceEvent::Kind::AsyncSpan) {
          // Cross-thread spans have no lane parent — aggregate them as
          // roots under their own name.
          auto& stats = byPath[ev.name];
          const double durUs = static_cast<double>(ev.durNs) / 1000.0;
          stats.durationsUs.record(durUs);
          stats.totalUs += durUs;
          ++spanCount;
        }
      }
    }
    if (spans.empty()) continue;
    ++laneCount;
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.tsNs != b.tsNs) return a.tsNs < b.tsNs;
                       return a.durNs > b.durNs;
                     });
    struct Open {
      std::int64_t endNs;
      std::string path;
    };
    std::vector<Open> stack;
    for (const auto& ev : spans) {
      while (!stack.empty() && ev.tsNs >= stack.back().endNs) stack.pop_back();
      std::string path = stack.empty()
                             ? std::string(ev.name)
                             : stack.back().path + "/" + ev.name;
      auto& stats = byPath[path];
      const double durUs = static_cast<double>(ev.durNs) / 1000.0;
      stats.durationsUs.record(durUs);
      stats.totalUs += durUs;
      ++spanCount;
      stack.push_back(Open{ev.tsNs + ev.durNs, std::move(path)});
    }
  }

  out << "trace summary: " << spanCount << " spans across " << laneCount
      << " thread lanes\n";
  if (byPath.empty()) return;

  // The name column is as wide as the longest path (at least 44), so the
  // numeric columns line up however deeply spans nest.
  std::size_t nameWidth = 44;
  for (const auto& [path, stats] : byPath)
    nameWidth = std::max(nameWidth, path.size());
  const int width = static_cast<int>(nameWidth);
  const std::ios_base::fmtflags flags = out.flags();
  const std::streamsize precision = out.precision();
  out << std::left << std::setw(width) << "span" << std::right << ' '
      << std::setw(9) << "count" << ' ' << std::setw(12) << "total ms" << ' '
      << std::setw(12) << "mean ms" << ' ' << std::setw(12) << "p99 ms"
      << '\n'
      << std::fixed << std::setprecision(3);
  for (const auto& [path, stats] : byPath) {
    // Full paths keep rows greppable ("solve.variant/greedy"); the map's
    // lexicographic order already lists children right after their parent.
    out << std::left << std::setw(width) << path << std::right << ' '
        << std::setw(9) << stats.durationsUs.count() << ' ' << std::setw(12)
        << stats.totalUs / 1000.0 << ' ' << std::setw(12)
        << stats.durationsUs.mean() / 1000.0 << ' ' << std::setw(12)
        << stats.durationsUs.percentile(0.99) / 1000.0 << '\n';
  }
  out.flags(flags);
  out.precision(precision);
}

void TraceScope::begin(const char* name) {
  name_ = name;
  auto& recorder = TraceRecorder::global();
  recording_ = recorder.state() == TraceState::Recording;
  startNs_ = recorder.nowNs();
}

void TraceScope::end() {
  auto& recorder = TraceRecorder::global();
  const std::int64_t endNs = recorder.nowNs();
  if (recording_) {
    recorder.recordSpan(name_, startNs_, endNs - startNs_, std::move(args_));
  }
}

void TraceScope::arg(const char* key, const std::string& value) {
  if (!recording_) return;
  args_.push_back(TraceArg{key, value, true});
}

void TraceScope::arg(const char* key, std::int64_t value) {
  if (!recording_) return;
  args_.push_back(TraceArg{key, std::to_string(value), false});
}

void TraceScope::arg(const char* key, double value) {
  if (!recording_) return;
  args_.push_back(TraceArg{key, jsonNumber(value), false});
}

void traceInstant(const char* name) {
  if (!traceRecording()) return;
  TraceRecorder::global().recordInstant(name);
}

void traceCounter(const char* name, double value) {
  if (!traceRecording()) return;
  TraceRecorder::global().recordCounter(name, value);
}

void traceSpanBetween(const char* name,
                      std::chrono::steady_clock::time_point begin,
                      std::chrono::steady_clock::time_point end,
                      std::vector<TraceArg> args) {
  if (!traceRecording()) return;
  auto& recorder = TraceRecorder::global();
  const std::int64_t tsNs = recorder.toEpochNs(begin);
  recorder.recordSpan(name, tsNs, recorder.toEpochNs(end) - tsNs,
                      std::move(args));
}

void traceAsyncSpanBetween(const char* name, std::uint64_t id,
                           std::chrono::steady_clock::time_point begin,
                           std::chrono::steady_clock::time_point end,
                           std::vector<TraceArg> args) {
  if (!traceRecording()) return;
  auto& recorder = TraceRecorder::global();
  const std::int64_t tsNs = recorder.toEpochNs(begin);
  recorder.recordAsyncSpan(name, id, tsNs, recorder.toEpochNs(end) - tsNs,
                           std::move(args));
}

void traceSetThreadName(const std::string& name) {
  TraceRecorder::global().setThreadName(name);
}

} // namespace cawo::obs
