#include "serve/server.hpp"

#include <algorithm>
#include <utility>

#include "core/instance_hash.hpp"
#include "obs/trace.hpp"
#include "online/policy.hpp"
#include "online/replay.hpp"
#include "online/result_json.hpp"
#include "serve/listings.hpp"
#include "solver/registry.hpp"
#include "util/require.hpp"

namespace cawo {

namespace {

double millisBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Fill one ServeStats::Latency block from an obs::Histogram. The
/// nearest-rank percentiles are byte-stable with the hand-rolled code
/// this replaced (Histogram pins the same formula).
void fillLatency(const obs::Histogram& h, ServeStats::Latency& out) {
  out.count = h.count();
  if (out.count == 0) return;
  out.meanMs = h.mean();
  out.p50Ms = h.percentile(0.50);
  out.p99Ms = h.percentile(0.99);
  out.p999Ms = h.percentile(0.999);
  out.maxMs = h.max();
}

/// Record the per-request span tree once a job is fully answered:
/// `serve.request` spans admission → respond, with `serve.queue_wait`
/// (admission → pickup) as its first child. Both go on a per-request
/// nestable-async track: a request's queue time overlaps whatever the
/// worker lane was doing for other requests, so thread-lane complete
/// events cannot represent it. The handling window (pickup → respond)
/// additionally gets a `serve.handle` span on the worker lane, parenting
/// the cache-acquire / solve / respond child spans recorded inline.
void recordRequestSpans(const ServeRequest& request, const char* kind,
                        std::chrono::steady_clock::time_point admitted,
                        std::chrono::steady_clock::time_point pickedUp) {
  if (!obs::traceRecording()) return;
  const auto finished = std::chrono::steady_clock::now();
  static std::atomic<std::uint64_t> nextTrack{1};
  const std::uint64_t track =
      nextTrack.fetch_add(1, std::memory_order_relaxed);
  std::vector<obs::TraceArg> args;
  args.push_back(obs::TraceArg{"id", request.id, true});
  args.push_back(obs::TraceArg{"kind", kind, true});
  args.push_back(obs::TraceArg{"solver", request.algo, true});
  obs::traceAsyncSpanBetween("serve.request", track, admitted, finished,
                             std::move(args));
  obs::traceAsyncSpanBetween("serve.queue_wait", track, admitted, pickedUp);
  obs::traceSpanBetween("serve.handle", pickedUp, finished);
}

} // namespace

ServeServer::ServeServer(const ServeOptions& options)
    : options_(options),
      parser_(options.maxRequestBytes),
      cache_(options.cacheCapacity),
      pool_(options.workers, options.queueCapacity) {}

ServeServer::~ServeServer() {
  // Stop the pool while every member the jobs touch is still alive.
  pool_.stop();
}

void ServeServer::submitLine(const std::string& line, Responder respond) {
  {
    const std::scoped_lock lock(statsMutex_);
    ++received_;
  }

  ServeRequest request;
  try {
    request = parser_.parse(line);
  } catch (const ServeError& e) {
    respondError(respond, e.requestId(), e.requestKind(), e.code(),
                 e.what());
    return;
  }

  const std::string kindName = serveKindName(request.kind);
  switch (request.kind) {
    case ServeRequest::Kind::List: {
      Listing listing;
      try {
        listing = listingFor(request.what);
      } catch (const PreconditionError& e) {
        respondError(respond, request.id, kindName, "bad_request", e.what());
        return;
      }
      const ResponseWriter writer(request.id, kindName);
      respond(writer.ok([&](JsonWriter& w) {
        w.key("what").value(request.what);
        w.key("names");
        w.beginArray();
        for (const std::string& name : listing.names) w.value(name);
        w.endArray();
        w.key("text").value(listing.text);
      }));
      return;
    }

    case ServeRequest::Kind::Stats: {
      const ServeStats s = stats();
      const ResponseWriter writer(request.id, kindName);
      respond(writer.ok([&](JsonWriter& w) {
        w.key("received").value(s.received);
        w.key("completed").value(s.completed);
        w.key("failed").value(s.failed);
        w.key("rejected_queue_full").value(s.rejectedQueueFull);
        w.key("timeouts").value(s.timeouts);
        w.key("queue_depth")
            .value(static_cast<std::int64_t>(s.queueDepth));
        w.key("queue_capacity")
            .value(static_cast<std::int64_t>(s.queueCapacity));
        w.key("workers").value(static_cast<std::int64_t>(s.workers));
        w.key("busy").value(static_cast<std::int64_t>(s.busy));
        w.key("cache_hits").value(s.cache.hits);
        w.key("cache_misses").value(s.cache.misses);
        w.key("cache_evictions").value(s.cache.evictions);
        w.key("cache_size").value(static_cast<std::int64_t>(s.cache.size));
        w.key("cache_capacity")
            .value(static_cast<std::int64_t>(s.cache.capacity));
        w.key("latency");
        w.beginObject();
        w.key("count").value(s.latency.count);
        w.key("mean_ms").value(s.latency.meanMs);
        w.key("p50_ms").value(s.latency.p50Ms);
        w.key("p99_ms").value(s.latency.p99Ms);
        w.key("p999_ms").value(s.latency.p999Ms);
        w.key("max_ms").value(s.latency.maxMs);
        w.endObject();
        // Everything above is byte-stable; detail:"full" only appends.
        if (request.detail == "full") {
          w.key("queue_wait");
          w.beginObject();
          w.key("count").value(s.queueWait.count);
          w.key("mean_ms").value(s.queueWait.meanMs);
          w.key("p50_ms").value(s.queueWait.p50Ms);
          w.key("p99_ms").value(s.queueWait.p99Ms);
          w.key("p999_ms").value(s.queueWait.p999Ms);
          w.key("max_ms").value(s.queueWait.maxMs);
          w.endObject();
          w.key("latency_histogram");
          w.beginObject();
          w.key("bounds_ms");
          w.beginArray();
          for (const double b : s.latencyBoundsMs) w.value(b);
          w.endArray();
          w.key("counts");
          w.beginArray();
          for (const std::int64_t c : s.latencyBuckets) w.value(c);
          w.endArray();
          w.endObject();
          w.key("queue_wait_histogram");
          w.beginObject();
          w.key("bounds_ms");
          w.beginArray();
          for (const double b : s.latencyBoundsMs) w.value(b);
          w.endArray();
          w.key("counts");
          w.beginArray();
          for (const std::int64_t c : s.queueWaitBuckets) w.value(c);
          w.endArray();
          w.endObject();
        }
      }));
      return;
    }

    case ServeRequest::Kind::Shutdown: {
      const ResponseWriter writer(request.id, kindName);
      respond(writer.ok(
          [&](JsonWriter& w) { w.key("stopping").value(true); }));
      requestStop();
      return;
    }

    case ServeRequest::Kind::Solve:
    case ServeRequest::Kind::Replay:
      break;
  }

  if (stopping()) {
    respondError(respond, request.id, kindName, "shutting_down",
                 "the daemon is shutting down and admits no new work");
    return;
  }

  const Clock::time_point admitted = Clock::now();
  const std::int64_t timeoutMs =
      request.timeoutMs > 0 ? request.timeoutMs : options_.defaultTimeoutMs;
  const Clock::time_point deadline =
      timeoutMs > 0 ? admitted + std::chrono::milliseconds(timeoutMs)
                    : Clock::time_point::max();

  // The job captures copies so the rejection path below still has the
  // originals to build its error response from.
  const bool queued = pool_.trySubmit(
      [this, request, respond, admitted, deadline]() {
        if (options_.workerStartHook) options_.workerStartHook();
        if (request.kind == ServeRequest::Kind::Solve)
          runSolveJob(request, respond, admitted, deadline);
        else
          runReplayJob(request, respond, admitted, deadline);
      });
  if (!queued) {
    respondError(respond, request.id, kindName, "queue_full",
                 "admission queue is at capacity (" +
                     std::to_string(pool_.capacity()) +
                     " pending jobs) — retry later");
  }
}

bool ServeServer::stopping() const {
  const std::scoped_lock lock(stopMutex_);
  return stopping_;
}

void ServeServer::waitUntilStopping() {
  std::unique_lock lock(stopMutex_);
  stopCv_.wait(lock, [this] { return stopping_; });
}

void ServeServer::requestStop() {
  {
    const std::scoped_lock lock(stopMutex_);
    stopping_ = true;
  }
  stopCv_.notify_all();
}

void ServeServer::drain() { pool_.drain(); }

ServeStats ServeServer::stats() const {
  ServeStats s;
  {
    const std::scoped_lock lock(statsMutex_);
    s.received = received_;
    s.completed = completed_;
    s.failed = failed_;
    s.rejectedQueueFull = rejectedQueueFull_;
    s.timeouts = timeouts_;
    fillLatency(latency_, s.latency);
    fillLatency(queueWait_, s.queueWait);
    s.latencyBoundsMs = latency_.bucketBounds();
    s.latencyBuckets = latency_.bucketCounts();
    s.queueWaitBuckets = queueWait_.bucketCounts();
  }
  s.queueDepth = pool_.queueDepth();
  s.queueCapacity = pool_.capacity();
  s.workers = pool_.threads();
  s.busy = pool_.busy();
  s.cache = cache_.counters();
  return s;
}

void ServeServer::runSolveJob(const ServeRequest& request,
                              const Responder& respond,
                              Clock::time_point admitted,
                              Clock::time_point deadline) {
  const Clock::time_point pickedUp = Clock::now();
  if (obs::traceRecording()) obs::traceSetThreadName("serve-worker");
  if (expired(deadline, request, respond)) return;

  bool cacheHit = false;
  ContextCache::EntryPtr entry;
  try {
    obs::TraceScope acquireSpan("serve.cache_acquire");
    entry = cache_.acquire(request.spec, &cacheHit);
    if (acquireSpan.recording())
      acquireSpan.arg("hit", static_cast<std::int64_t>(cacheHit));
  } catch (const std::exception& e) {
    respondError(respond, request.id, "solve", "bad_request", e.what());
    return;
  }
  if (expired(deadline, request, respond)) return;

  SolverPtr solver;
  try {
    solver = SolverRegistry::global().create(request.algo);
  } catch (const PreconditionError& e) {
    respondError(respond, request.id, "solve", "bad_request", e.what());
    return;
  }

  SolveResult result;
  {
    // The cached SolveContext is not thread-safe — one solve at a time
    // per entry, on this worker's thread; different entries solve
    // concurrently (see SolveContext's concurrency contract).
    const std::scoped_lock entryLock(entry->mutex);
    SolveRequest solveRequest;
    solveRequest.gc = &entry->instance.gc;
    solveRequest.profile = &entry->instance.profile;
    solveRequest.deadline = entry->instance.deadline;
    solveRequest.graph = &entry->instance.graph;
    solveRequest.platform = &entry->instance.platform;
    solveRequest.context = &entry->context;
    solveRequest.options = mergedOptions(request.options);
    try {
      result = solver->solve(solveRequest);
    } catch (const PreconditionError& e) {
      respondError(respond, request.id, "solve", "bad_request", e.what());
      return;
    } catch (const std::exception& e) {
      respondError(respond, request.id, "solve", "solver_error", e.what());
      return;
    }
  }

  const Clock::time_point done = Clock::now();
  const double queueMs = millisBetween(admitted, pickedUp);
  const double totalMs = millisBetween(admitted, done);

  // Book-keeping before responding: a client that has seen this response
  // must find it reflected in an immediately following stats request.
  {
    const std::scoped_lock lock(statsMutex_);
    ++completed_;
    latency_.record(totalMs);
    queueWait_.record(queueMs);
  }

  const ResponseWriter writer(request.id, "solve");
  const Clock::time_point respondStart = Clock::now();
  respond(writer.ok([&](JsonWriter& w) {
    w.key("instance").value(entry->instance.spec.label());
    w.key("instance_hash").value(instanceHashHex(entry->hash));
    w.key("cache_hit").value(cacheHit);
    w.key("solver").value(request.algo);
    w.key("cost").value(static_cast<std::int64_t>(result.cost));
    w.key("feasible").value(result.feasible);
    w.key("proved_optimal").value(result.provedOptimal);
    if (!result.feasible)
      w.key("validation").value(result.validation.message);
    w.key("deadline")
        .value(static_cast<std::int64_t>(entry->instance.deadline));
    w.key("asap_makespan")
        .value(static_cast<std::int64_t>(entry->instance.asapMakespanD));
    w.key("num_nodes")
        .value(static_cast<std::int64_t>(entry->instance.gc.numNodes()));
    w.key("wall_ms").value(result.wallMs);
    w.key("queue_ms").value(queueMs);
    w.key("total_ms").value(totalMs);
    if (request.returnSchedule) {
      w.key("schedule");
      w.beginArray();
      for (const Time t : result.schedule.starts())
        w.value(static_cast<std::int64_t>(t));
      w.endArray();
    }
  }));
  if (obs::traceRecording())
    obs::traceSpanBetween("serve.respond", respondStart, Clock::now());
  recordRequestSpans(request, "solve", admitted, pickedUp);
}

void ServeServer::runReplayJob(const ServeRequest& request,
                               const Responder& respond,
                               Clock::time_point admitted,
                               Clock::time_point deadline) {
  const Clock::time_point pickedUp = Clock::now();
  if (obs::traceRecording()) obs::traceSetThreadName("serve-worker");
  if (expired(deadline, request, respond)) return;

  try {
    (void)ReschedulePolicyRegistry::global().resolve(request.policy);
  } catch (const PreconditionError& e) {
    respondError(respond, request.id, "replay", "bad_request", e.what());
    return;
  }

  bool cacheHit = false;
  ContextCache::EntryPtr entry;
  try {
    obs::TraceScope acquireSpan("serve.cache_acquire");
    entry = cache_.acquire(request.spec, &cacheHit);
    if (acquireSpan.recording())
      acquireSpan.arg("hit", static_cast<std::int64_t>(cacheHit));
  } catch (const std::exception& e) {
    respondError(respond, request.id, "replay", "bad_request", e.what());
    return;
  }
  if (expired(deadline, request, respond)) return;

  OnlineOptions opts;
  opts.solver = request.algo;
  opts.policy = request.policy;
  opts.runtimeNoise = request.runtimeNoise;
  opts.runtimeSeed = request.runtimeSeed;
  opts.solverOptions = mergedOptions(request.options);

  // The shared context describes (gc, instance.profile, deadline). With an
  // explicit actual spec the replay plans against exactly that forecast,
  // so the cached context applies; with an empty spec the engine generates
  // a *fresh* forecast/actual noise pair and must build its own context.
  std::unique_lock<std::mutex> entryLock(entry->mutex, std::defer_lock);
  if (!request.actual.empty()) {
    opts.sharedContext = &entry->context;
    entryLock.lock();
  }

  OnlineResult result;
  try {
    result = replayOnline(entry->instance, request.actual, opts);
  } catch (const PreconditionError& e) {
    respondError(respond, request.id, "replay", "bad_request", e.what());
    return;
  } catch (const std::exception& e) {
    respondError(respond, request.id, "replay", "solver_error", e.what());
    return;
  }
  if (entryLock.owns_lock()) entryLock.unlock();

  if (!result.ran) {
    respondError(respond, request.id, "replay", "solver_error",
                 result.error);
    return;
  }

  const Clock::time_point done = Clock::now();
  const double queueMs = millisBetween(admitted, pickedUp);
  const double totalMs = millisBetween(admitted, done);

  // As in runSolveJob: counters updated before the client can observe
  // the response.
  {
    const std::scoped_lock lock(statsMutex_);
    ++completed_;
    latency_.record(totalMs);
    queueWait_.record(queueMs);
  }

  const ResponseWriter writer(request.id, "replay");
  const Clock::time_point respondStart = Clock::now();
  respond(writer.ok([&](JsonWriter& w) {
    w.key("instance").value(entry->instance.spec.label());
    w.key("instance_hash").value(instanceHashHex(entry->hash));
    w.key("cache_hit").value(cacheHit);
    w.key("solver").value(request.algo);
    w.key("policy").value(result.policy);
    w.key("forecast").value(request.spec.scenario);
    if (request.actual.empty()) w.key("actual").null();
    else w.key("actual").value(request.actual);
    w.key("runtime_noise").value(request.runtimeNoise);
    w.key("deadline").value(static_cast<std::int64_t>(result.deadline));
    writeOnlineResultFields(w, result);
    w.key("queue_ms").value(queueMs);
    w.key("total_ms").value(totalMs);
  }));
  if (obs::traceRecording())
    obs::traceSpanBetween("serve.respond", respondStart, Clock::now());
  recordRequestSpans(request, "replay", admitted, pickedUp);
}

bool ServeServer::expired(Clock::time_point deadline,
                          const ServeRequest& request,
                          const Responder& respond) {
  if (Clock::now() <= deadline) return false;
  respondError(respond, request.id, serveKindName(request.kind), "timeout",
               "request exceeded its deadline before solving started");
  return true;
}

SolverOptions ServeServer::mergedOptions(
    const SolverOptions& requestOptions) const {
  SolverOptions merged = options_.solverDefaults;
  for (const auto& [key, value] : requestOptions.entries())
    merged.set(key, value);
  return merged;
}

void ServeServer::respondError(const Responder& respond,
                               const std::string& id, const std::string& kind,
                               const std::string& code,
                               const std::string& message) {
  {
    const std::scoped_lock lock(statsMutex_);
    if (code == "queue_full") ++rejectedQueueFull_;
    else if (code == "timeout") ++timeouts_;
    else ++failed_;
  }
  const ResponseWriter writer(id, kind);
  respond(writer.error(code, message));
}

} // namespace cawo
