// The serve wire layer end to end (src/serve): every request kind
// round-trips through exp/json; malformed, oversized and unknown-kind
// input is rejected with a structured error (never a crash, never an
// empty `error` code); a cached-context solve returns the bit-identical
// schedule of a cold solve; backpressure (queue_full) and cooperative
// timeouts are pinned deterministically via the worker-start hook; and
// the `list` request returns byte-for-byte the CLI listing text.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/json.hpp"
#include "serve/context_cache.hpp"
#include "serve/listings.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "solver/registry.hpp"

namespace cawo {
namespace {

/// Submit one line and block until its (possibly worker-thread) response.
std::string submitAndWait(ServeServer& server, const std::string& line) {
  std::mutex mutex;
  std::condition_variable cv;
  std::string response;
  bool got = false;
  server.submitLine(line, [&](const std::string& r) {
    // Notify while still holding the lock: the waiter owns cv and the
    // flag on its stack, so it must not be able to wake, return and
    // destroy them between our unlock and the notify.
    const std::scoped_lock lock(mutex);
    response = r;
    got = true;
    cv.notify_one();
  });
  std::unique_lock lock(mutex);
  cv.wait(lock, [&] { return got; });
  return response;
}

JsonValue submitParsed(ServeServer& server, const std::string& line) {
  return JsonValue::parse(submitAndWait(server, line));
}

void expectEnvelope(const JsonValue& doc, const std::string& id,
                    const std::string& kind, bool ok) {
  ASSERT_EQ(doc.kind(), JsonValue::Kind::Object);
  EXPECT_EQ(doc.at("schema").asString(), "cawosched-serve-v1");
  EXPECT_EQ(doc.at("id").asString(), id);
  EXPECT_EQ(doc.at("kind").asString(), kind);
  EXPECT_EQ(doc.at("ok").asBool(), ok);
  if (ok) {
    EXPECT_EQ(doc.at("error").asString(), "");
    EXPECT_EQ(doc.at("result").kind(), JsonValue::Kind::Object);
  } else {
    EXPECT_FALSE(doc.at("error").asString().empty())
        << "error responses must carry a nonzero code";
    EXPECT_TRUE(doc.at("result").isNull());
    EXPECT_FALSE(doc.at("message").asString().empty());
  }
}

ServeOptions smallOptions() {
  ServeOptions options;
  options.workers = 2;
  options.solverDefaults.setInt("block-size", 3);
  options.solverDefaults.setInt("ls-radius", 10);
  return options;
}

const char* kSolveLine =
    "{\"kind\":\"solve\",\"id\":\"s1\",\"family\":\"atacseq\","
    "\"tasks\":30,\"intervals\":8,\"deadline_factor\":2.0,"
    "\"algo\":\"pressWR-LS\",\"return_schedule\":true}";

TEST(RequestParser, ParsesEveryKindWithTypedFields) {
  const RequestParser parser;

  const ServeRequest solve = parser.parse(
      "{\"schema\":\"cawosched-serve-v1\",\"kind\":\"solve\",\"id\":\"a\","
      "\"family\":\"eager\",\"tasks\":40,\"nodes_per_type\":3,"
      "\"scenario\":\"S3\",\"deadline_factor\":1.5,\"seed\":7,"
      "\"intervals\":12,\"algo\":\"slack\",\"timeout_ms\":250,"
      "\"return_schedule\":true,\"options\":{\"block-size\":4,"
      "\"alpha\":0.25,\"mode\":\"fast\"}}");
  EXPECT_EQ(solve.kind, ServeRequest::Kind::Solve);
  EXPECT_EQ(solve.id, "a");
  EXPECT_EQ(familyName(solve.spec.family), std::string("eager"));
  EXPECT_EQ(solve.spec.targetTasks, 40);
  EXPECT_EQ(solve.spec.nodesPerType, 3);
  EXPECT_EQ(solve.spec.scenario, "S3");
  EXPECT_DOUBLE_EQ(solve.spec.deadlineFactor, 1.5);
  EXPECT_EQ(solve.spec.seed, 7u);
  EXPECT_EQ(solve.spec.numIntervals, 12);
  EXPECT_EQ(solve.algo, "slack");
  EXPECT_EQ(solve.timeoutMs, 250);
  EXPECT_TRUE(solve.returnSchedule);
  EXPECT_EQ(solve.options.getInt("block-size", 0), 4);
  EXPECT_DOUBLE_EQ(solve.options.getDouble("alpha", 0), 0.25);
  EXPECT_EQ(solve.options.getString("mode", ""), "fast");

  const ServeRequest replay = parser.parse(
      "{\"kind\":\"replay\",\"id\":\"b\",\"policy\":\"periodic:every=4\","
      "\"actual\":\"S2\",\"runtime_noise\":0.1,\"runtime_seed\":9}");
  EXPECT_EQ(replay.kind, ServeRequest::Kind::Replay);
  EXPECT_EQ(replay.policy, "periodic:every=4");
  EXPECT_EQ(replay.actual, "S2");
  EXPECT_DOUBLE_EQ(replay.runtimeNoise, 0.1);
  EXPECT_EQ(replay.runtimeSeed, 9u);

  EXPECT_EQ(parser.parse("{\"kind\":\"list\",\"what\":\"scenarios\"}").what,
            "scenarios");
  EXPECT_EQ(parser.parse("{\"kind\":\"stats\"}").kind,
            ServeRequest::Kind::Stats);
  EXPECT_EQ(parser.parse("{\"kind\":\"shutdown\"}").kind,
            ServeRequest::Kind::Shutdown);
}

TEST(RequestParser, RejectsHostileInputWithStructuredErrors) {
  const RequestParser parser(128); // tiny oversize cap for the test

  const auto code = [&parser](const std::string& line) {
    try {
      (void)parser.parse(line);
      return std::string("(accepted)");
    } catch (const ServeError& e) {
      return e.code();
    }
  };

  EXPECT_EQ(code(std::string(200, ' ') + "{}"), "oversized");
  EXPECT_EQ(code("{\"kind\": nope}"), "parse_error");
  EXPECT_EQ(code("[1,2,3]"), "parse_error");
  EXPECT_EQ(code("{\"kind\":\"frobnicate\"}"), "unknown_kind");
  EXPECT_EQ(code("{}"), "bad_request"); // missing kind
  EXPECT_EQ(code("{\"kind\":\"solve\",\"tasks\":\"many\"}"), "bad_request");
  EXPECT_EQ(code("{\"kind\":\"solve\",\"tasks\":0}"), "bad_request");
  EXPECT_EQ(code("{\"kind\":\"solve\",\"deadline_factor\":0.5}"),
            "bad_request");
  EXPECT_EQ(code("{\"kind\":\"solve\",\"timeout_ms\":-1}"), "bad_request");
  EXPECT_EQ(code("{\"kind\":\"solve\",\"policy\":\"static\"}"),
            "bad_request"); // replay-only key on a solve
  EXPECT_EQ(code("{\"kind\":\"list\",\"what\":\"everything\"}"),
            "bad_request");
  EXPECT_EQ(code("{\"kind\":\"stats\",\"tasks\":3}"), "bad_request");
  EXPECT_EQ(code("{\"schema\":\"v0\",\"kind\":\"stats\"}"), "bad_request");

  // Best-effort id/kind attachment for correlating error responses.
  try {
    (void)parser.parse("{\"kind\":\"solve\",\"id\":\"x9\",\"nope\":1}");
    FAIL();
  } catch (const ServeError& e) {
    EXPECT_EQ(e.requestId(), "x9");
    EXPECT_EQ(e.requestKind(), "solve");
  }
}

TEST(ServeServer, EveryKindRoundTripsThroughJson) {
  ServeServer server(smallOptions());

  const JsonValue solve = submitParsed(server, kSolveLine);
  expectEnvelope(solve, "s1", "solve", true);
  const JsonValue& result = solve.at("result");
  EXPECT_EQ(result.at("instance").asString(), "atacseq-30/c2/S1/d2.0");
  EXPECT_EQ(result.at("instance_hash").asString().size(), 16u);
  EXPECT_FALSE(result.at("cache_hit").asBool());
  EXPECT_TRUE(result.at("feasible").asBool());
  EXPECT_GE(result.at("cost").asInt(), 0);
  EXPECT_GT(result.at("num_nodes").asInt(), 30);
  EXPECT_EQ(result.at("schedule").asArray().size(),
            static_cast<std::size_t>(result.at("num_nodes").asInt()));

  const JsonValue replay = submitParsed(
      server,
      "{\"kind\":\"replay\",\"id\":\"r1\",\"family\":\"atacseq\","
      "\"tasks\":30,\"intervals\":8,\"deadline_factor\":2.0,"
      "\"policy\":\"static\",\"actual\":\"S2\"}");
  expectEnvelope(replay, "r1", "replay", true);
  EXPECT_EQ(replay.at("result").at("policy").asString(), "static");
  EXPECT_EQ(replay.at("result").at("actual").asString(), "S2");
  EXPECT_TRUE(replay.at("result").at("cache_hit").asBool())
      << "the replay reuses the instance the solve just built";
  EXPECT_TRUE(replay.at("result").at("deadline_met").asBool());

  const JsonValue list =
      submitParsed(server, "{\"kind\":\"list\",\"id\":\"l1\"}");
  expectEnvelope(list, "l1", "list", true);
  // The wire shares the CLI's listing rendering byte for byte.
  EXPECT_EQ(list.at("result").at("text").asString(), algoListing().text);
  EXPECT_EQ(list.at("result").at("names").asArray().size(),
            SolverRegistry::global().names().size());

  const JsonValue stats =
      submitParsed(server, "{\"kind\":\"stats\",\"id\":\"t1\"}");
  expectEnvelope(stats, "t1", "stats", true);
  EXPECT_EQ(stats.at("result").at("completed").asInt(), 2);
  EXPECT_EQ(stats.at("result").at("cache_misses").asInt(), 1);
  EXPECT_EQ(stats.at("result").at("cache_hits").asInt(), 1);
  EXPECT_EQ(stats.at("result").at("latency").at("count").asInt(), 2);

  const JsonValue shutdown =
      submitParsed(server, "{\"kind\":\"shutdown\",\"id\":\"z1\"}");
  expectEnvelope(shutdown, "z1", "shutdown", true);
  EXPECT_TRUE(shutdown.at("result").at("stopping").asBool());
  EXPECT_TRUE(server.stopping());

  // After shutdown: solve/replay are refused, stats still answers.
  const JsonValue refused = submitParsed(server, kSolveLine);
  expectEnvelope(refused, "s1", "solve", false);
  EXPECT_EQ(refused.at("error").asString(), "shutting_down");
  expectEnvelope(submitParsed(server, "{\"kind\":\"stats\"}"), "", "stats",
                 true);
}

TEST(ServeServer, StatsDetailFullAppendsObsExtrasAfterStableKeys) {
  ServeServer server(smallOptions());
  expectEnvelope(submitParsed(server, kSolveLine), "s1", "solve", true);

  // The basic stats envelope is byte-stable: exactly these keys, in
  // exactly this order — clients pin on it.
  const std::vector<std::string> basicKeys = {
      "received",      "completed",     "failed",
      "rejected_queue_full",            "timeouts",
      "queue_depth",   "queue_capacity", "workers",
      "busy",          "cache_hits",    "cache_misses",
      "cache_evictions",               "cache_size",
      "cache_capacity", "latency"};
  const JsonValue basic =
      submitParsed(server, "{\"kind\":\"stats\",\"id\":\"b\"}");
  expectEnvelope(basic, "b", "stats", true);
  EXPECT_EQ(basic.at("result").objectKeys(), basicKeys);

  // detail:"full" appends the obs extras — same prefix, three more keys.
  const JsonValue full = submitParsed(
      server, "{\"kind\":\"stats\",\"id\":\"f\",\"detail\":\"full\"}");
  expectEnvelope(full, "f", "stats", true);
  std::vector<std::string> fullKeys = basicKeys;
  fullKeys.push_back("queue_wait");
  fullKeys.push_back("latency_histogram");
  fullKeys.push_back("queue_wait_histogram");
  EXPECT_EQ(full.at("result").objectKeys(), fullKeys);

  // The queue-wait block mirrors the latency block's shape, and the
  // histograms partition the completed requests across the bounds.
  const JsonValue& queueWait = full.at("result").at("queue_wait");
  EXPECT_EQ(queueWait.objectKeys(), full.at("result").at("latency").objectKeys());
  EXPECT_EQ(queueWait.at("count").asInt(), 1);
  const JsonValue& histogram = full.at("result").at("latency_histogram");
  const auto& bounds = histogram.at("bounds_ms").asArray();
  const auto& counts = histogram.at("counts").asArray();
  ASSERT_FALSE(bounds.empty());
  ASSERT_EQ(counts.size(), bounds.size() + 1);
  std::int64_t total = 0;
  for (const JsonValue& c : counts) total += c.asInt();
  EXPECT_EQ(total, 1);

  // Any other detail value is a structured rejection.
  const JsonValue bad = submitParsed(
      server, "{\"kind\":\"stats\",\"id\":\"x\",\"detail\":\"verbose\"}");
  expectEnvelope(bad, "x", "stats", false);
  EXPECT_EQ(bad.at("error").asString(), "bad_request");
}

TEST(ServeServer, MalformedInputYieldsErrorResponsesNotCrashes) {
  ServeOptions options = smallOptions();
  options.maxRequestBytes = 256;
  ServeServer server(options);

  const auto errorOf = [&](const std::string& line) {
    const JsonValue doc = submitParsed(server, line);
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_TRUE(doc.at("result").isNull());
    return doc.at("error").asString();
  };

  EXPECT_EQ(errorOf("{\"kind\":\"solve\"" + std::string(300, ' ') + "}"),
            "oversized");
  EXPECT_EQ(errorOf("not json at all"), "parse_error");
  EXPECT_EQ(errorOf("{\"kind\":\"frobnicate\",\"id\":\"q\"}"),
            "unknown_kind");
  EXPECT_EQ(errorOf("{\"kind\":\"solve\",\"nope\":1}"), "bad_request");
  // Unknown solver and unknown scenario travel through the worker path.
  EXPECT_EQ(errorOf("{\"kind\":\"solve\",\"algo\":\"no-such-solver\"}"),
            "bad_request");
  EXPECT_EQ(errorOf("{\"kind\":\"solve\",\"scenario\":\"no:such,spec\"}"),
            "bad_request");
  EXPECT_EQ(
      errorOf("{\"kind\":\"replay\",\"policy\":\"no-such-policy\"}"),
      "bad_request");
  EXPECT_EQ(
      errorOf("{\"kind\":\"replay\",\"policy\":\"periodic:every\"}"),
      "bad_request");
  // Spec numbers must be finite: a NaN phase would bill everything brown.
  const JsonValue nanActual = submitParsed(
      server, "{\"kind\":\"replay\",\"actual\":\"sine:phase=nan\"}");
  EXPECT_EQ(nanActual.at("error").asString(), "bad_request");
  EXPECT_NE(nanActual.at("message").asString().find(
                "spec \"sine:phase=nan\": parameter \"phase\""),
            std::string::npos)
      << nanActual.at("message").asString();
  // Solver options parse strictly, and the message names the option.
  const JsonValue badOption = submitParsed(
      server, "{\"kind\":\"solve\",\"options\":{\"block-size\":\"3x\"}}");
  EXPECT_EQ(badOption.at("error").asString(), "bad_request");
  EXPECT_NE(badOption.at("message").asString().find(
                "solver option \"block-size\": \"3x\" is not an integer"),
            std::string::npos)
      << badOption.at("message").asString();
  EXPECT_EQ(
      errorOf("{\"kind\":\"solve\",\"options\":{\"ls-radius\":2.5}}"),
      "bad_request");
  // deadline_factor × ASAP makespan 195 = 2^32, past the largest supported
  // horizon: a structured rejection, not a crash.
  const JsonValue huge = submitParsed(
      server,
      "{\"kind\":\"solve\",\"id\":\"x\",\"tasks\":30,\"intervals\":8,"
      "\"deadline_factor\":22025473.312820513,\"algo\":\"pressWR\"}");
  EXPECT_EQ(huge.at("error").asString(), "bad_request");
  EXPECT_NE(huge.at("message").asString().find(
                "deadline 4294967296 (deadline factor 22025473.312820513 × "
                "ASAP makespan 195) exceeds the largest supported horizon "
                "2147483647"),
            std::string::npos)
      << huge.at("message").asString();

  // The server still works after all that.
  expectEnvelope(submitParsed(server, kSolveLine), "s1", "solve", true);
}

TEST(ServeServer, CachedSolveIsBitIdenticalToColdSolve) {
  ServeServer server(smallOptions());

  const JsonValue cold = submitParsed(server, kSolveLine);
  const JsonValue hot = submitParsed(server, kSolveLine);
  expectEnvelope(cold, "s1", "solve", true);
  expectEnvelope(hot, "s1", "solve", true);
  EXPECT_FALSE(cold.at("result").at("cache_hit").asBool());
  EXPECT_TRUE(hot.at("result").at("cache_hit").asBool())
      << "the repeated instance must skip the SolveContext rebuild";
  EXPECT_EQ(cold.at("result").at("instance_hash").asString(),
            hot.at("result").at("instance_hash").asString());
  EXPECT_EQ(cold.at("result").at("cost").asInt(),
            hot.at("result").at("cost").asInt());

  const std::vector<JsonValue>& coldStarts =
      cold.at("result").at("schedule").asArray();
  const std::vector<JsonValue>& hotStarts =
      hot.at("result").at("schedule").asArray();
  ASSERT_EQ(coldStarts.size(), hotStarts.size());
  for (std::size_t i = 0; i < coldStarts.size(); ++i)
    ASSERT_EQ(coldStarts[i].asInt(), hotStarts[i].asInt())
        << "start of node " << i
        << " differs between cold and cached solves";
}

TEST(ServeServer, ThreadsOptionIsAnIgnoredUnknownKey) {
  // A solve runs on its worker's thread: a "threads" key in the options
  // bag changes nothing, multi-start local search included.
  ServeServer server(smallOptions());
  const std::string head =
      "{\"kind\":\"solve\",\"id\":\"r\",\"tasks\":30,\"intervals\":24,"
      "\"deadline_factor\":1.2,\"algo\":\"pressWR-LS\","
      "\"return_schedule\":true,\"options\":{\"ls-restarts\":3,"
      "\"ls-seed\":7";
  const JsonValue plain = submitParsed(server, head + "}}");
  const JsonValue threaded =
      submitParsed(server, head + ",\"threads\":8}}");
  expectEnvelope(plain, "r", "solve", true);
  expectEnvelope(threaded, "r", "solve", true);
  EXPECT_EQ(threaded.at("result").at("cost").asInt(),
            plain.at("result").at("cost").asInt());
  const std::vector<JsonValue>& a = plain.at("result").at("schedule").asArray();
  const std::vector<JsonValue>& b =
      threaded.at("result").at("schedule").asArray();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i].asInt(), b[i].asInt()) << "start of node " << i;
}

TEST(ServeServer, QueueFullRejectsWithBackpressure) {
  // One worker held at the gate, queue capacity 1: the first job
  // occupies the worker, the second fills the queue, the third bounces.
  // A requested capacity of 0 is enforced (and reported) as 1.
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE("queue capacity " + std::to_string(capacity));
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    ServeOptions options = smallOptions();
    options.workers = 1;
    options.queueCapacity = capacity;
    options.workerStartHook = [&] {
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return open; });
    };
    ServeServer server(options);
    EXPECT_EQ(server.stats().queueCapacity, 1u);

    std::vector<std::string> async(2);
    server.submitLine(kSolveLine,
                      [&](const std::string& r) { async[0] = r; });
    // Wait for the worker to actually pick job 1 up (block in the hook) so
    // job 2 deterministically lands in the queue.
    while (server.stats().busy == 0) std::this_thread::yield();
    server.submitLine(kSolveLine,
                      [&](const std::string& r) { async[1] = r; });

    const JsonValue rejected = submitParsed(server, kSolveLine);
    expectEnvelope(rejected, "s1", "solve", false);
    EXPECT_EQ(rejected.at("error").asString(), "queue_full");
    EXPECT_NE(rejected.at("message").asString().find("at capacity (1 "),
              std::string::npos)
        << rejected.at("message").asString();

    {
      const std::scoped_lock lock(mutex);
      open = true;
    }
    cv.notify_all();
    server.drain();
    for (const std::string& r : async) {
      const JsonValue doc = JsonValue::parse(r);
      expectEnvelope(doc, "s1", "solve", true);
    }
    EXPECT_EQ(server.stats().rejectedQueueFull, 1);
  }
}

TEST(ServeServer, ExpiredDeadlineTimesOutCooperatively) {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  ServeOptions options = smallOptions();
  options.workers = 1;
  options.workerStartHook = [&] {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return open; });
  };
  ServeServer server(options);

  std::string response;
  std::mutex responseMutex;
  std::condition_variable responseCv;
  server.submitLine(
      "{\"kind\":\"solve\",\"id\":\"late\",\"tasks\":30,"
      "\"intervals\":8,\"timeout_ms\":1}",
      [&](const std::string& r) {
        {
          const std::scoped_lock lock(responseMutex);
          response = r;
        }
        responseCv.notify_one();
      });
  // Hold the worker well past the 1 ms deadline, then release.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    const std::scoped_lock lock(mutex);
    open = true;
  }
  cv.notify_all();
  {
    std::unique_lock lock(responseMutex);
    responseCv.wait(lock, [&] { return !response.empty(); });
  }
  const JsonValue doc = JsonValue::parse(response);
  expectEnvelope(doc, "late", "solve", false);
  EXPECT_EQ(doc.at("error").asString(), "timeout");
  EXPECT_EQ(server.stats().timeouts, 1);
}

TEST(ContextCache, LruEvictsAndCountsAcrossSpecs) {
  ContextCache cache(1);
  InstanceSpec a;
  a.targetTasks = 20;
  a.numIntervals = 8;
  InstanceSpec b = a;
  b.seed = 2; // differs only in an axis label() omits — specKey must see it
  EXPECT_NE(ContextCache::specKey(a), ContextCache::specKey(b));

  bool hit = true;
  const auto ea = cache.acquire(a, &hit);
  EXPECT_FALSE(hit);
  cache.acquire(a, &hit);
  EXPECT_TRUE(hit);
  cache.acquire(b, &hit); // capacity 1: evicts a
  EXPECT_FALSE(hit);
  cache.acquire(a, &hit);
  EXPECT_FALSE(hit) << "a was evicted by b in a capacity-1 cache";

  const ContextCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.hits, 1);
  EXPECT_EQ(counters.misses, 3);
  EXPECT_EQ(counters.evictions, 2);
  EXPECT_EQ(counters.size, 1u);
  // Evicted entries stay alive for holders of the shared_ptr.
  EXPECT_GT(ea->instance.gc.numNodes(), 0);
}

TEST(ResponseWriter, EnvelopeKeyOrderIsPinned) {
  const ResponseWriter writer("id7", "solve");
  const JsonValue ok = JsonValue::parse(
      writer.ok([](JsonWriter& w) { w.key("x").value(1); }));
  EXPECT_EQ(ok.objectKeys(),
            (std::vector<std::string>{"schema", "id", "kind", "ok", "error",
                                      "result"}));
  const JsonValue err = JsonValue::parse(writer.error("bad_request", "m"));
  EXPECT_EQ(err.objectKeys(),
            (std::vector<std::string>{"schema", "id", "kind", "ok", "error",
                                      "message", "result"}));
}

} // namespace
} // namespace cawo
