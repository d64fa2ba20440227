// The serve-mixed workload (README.md, "Workloads"): one process runs a
// ServeServer with 2 workers behind the loopback TcpServeListener and
// drives it with seeded mixed traffic, first as an open loop at a fixed
// arrival rate (latency timed from each request's due time), then as a
// closed loop of 2 clients (throughput).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/solve_context.hpp"
#include "exp/json.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "sim/instance.hpp"
#include "solver/registry.hpp"
#include "util/rng.hpp"

namespace e2e {
namespace {

using namespace cawo;

/// Workload sizes. The hot set is larger than the cache so that skewed
/// popularity, not round-robin, decides what stays cached; cold requests
/// add misses and evictions.
struct ServeSizes {
  int tasks = 300;
  int hotSet = 48;
  double zipfExponent = 0.6;
  std::size_t cacheSlots = 24;
  unsigned workers = 2;
  double rate = 80.0;      ///< open-loop arrivals per second
  double openShare = 0.55; ///< of --seconds; the closed loop gets closedShare
  double closedShare = 0.35;
  int setups = 9;          ///< set-up repetitions; setup_s is their median
  /// Rounds of (open loop, closed loop); each round's ~130 open-loop
  /// requests leave 13 beyond p90.
  int rounds = 10;
  /// Above this p99 generator lag — more than one mean inter-arrival gap
  /// at 80/s — the generator bunches arrivals and the open loop is
  /// invalid.
  double maxLagP99Ms = 20.0;
};

ServeSizes sizesFor(const RunConfig& config) {
  ServeSizes s;
  if (config.smoke) {
    s.tasks = 40;
    s.hotSet = 8;
    s.cacheSlots = 4;
    s.rate = 100.0;
    s.setups = 1;
    s.rounds = 1;
  }
  return s;
}

constexpr int kOpenLoopConnections = 16;

const char* const kFamilies[] = {"atacseq", "eager", "methylseq"};
const char* const kScenarios[] = {"S1", "S2", "S3", "S4"};

/// One generated request. Requests are a pure function of (seed, index),
/// so concurrent closed-loop clients draw the same mix in any order.
struct Request {
  enum class Kind { HotSolve, ColdSolve, Replay };
  Kind kind = Kind::HotSolve;
  InstanceSpec spec;
  std::string algo;
  std::string body; ///< JSON members after kind and id
};

std::string specMembers(const InstanceSpec& spec) {
  return "\"family\":\"" + std::string(familyName(spec.family)) +
         "\",\"tasks\":" + std::to_string(spec.targetTasks) +
         ",\"scenario\":\"" + spec.scenario +
         "\",\"deadline_factor\":" + jsonNumber(spec.deadlineFactor) +
         ",\"seed\":" + std::to_string(spec.seed) +
         ",\"intervals\":" + std::to_string(spec.numIntervals);
}

class Traffic {
public:
  Traffic(const RunConfig& config, const ServeSizes& sizes)
      : seed_(config.seed), sizes_(sizes) {
    double total = 0.0;
    for (int h = 0; h < sizes.hotSet; ++h) {
      InstanceSpec spec;
      spec.family = familyFromName(kFamilies[h % 3]);
      spec.targetTasks = sizes.tasks;
      spec.scenario = kScenarios[(h / 3) % 4];
      spec.deadlineFactor = h % 2 == 0 ? 1.5 : 2.0;
      spec.seed = config.seed * 1000000ULL + 1 + static_cast<std::uint64_t>(h);
      hot_.push_back(spec);
      total += std::pow(static_cast<double>(h + 1), -sizes.zipfExponent);
      cumulative_.push_back(total);
    }
    for (double& c : cumulative_) c /= total;
  }

  const std::vector<InstanceSpec>& hot() const { return hot_; }

  /// The i-th request of the stream: of every twenty, fourteen hot
  /// solves, five cold solves on never-seen seeds and one re-solving
  /// replay against a noisy actual, in a seeded order. Fixed proportions
  /// keep a replay (an order of magnitude dearer than a solve) from making
  /// a run's figures hinge on how many replays the dice produced, and put
  /// p90 inside the cold solves (p70-p95) rather than on the edge between
  /// two kinds of request.
  Request request(std::uint64_t i) const {
    constexpr int kBlock = 20;
    int order[kBlock];
    for (int k = 0; k < kBlock; ++k) order[k] = k < 14 ? 0 : k < 19 ? 1 : 2;
    Rng block(seed_ * 0x94d049bb133111ebULL ^ (i / kBlock + 1));
    for (int k = kBlock - 1; k > 0; --k)
      std::swap(order[k], order[block.uniformInt(0, k)]);
    const int kind = order[i % kBlock];

    Rng rng(seed_ * 0x9e3779b97f4a7c15ULL ^ (i + 1) * 0xbf58476d1ce4e5b9ULL);
    Request r;
    if (kind == 0) {
      r.kind = Request::Kind::HotSolve;
      r.spec = hot_[pickHot(rng.uniform01())];
      r.algo = "pressWR";
      r.body = specMembers(r.spec) + ",\"algo\":\"" + r.algo + "\"";
    } else if (kind == 1) {
      r.kind = Request::Kind::ColdSolve;
      r.spec.family = familyFromName(kFamilies[rng.uniformInt(0, 2)]);
      r.spec.targetTasks = sizes_.tasks;
      r.spec.scenario = kScenarios[rng.uniformInt(0, 3)];
      r.spec.deadlineFactor = rng.uniform01() < 0.5 ? 1.5 : 2.0;
      r.spec.seed = seed_ * 1000000ULL + 500000 + i;
      r.algo = "pressWR";
      r.body = specMembers(r.spec) + ",\"algo\":\"" + r.algo + "\"";
    } else {
      r.kind = Request::Kind::Replay;
      r.spec = hot_[pickHot(rng.uniform01())];
      const InstanceSpec& spec = r.spec;
      r.algo = "pressWR";
      const std::string policy = rng.uniform01() < 0.5
                                     ? "periodic:every=4"
                                     : "reactive:threshold=0.2";
      r.body = specMembers(spec) + ",\"algo\":\"" + r.algo +
               "\",\"policy\":\"" + policy + "\",\"actual\":\"" +
               spec.scenario + "+noise=0.3,seed=" +
               std::to_string(rng.uniformInt(1, 1000000)) + "\"";
    }
    return r;
  }

  static std::string line(const Request& r, const std::string& id) {
    return std::string("{\"kind\":\"") +
           (r.kind == Request::Kind::Replay ? "replay" : "solve") +
           "\",\"id\":\"" + id + "\"," + r.body + "}";
  }

private:
  std::size_t pickHot(double u) const {
    for (std::size_t h = 0; h < cumulative_.size(); ++h)
      if (u < cumulative_[h]) return h;
    return cumulative_.size() - 1;
  }

  std::uint64_t seed_;
  ServeSizes sizes_;
  std::vector<InstanceSpec> hot_;
  std::vector<double> cumulative_;
};

/// A blocking loopback client connection speaking newline-framed lines.
class Connection {
public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + errnoText());
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string why = errnoText();
      ::close(fd_);
      throw std::runtime_error("connect: " + why);
    }
    // Requests go out as soon as they are due, never coalesced.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& line) {
    const std::string payload = line + "\n";
    std::size_t done = 0;
    while (done < payload.size()) {
      const ssize_t n = ::send(fd_, payload.data() + done,
                               payload.size() - done, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send: " + errnoText());
      done += static_cast<std::size_t>(n);
    }
  }

  int fd() const { return fd_; }

  /// A complete buffered line, if any.
  bool popLine(std::string& line) {
    const std::size_t eol = buffer_.find('\n');
    if (eol == std::string::npos) return false;
    line = buffer_.substr(0, eol);
    buffer_.erase(0, eol + 1);
    return true;
  }

  /// Read what the socket holds (call when poll reports it readable).
  void receive() {
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("connection closed by the daemon");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }

  /// Next response line; throws when none arrives within a minute.
  std::string readLine() {
    std::string line;
    while (!popLine(line)) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, kReplyTimeoutMs) <= 0)
        throw std::runtime_error("no response from the daemon");
      receive();
    }
    return line;
  }

  static constexpr int kReplyTimeoutMs = 60000;

private:
  static std::string errnoText() { return std::strerror(errno); }
  int fd_ = -1;
  std::string buffer_;
};

/// The fields of one response the benchmark reads.
struct Reply {
  std::string id;
  bool ok = false;
  std::string error;
  bool cacheHit = false;
  std::int64_t cost = 0;
  bool feasible = false;
  double wallMs = 0.0;  ///< solver wall (solve)
  double queueMs = 0.0;
  double totalMs = 0.0; ///< server latency: admission → response built
  double resolveMs = 0.0;
  std::int64_t resolves = 0;
  std::int64_t resolvesAccepted = 0;
  bool deadlineMet = true;
};

Reply parseReply(const std::string& line) {
  const JsonValue doc = JsonValue::parse(line);
  Reply r;
  r.id = doc.at("id").asString();
  r.ok = doc.at("ok").asBool();
  if (!r.ok) {
    r.error = doc.at("error").asString();
    return r;
  }
  const JsonValue& res = doc.at("result");
  r.cacheHit = res.at("cache_hit").asBool();
  r.queueMs = res.at("queue_ms").asDouble();
  r.totalMs = res.at("total_ms").asDouble();
  if (doc.at("kind").asString() == "solve") {
    r.cost = res.at("cost").asInt();
    r.feasible = res.at("feasible").asBool();
    r.wallMs = res.at("wall_ms").asDouble();
  } else {
    r.cost = res.at("actual_cost").asInt();
    r.feasible = true;
    r.resolveMs = res.at("resolve_wall_ms").asDouble();
    r.resolves = res.at("resolves").asInt();
    r.resolvesAccepted = res.at("resolves_accepted").asInt();
    r.deadlineMet = res.at("deadline_met").asBool();
  }
  return r;
}

/// One request's life as the client saw it.
struct Sample {
  Request request;
  Clock::time_point due, sent, received;
  Reply reply;
};

/// A running daemon: server core + loopback listener.
struct Daemon {
  std::unique_ptr<ServeServer> server;
  std::unique_ptr<TcpServeListener> listener;
  std::int64_t sent = 0; ///< request lines sent to it, any kind

  void stop() {
    if (!server) return;
    server->drain();
    listener->stop();
    listener.reset();
    server.reset();
  }
  ~Daemon() { stop(); }
};

/// Set-up: daemon start, listener bound, hot set warmed (one solve per
/// hot instance, so later hot requests find their context cached).
void startDaemon(Daemon& daemon, const ServeSizes& sizes,
                 const Traffic& traffic) {
  ServeOptions options;
  options.workers = sizes.workers;
  options.cacheCapacity = sizes.cacheSlots;
  options.queueCapacity = 64;
  daemon.server = std::make_unique<ServeServer>(options);
  daemon.listener = std::make_unique<TcpServeListener>(*daemon.server, 0);
  Connection conn(daemon.listener->port());
  for (std::size_t h = 0; h < traffic.hot().size(); ++h) {
    conn.send("{\"kind\":\"solve\",\"id\":\"w" + std::to_string(h) + "\"," +
              specMembers(traffic.hot()[h]) + ",\"algo\":\"pressWR\"}");
    ++daemon.sent;
  }
  for (std::size_t h = 0; h < traffic.hot().size(); ++h) {
    const Reply r = parseReply(conn.readLine());
    if (!r.ok) throw std::runtime_error("warm-up solve failed: " + r.error);
  }
}

/// Open loop over requests [firstIndex, firstIndex + rate x seconds):
/// arrival times fixed from the seed (exponential gaps at `rate`), one
/// sender thread that sleeps until each due time and one
/// receiver thread; nothing waits on completions. Independent users hold
/// their own connections, so requests go round-robin over a pool of them
/// rather than being pipelined on one.
std::vector<Sample> runOpenLoop(Daemon& daemon, const Traffic& traffic,
                                const ServeSizes& sizes, double seconds,
                                std::uint64_t seed, std::uint64_t firstIndex) {
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(sizes.rate * seconds)));
  std::vector<Sample> samples(n);
  Rng arrivals(seed ^ 0xA771A7E5ULL ^ (firstIndex * 0x9e3779b97f4a7c15ULL));
  double offsetS = 0.0;
  std::vector<double> offsets(n);
  for (std::size_t i = 0; i < n; ++i) {
    offsetS += -std::log(1.0 - arrivals.uniform01()) / sizes.rate;
    offsets[i] = offsetS;
    samples[i].request = traffic.request(firstIndex + i);
  }

  std::vector<std::unique_ptr<Connection>> conns;
  for (int c = 0; c < kOpenLoopConnections; ++c)
    conns.push_back(std::make_unique<Connection>(daemon.listener->port()));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i)
    samples[i].due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offsets[i]));

  std::exception_ptr receiveError;
  std::thread receiver([&] {
    try {
      std::vector<pollfd> fds;
      for (const auto& conn : conns) fds.push_back({conn->fd(), POLLIN, 0});
      std::size_t got = 0;
      std::string line;
      while (got < n) {
        if (::poll(fds.data(), fds.size(), Connection::kReplyTimeoutMs) <= 0)
          throw std::runtime_error("no response from the daemon");
        const Clock::time_point now = Clock::now();
        for (std::size_t c = 0; c < fds.size(); ++c) {
          if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          conns[c]->receive();
          while (conns[c]->popLine(line)) {
            Reply reply = parseReply(line);
            const std::size_t i = std::stoul(reply.id.substr(1));
            samples.at(i).received = now;
            samples[i].reply = std::move(reply);
            ++got;
          }
        }
      }
    } catch (...) {
      receiveError = std::current_exception();
    }
  });
  std::exception_ptr sendError;
  try {
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(samples[i].due);
      samples[i].sent = Clock::now();
      conns[i % conns.size()]->send(
          Traffic::line(samples[i].request, "o" + std::to_string(i)));
    }
  } catch (...) {
    sendError = std::current_exception(); // the receiver then times out
  }
  receiver.join();
  if (sendError) std::rethrow_exception(sendError);
  if (receiveError) std::rethrow_exception(receiveError);
  daemon.sent += static_cast<std::int64_t>(n);
  return samples;
}

/// Closed loop: 2 client threads, each keeping one request outstanding
/// on each of its 2 connections, for `seconds`; continues the request
/// stream at `firstIndex`. Four requests in flight keep both workers
/// busy, so the figure is the daemon's capacity rather than the
/// client-daemon round trip.
std::vector<Sample> runClosedLoop(Daemon& daemon, const Traffic& traffic,
                                  double seconds, std::uint64_t firstIndex,
                                  double& wallMs) {
  constexpr int kClients = 2;
  constexpr int kConnectionsPerClient = 2;
  std::atomic<std::uint64_t> next{firstIndex};
  std::mutex mutex;
  std::vector<Sample> samples;
  std::exception_ptr error;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto client = [&] {
    try {
      std::vector<std::unique_ptr<Connection>> conns;
      std::vector<Sample> pending(kConnectionsPerClient);
      std::vector<pollfd> fds;
      const auto send = [&](int c) {
        const std::uint64_t i = next.fetch_add(1);
        pending[c] = Sample{};
        pending[c].request = traffic.request(i);
        pending[c].due = pending[c].sent = Clock::now();
        conns[c]->send(
            Traffic::line(pending[c].request, "c" + std::to_string(i)));
      };
      for (int c = 0; c < kConnectionsPerClient; ++c) {
        conns.push_back(std::make_unique<Connection>(daemon.listener->port()));
        fds.push_back({conns.back()->fd(), POLLIN, 0});
        send(c);
      }
      std::vector<Sample> mine;
      int inFlight = kConnectionsPerClient;
      std::string line;
      while (inFlight > 0) {
        if (::poll(fds.data(), fds.size(), Connection::kReplyTimeoutMs) <= 0)
          throw std::runtime_error("no response from the daemon");
        for (int c = 0; c < kConnectionsPerClient; ++c) {
          if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          conns[c]->receive();
          if (!conns[c]->popLine(line)) continue;
          pending[c].received = Clock::now();
          pending[c].reply = parseReply(line);
          mine.push_back(std::move(pending[c]));
          if (Clock::now() < end) {
            send(c);
          } else {
            fds[c].fd = -1; // poll ignores negative descriptors
            --inFlight;
          }
        }
      }
      const std::scoped_lock lock(mutex);
      samples.insert(samples.end(), mine.begin(), mine.end());
    } catch (...) {
      const std::scoped_lock lock(mutex);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  wallMs = msBetween(start, Clock::now());
  daemon.sent += static_cast<std::int64_t>(samples.size());
  if (error) std::rethrow_exception(error);
  return samples;
}

/// The daemon's own statistics over the wire (`stats`, detail "full").
JsonValue fetchStats(Daemon& daemon) {
  Connection conn(daemon.listener->port());
  conn.send("{\"kind\":\"stats\",\"id\":\"s\",\"detail\":\"full\"}");
  ++daemon.sent;
  const JsonValue doc = JsonValue::parse(conn.readLine());
  return doc.at("result");
}

/// Everything one run (untraced or traced) measured.
struct ServeRun {
  std::vector<double> setupMs;
  std::vector<Sample> open;   ///< every round's open-loop requests
  std::vector<Sample> closed; ///< every round's closed-loop requests
  std::vector<std::vector<double>> openLatencyMs; ///< per round, from due
  std::vector<double> closedRates; ///< per round, replies per second
  double closedWallMs = 0.0;       ///< Σ closed-loop wall over the rounds
  JsonValue stats;
  std::int64_t sent = 0;
};

ServeRun runOnce(const RunConfig& config, const ServeSizes& sizes,
                 const Traffic& traffic, double seconds) {
  ServeRun run;
  Daemon daemon;
  for (int k = 0; k < sizes.setups; ++k) {
    if (k > 0) {
      daemon.stop();
      daemon.sent = 0;
    }
    const Clock::time_point start = Clock::now();
    startDaemon(daemon, sizes, traffic);
    run.setupMs.push_back(msBetween(start, Clock::now()));
  }
  // The phases alternate in rounds, so each phase's rounds are spread
  // over the whole run.
  const double openSeconds =
      config.smoke ? 0.5 : sizes.openShare * seconds / sizes.rounds;
  const double closedSeconds =
      config.smoke ? 0.3 : sizes.closedShare * seconds / sizes.rounds;
  std::uint64_t next = 0;
  for (int k = 0; k < sizes.rounds; ++k) {
    const std::vector<Sample> open =
        runOpenLoop(daemon, traffic, sizes, openSeconds, config.seed, next);
    next += open.size();
    std::vector<double> latency;
    for (const Sample& s : open) latency.push_back(msBetween(s.due, s.received));
    run.openLatencyMs.push_back(std::move(latency));
    run.open.insert(run.open.end(), open.begin(), open.end());

    double wallMs = 0.0;
    const std::vector<Sample> closed =
        runClosedLoop(daemon, traffic, closedSeconds, next, wallMs);
    next += closed.size();
    run.closedRates.push_back(static_cast<double>(closed.size()) / (wallMs / 1000.0));
    run.closedWallMs += wallMs;
    run.closed.insert(run.closed.end(), closed.begin(), closed.end());
  }
  daemon.server->drain();
  run.stats = fetchStats(daemon);
  run.sent = daemon.sent;
  return run;
}

/// Output checks: every reply ok (and every replay met its deadline),
/// the daemon received exactly what was sent, and every served solve's
/// cost equals a cold Solver::solve of the same spec. Returns the carbon
/// ratio over the solved instances, each counted once: Σ served cost /
/// Σ cold ASAP cost.
double checkRun(const ServeRun& run, RunReport& report) {
  struct Served {
    InstanceSpec spec;
    std::string algo;
    std::vector<std::int64_t> costs;
  };
  std::map<std::string, Served> served; // by the request's spec members
  std::int64_t failed = 0;
  const auto visit = [&](const Sample& s) {
    if (!s.reply.ok) {
      ++failed;
      if (failed <= 3) report.problems.push_back("error reply " + s.reply.error);
      return;
    }
    if (!s.reply.feasible || !s.reply.deadlineMet) {
      ++failed;
      if (failed <= 3)
        report.problems.push_back(s.reply.feasible
                                      ? "a replay missed its deadline"
                                      : "a served schedule is infeasible");
      return;
    }
    if (s.request.kind != Request::Kind::Replay) {
      Served& entry = served[specMembers(s.request.spec)];
      entry.spec = s.request.spec;
      entry.algo = s.request.algo;
      entry.costs.push_back(s.reply.cost);
    }
  };
  for (const Sample& s : run.open) visit(s);
  for (const Sample& s : run.closed) visit(s);

  if (run.stats.at("received").asInt() != run.sent)
    report.fail("daemon received " +
                std::to_string(run.stats.at("received").asInt()) +
                " requests, the benchmark sent " + std::to_string(run.sent));

  const SolverRegistry& registry = SolverRegistry::global();
  double cost = 0.0, baseline = 0.0;
  for (const auto& [key, entry] : served) {
    const Instance instance = buildInstance(entry.spec);
    const SolveContext context(instance.gc, instance.profile,
                               instance.deadline);
    SolveRequest request;
    request.gc = &instance.gc;
    request.profile = &instance.profile;
    request.deadline = instance.deadline;
    request.graph = &instance.graph;
    request.platform = &instance.platform;
    request.context = &context;
    const SolveResult cold = registry.create(entry.algo)->solve(request);
    for (const std::int64_t served : entry.costs) {
      if (served != cold.cost) {
        ++failed;
        report.problems.push_back(entry.spec.label() + " " + entry.algo +
                                  " served cost " + std::to_string(served) +
                                  ", cold solve " + std::to_string(cold.cost));
        break;
      }
    }
    cost += static_cast<double>(cold.cost);
    baseline += static_cast<double>(registry.create("ASAP")->solve(request).cost);
  }

  report.attempted =
      static_cast<std::int64_t>(run.open.size() + run.closed.size());
  report.failed = failed;
  return baseline > 0 ? cost / baseline : 0.0;
}

std::vector<double> lagsMs(const std::vector<Sample>& open) {
  std::vector<double> out;
  for (const Sample& s : open) out.push_back(msBetween(s.due, s.sent));
  return out;
}

double throughputOf(const ServeRun& run) {
  return static_cast<double>(run.closed.size()) / (run.closedWallMs / 1000.0);
}

} // namespace

RunReport runServeMixed(const RunConfig& config) {
  const ServeSizes sizes = sizesFor(config);
  const Traffic traffic(config, sizes);
  RunReport report;

  // A traced run makes an untraced reference run first (half length each)
  // for the overhead ratio.
  const double seconds = config.trace ? 0.5 * config.seconds : config.seconds;
  const ServeRun run = runOnce(config, sizes, traffic, seconds);
  const double carbonRatio = checkRun(run, report);

  const auto checkLag = [&](const ServeRun& r, double carbon) {
    const double lagP99 = percentile(lagsMs(r.open), 0.99);
    std::cerr << "serve-mixed: " << r.open.size() << " open-loop + "
              << r.closed.size() << " closed-loop requests; generator lag "
              << "p99 " << lagP99 << " ms; carbon ratio " << carbon
              << "; closed-loop replies/s per round:";
    for (const double rate : r.closedRates) std::cerr << " " << rate;
    std::cerr << "\n";
    if (lagP99 > sizes.maxLagP99Ms)
      report.fail("open loop invalid: the generator fell behind (lag p99 " +
                  std::to_string(lagP99) + " ms)");
  };
  checkLag(run, carbonRatio);

  if (!config.trace) {
    // The best round of each phase: load from outside the process only
    // ever slows the daemon, so the best round is the program's figure.
    double p50 = std::numeric_limits<double>::infinity(), p90 = p50;
    for (const std::vector<double>& round : run.openLatencyMs) {
      p50 = std::min(p50, percentile(round, 0.50));
      p90 = std::min(p90, percentile(round, 0.90));
    }
    report.set("throughput_per_s",
               *std::max_element(run.closedRates.begin(), run.closedRates.end()),
               "1/s");
    report.set("latency_ms_p50", p50, "ms");
    report.set("latency_ms_p90", p90, "ms");
    report.set("success_ratio",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "ratio");
    report.set("carbon_ratio", carbonRatio, "ratio");
    report.set("peak_rss_mb", peakRssMb(), "MB");
    report.set("setup_s", median(run.setupMs) / 1000.0, "s");
    return report;
  }

  // The traced run: the same stream again, attributing each request's
  // client-observed time to the layers the reply's timing fields expose.
  RunReport tracedChecks;
  const ServeRun traced = runOnce(config, sizes, traffic, seconds);
  const double tracedCarbonRatio = checkRun(traced, tracedChecks);
  checkLag(traced, tracedCarbonRatio);
  report.attempted = tracedChecks.attempted;
  report.failed = tracedChecks.failed;
  for (const std::string& p : tracedChecks.problems) report.fail(p);

  LayerClock clock({{"serve.queue_wait", ""},
                    {"serve.handle", ""},
                    {"solver.solve", "serve.handle"},
                    {"solver.post", "serve.handle"},
                    {"sim.build", "serve.handle"},
                    {"online.plan", "serve.handle"},
                    {"online.resolve", "serve.handle"}});
  LayerClock::Lane& lane = clock.lane(0);
  // Solve handle time outside the solver: on a hit it is post-solve
  // validation, costing and the response; a miss adds the instance build.
  std::vector<double> hitOverhead;
  std::vector<const Sample*> all;
  for (const Sample& s : traced.open) all.push_back(&s);
  for (const Sample& s : traced.closed) all.push_back(&s);
  for (const Sample* s : all)
    if (s->reply.ok && s->request.kind != Request::Kind::Replay &&
        s->reply.cacheHit)
      hitOverhead.push_back(s->reply.totalMs - s->reply.queueMs -
                            s->reply.wallMs);
  const double postMs = median(hitOverhead);

  double wallMs = 0.0;
  std::int64_t resolves = 0, accepted = 0, solveMisses = 0;
  std::vector<double> wire;
  for (const Sample* s : all) {
    const Reply& r = s->reply;
    const double clientMs = msBetween(s->sent, s->received);
    wallMs += clientMs;
    if (!r.ok) continue;
    wire.push_back(clientMs - r.totalMs);
    lane.add(clock.id("serve.queue_wait"), r.queueMs);
    lane.add(clock.id("serve.handle"), r.totalMs - r.queueMs);
    if (s->request.kind == Request::Kind::Replay) {
      lane.add(clock.id("online.resolve"), r.resolveMs);
      lane.add(clock.id("online.plan"), r.totalMs - r.queueMs - r.resolveMs);
      resolves += r.resolves;
      accepted += r.resolvesAccepted;
      continue;
    }
    const double outside = r.totalMs - r.queueMs - r.wallMs;
    lane.add(clock.id("solver.solve"), r.wallMs);
    if (r.cacheHit) {
      lane.add(clock.id("solver.post"), outside);
    } else {
      ++solveMisses;
      const double post = std::min(postMs, outside);
      lane.add(clock.id("solver.post"), post);
      lane.add(clock.id("sim.build"), outside - post);
    }
  }
  std::cerr << "\nper-layer table (serve-mixed; Σ client-observed request "
               "time; unattributed = transport + client):\n";
  clock.printTable(std::cerr, wallMs);

  const JsonValue& stats = traced.stats;
  const double hits = static_cast<double>(stats.at("cache_hits").asInt());
  const double misses = static_cast<double>(stats.at("cache_misses").asInt());
  setPerLayer(
      report,
      {{"sim.build_ms", clock.inclusive("sim.build")},
       {"sim.build_count", static_cast<double>(solveMisses)},
       {"solver.solve_ms", clock.inclusive("solver.solve")},
       {"solver.post_ms", clock.inclusive("solver.post")},
       {"online.plan_ms", clock.inclusive("online.plan")},
       {"online.resolve_ms", clock.inclusive("online.resolve")},
       {"online.resolves", static_cast<double>(resolves)},
       {"online.resolve_accept_ratio",
        resolves > 0 ? static_cast<double>(accepted) /
                           static_cast<double>(resolves)
                     : 0.0},
       {"serve.queue_wait_ms_p50",
        stats.at("queue_wait").at("p50_ms").asDouble()},
       {"serve.queue_wait_ms_p99",
        stats.at("queue_wait").at("p99_ms").asDouble()},
       {"serve.server_latency_ms_p50",
        stats.at("latency").at("p50_ms").asDouble()},
       {"serve.wire_ms_p50", median(wire)},
       {"serve.cache_hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0},
       {"serve.cache_evictions",
        static_cast<double>(stats.at("cache_evictions").asInt())},
       {"serve.queue_full",
        static_cast<double>(stats.at("rejected_queue_full").asInt())},
       {"serve.timeouts", static_cast<double>(stats.at("timeouts").asInt())},
       {"loadgen.lag_ms_p99", percentile(lagsMs(traced.open), 0.99)},
       {"traced_wall_ms", wallMs},
       {"unattributed_ms", wallMs - clock.topLevelMs()},
       {"obs.trace_overhead_ratio", throughputOf(run) / throughputOf(traced)}});
  return report;
}

} // namespace e2e
