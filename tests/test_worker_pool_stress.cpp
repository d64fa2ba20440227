// Stress/soak coverage for the WorkerPool under a serve-like load:
// hundreds of small solves pushed through a small pool with a tiny
// admission queue, with randomized cancellations (the serve daemon's
// deadline-expiry path: a job that finds its request cancelled records
// that and returns without solving) and retry-on-backpressure admission.
// The pool must never deadlock, never lose a result, and finish within a
// generous wall-clock bound; a mid-run stop() must still drain every job
// that was admitted. Run under the TSan CI job, this is the test that
// would catch queue/worker races.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "core/asap.hpp"
#include "core/cawosched.hpp"
#include "core/solve_context.hpp"
#include "test_util.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace cawo {
namespace {

using testing::makeGc;
using testing::randomProfile;

struct SmallInstance {
  EnhancedGraph gc;
  PowerProfile profile;
  Time deadline = 0;
};

/// A small random instance, cheap enough that hundreds of solves finish
/// quickly even under sanitizers.
SmallInstance smallInstance(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<ProcId, Time>> tasks;
  for (int i = 0; i < 12; ++i)
    tasks.push_back({static_cast<ProcId>(rng.uniformInt(0, 1)),
                     rng.uniformInt(1, 5)});
  std::vector<std::pair<TaskId, TaskId>> edges;
  for (int i = 0; i < 12; ++i)
    for (int j = i + 1; j < 12; ++j)
      if (rng.uniformReal(0.0, 1.0) < 0.15)
        edges.push_back({static_cast<TaskId>(i), static_cast<TaskId>(j)});
  SmallInstance inst{makeGc(tasks, edges, {1, 2}, {3, 4}), PowerProfile{}, 0};
  inst.deadline = 2 * asapMakespan(inst.gc) + 3;
  inst.profile = randomProfile(inst.deadline, 6, 2, 10, rng);
  return inst;
}

/// Submit with bounded retries — the serve admission loop's client-side
/// mirror. Returns false only if the queue stayed full the whole time.
bool submitWithRetry(WorkerPool& pool, std::function<void()> job) {
  for (int attempt = 0; attempt < 20000; ++attempt) {
    if (pool.trySubmit(job)) return true;
    std::this_thread::yield();
  }
  return false;
}

TEST(WorkerPoolStress, HundredsOfSolvesWithRandomCancellations) {
  constexpr std::size_t kJobs = 400;
  const SmallInstance inst = smallInstance(1234);

  // Reference results, computed serially up front on one context. Each
  // job below solves on its own throwaway context, so concurrent jobs
  // share only the read-only instance.
  const std::vector<VariantSpec> variants = allVariants();
  std::vector<Schedule> expected;
  {
    const SolveContext ctx(inst.gc, inst.profile, inst.deadline);
    for (const VariantSpec& spec : variants)
      expected.push_back(runVariant(ctx, spec));
  }

  WallTimer timer;
  std::atomic<std::size_t> solved{0};
  std::atomic<std::size_t> cancelled{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::atomic<bool>> cancelFlag(kJobs);
  Rng rng(77);
  // Pre-roll which jobs get cancelled (~1 in 4) so the cancelling thread
  // below races the workers on realistic timing, not on the decision.
  std::vector<std::size_t> toCancel;
  for (std::size_t i = 0; i < kJobs; ++i)
    if (rng.uniformInt(0, 3) == 0) toCancel.push_back(i);

  {
    WorkerPool pool(4, 8); // tiny queue: admission backpressure is exercised

    // The "deadline reaper": flips cancel flags while solves are in
    // flight, exactly like serve expiring queued requests.
    std::thread reaper([&] {
      for (const std::size_t i : toCancel) {
        cancelFlag[i].store(true, std::memory_order_release);
        if ((i & 7) == 0) std::this_thread::yield();
      }
    });

    std::size_t admitted = 0;
    for (std::size_t i = 0; i < kJobs; ++i) {
      const VariantSpec spec = variants[i % variants.size()];
      const Schedule& want = expected[i % variants.size()];
      const bool ok = submitWithRetry(pool, [&, i, spec] {
        if (cancelFlag[i].load(std::memory_order_acquire)) {
          cancelled.fetch_add(1);
          return;
        }
        const Schedule got =
            runVariant(inst.gc, inst.profile, inst.deadline, spec);
        if (got.starts() == want.starts())
          solved.fetch_add(1);
        else
          mismatches.fetch_add(1);
      });
      ASSERT_TRUE(ok) << "queue stayed full for job " << i;
      ++admitted;
    }

    pool.drain();
    reaper.join();
    EXPECT_EQ(pool.queueDepth(), 0u);
    EXPECT_EQ(pool.busy(), 0u);
    EXPECT_EQ(pool.firstError(), nullptr);
    EXPECT_EQ(admitted, kJobs);
  }

  // Every admitted job ran to exactly one outcome — nothing lost, nothing
  // double-counted, every un-cancelled solve bit-identical.
  EXPECT_EQ(solved.load() + cancelled.load(), kJobs);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(solved.load(), 0u);

  // Generous bound (sanitizer builds are ~10× slower): the real point is
  // "terminates promptly", i.e. no deadlock and no unbounded retry spin.
  EXPECT_LT(timer.elapsedSec(), 120.0);
}

TEST(WorkerPoolStress, MidRunStopDrainsAdmittedJobs) {
  const SmallInstance inst = smallInstance(9);
  const VariantSpec spec{BaseScore::Slack, true, false, false};

  std::atomic<std::size_t> ran{0};
  std::size_t admitted = 0;
  WorkerPool pool(3, 16);
  for (std::size_t i = 0; i < 100; ++i)
    if (pool.trySubmit([&] {
          (void)runVariant(inst.gc, inst.profile, inst.deadline, spec);
          ran.fetch_add(1);
        }))
      ++admitted;
  pool.stop(); // finishes every admitted job, then joins
  EXPECT_EQ(ran.load(), admitted);
  EXPECT_GT(admitted, 0u);
  // A stopped pool admits nothing and drops the job on the floor.
  EXPECT_FALSE(pool.trySubmit([&] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), admitted);
}

TEST(WorkerPoolStress, ConcurrentSubmittersAccountForEveryJob) {
  // Several producer threads race tiny jobs into a capacity-1 queue: the
  // harshest admission interleaving. sum(accepted) must equal the number
  // of executions, regardless of how many submissions bounce.
  WorkerPool pool(2, 1);
  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p)
    producers.emplace_back([&] {
      for (int i = 0; i < 200; ++i)
        if (submitWithRetry(pool, [&] { executed.fetch_add(1); }))
          accepted.fetch_add(1);
    });
  for (std::thread& t : producers) t.join();
  pool.drain();
  EXPECT_EQ(executed.load(), accepted.load());
  EXPECT_EQ(accepted.load(), 800u); // retries always got through eventually
  EXPECT_EQ(pool.firstError(), nullptr);
}

} // namespace
} // namespace cawo
