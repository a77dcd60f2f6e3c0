// util::ThreadPool — the parallelism substrate under the measure layer.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace anchor {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  for (const std::size_t n : {0u, 1u, 3u, 64u, 1000u}) {
    std::vector<std::atomic<int>> counts(n);
    pool.parallel_for(0, n, [&](std::size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPool, ParallelForHonorsNonZeroBegin) {
  util::ThreadPool pool(3);
  std::vector<int> hits(100, 0);
  pool.parallel_for(40, 70, [&](std::size_t i) { hits[i] = 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], (i >= 40 && i < 70) ? 1 : 0) << i;
  }
}

TEST(ThreadPool, IndependentSlotWritesAreDeterministicAcrossPoolSizes) {
  std::vector<double> reference;
  for (const std::size_t threads : {1u, 2u, 7u}) {
    util::ThreadPool pool(threads);
    std::vector<double> out(512);
    pool.parallel_for(0, out.size(), [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5 - 3.0;
    });
    if (reference.empty()) {
      reference = out;
    } else {
      EXPECT_EQ(reference, out) << "threads=" << threads;
    }
  }
}

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  util::ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, NestedParallelForFromWorkerCompletes) {
  util::ThreadPool pool(2);
  std::atomic<int> total{0};
  auto fut = pool.submit([&] {
    EXPECT_TRUE(util::ThreadPool::on_worker_thread());
    // Nested loop must complete without needing a free pool slot (the
    // worker drains the chunks itself if nobody else picks them up).
    pool.parallel_for(0, 10, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
    return true;
  });
  EXPECT_TRUE(fut.get());
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, ParallelForOnSaturatedPoolDoesNotDeadlock) {
  util::ThreadPool pool(2);
  // Saturate every worker, then run a parallel_for from the caller: the
  // caller-drains design must finish the loop with no free worker at all.
  std::atomic<bool> release{false};
  auto b1 = pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
    return true;
  });
  auto b2 = pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
    return true;
  });
  std::atomic<int> done{0};
  pool.parallel_for(0, 100, [&](std::size_t) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 100);
  release.store(true);
  EXPECT_TRUE(b1.get());
  EXPECT_TRUE(b2.get());
}

TEST(ThreadPool, LongParallelForYieldsWorkersToQueuedJobs) {
  // A job queued while a long loop runs must not wait for the whole loop:
  // helpers hand their worker back between chunks (120 iterations of 2 ms
  // on 2 workers + the caller come in chunks of 10, about 80 ms in all).
  util::ThreadPool pool(2);
  constexpr std::size_t kIters = 120;
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> done_when_job_ran{kIters};
  std::thread loop([&] {
    pool.parallel_for(0, kIters, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1);
    });
  });
  while (done.load() == 0) std::this_thread::yield();
  pool.submit([&] { done_when_job_ran.store(done.load()); }).get();
  loop.join();
  EXPECT_EQ(done.load(), kIters);
  EXPECT_LT(done_when_job_ran.load(), kIters / 2);
}

TEST(ThreadPool, ParallelForRethrowsFirstExceptionAfterQuiescing) {
  util::ThreadPool pool(3);
  std::atomic<int> ran{0};
  const auto loop = [&] {
    pool.parallel_for(0, 64, [&](std::size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 17) throw std::runtime_error("boom");
    });
  };
  EXPECT_THROW(loop(), std::runtime_error);
  // The loop quiesced before rethrowing: all chunks ran except the tail of
  // the one that threw (no helper is left touching freed state — ASan
  // covers the use-after-free half of this contract).
  EXPECT_GE(ran.load(), 18);
  EXPECT_LE(ran.load(), 64);
}

TEST(ThreadPool, GlobalPoolResizes) {
  util::set_global_pool_threads(3);
  EXPECT_EQ(util::global_pool_threads(), 3u);
  util::set_global_pool_threads(0);  // back to default sizing
  EXPECT_GE(util::global_pool_threads(), 1u);
}

TEST(ThreadPool, ForkedChildGetsAWorkingGlobalPool) {
  // fork() copies only the calling thread: a child that queued work on the
  // parent's pool object would wait forever on workers it does not have.
  util::set_global_pool_threads(4);
  ASSERT_EQ(util::global_pool().submit([] { return 1; }).get(), 1);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(10);  // a hang dies by SIGALRM instead of wedging the suite
    const int got = util::global_pool().submit([] { return 7; }).get();
    ::_exit(got == 7 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << (WIFSIGNALED(status) ? WTERMSIG(status)
                                                         : 0);
  EXPECT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 0);
  util::set_global_pool_threads(0);
}

}  // namespace
}  // namespace anchor
