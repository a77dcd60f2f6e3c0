// AsyncLookupService (serve/batcher): coalescing correctness, flush
// policy, drain-on-destruction, and error propagation. Timing-dependent
// behavior is asserted only in directions that cannot flake (e.g. "at
// least ceil(n/max) batches"), never via sleeps.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/demo_store.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace anchor::serve {
namespace {

embed::Embedding random_embedding(std::size_t vocab, std::size_t dim,
                                  std::uint64_t seed) {
  embed::Embedding e(vocab, dim);
  Rng rng(seed);
  for (auto& x : e.data) x = static_cast<float>(rng.normal(0.0, 1.0));
  return e;
}

constexpr std::size_t kVocab = 500;
constexpr std::size_t kDim = 24;

class AsyncLookupTest : public ::testing::Test {
 protected:
  AsyncLookupTest() {
    SnapshotConfig q8;
    q8.bits = 8;
    store_.add_version("live", random_embedding(kVocab, kDim, 11), q8);
  }

  EmbeddingStore store_;
};

TEST_F(AsyncLookupTest, ConcurrentSingleKeyLookupsMatchDirectBatch) {
  LookupService service(store_);
  AsyncLookupService async(service);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      LookupService check(store_);  // independent direct path
      for (int i = 0; i < kPerThread; ++i) {
        // Mix of in-vocab and OOV ids.
        const std::size_t id = rng.index(kVocab + 32);
        ResultSlice slice = async.lookup_id(id).get();
        const LookupResult direct = check.lookup_ids({id});
        if (slice.size() != 1 || slice.dim() != kDim ||
            slice.oov(0) != (direct.oov[0] != 0) ||
            slice.version() != direct.version) {
          ++mismatches;
          continue;
        }
        for (std::size_t d = 0; d < kDim; ++d) {
          if (slice.row(0)[d] != direct.row(0)[d]) {
            ++mismatches;
            break;
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  const StatsSnapshot stats = stats_snapshot(async.stats());
  EXPECT_EQ(stats.lookups, kThreads * kPerThread);
  // Every flush records one batch; coalescing can only reduce the count.
  EXPECT_LE(stats.batches, stats.lookups);
}

TEST_F(AsyncLookupTest, PipelinedRequestsCoalesceIntoSharedBatches) {
  LookupService service(store_);
  BatcherConfig config;
  config.max_batch_size = 32;
  config.max_wait_us = 5000;  // generous: flush on size, not age
  AsyncLookupService async(service, config);

  // Issue a window of single-key requests without draining, so the
  // combiner sees a deep queue and can fill batches.
  constexpr std::size_t kRequests = 256;
  std::vector<AsyncLookupService::SliceFuture> futures;
  futures.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(async.lookup_id(i % kVocab));
  }
  std::size_t shared = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    ResultSlice slice = futures[i].get();
    ASSERT_EQ(slice.size(), 1u);
    EXPECT_EQ(slice.row(0)[0],
              service.lookup_ids({i % kVocab}).row(0)[0]);
    // A slice whose backing batch holds more rows than the request proves
    // zero-copy sharing with co-batched waiters.
    if (slice.batch()->size() > 1) ++shared;
  }
  EXPECT_GT(shared, 0u);
  const StatsSnapshot stats = stats_snapshot(async.stats());
  EXPECT_EQ(stats.lookups, kRequests);
  // max_batch_size caps each flush, so at least ceil(256/32) batches; the
  // exact count depends on arrival timing.
  EXPECT_GE(stats.batches, kRequests / config.max_batch_size);
  EXPECT_LT(stats.batches, kRequests);
}

TEST_F(AsyncLookupTest, SmallBatchAndWordRequestsInterleave) {
  LookupService service(store_);
  AsyncLookupService async(service);

  auto ids_fut = async.lookup_ids({0, 5, kVocab + 7});
  auto word_fut = async.lookup_word("w3");
  auto words_fut = async.lookup_words({"w1", "definitely-oov"});

  const ResultSlice ids = ids_fut.get();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_FALSE(ids.oov(0));
  EXPECT_TRUE(ids.oov(2));
  const LookupResult direct = service.lookup_ids({0, 5});
  for (std::size_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(ids.row(0)[d], direct.row(0)[d]);
    EXPECT_EQ(ids.row(1)[d], direct.row(1)[d]);
  }

  const ResultSlice word = word_fut.get();
  ASSERT_EQ(word.size(), 1u);
  EXPECT_FALSE(word.oov(0));
  const LookupResult word_direct = service.lookup_words({"w3"});
  for (std::size_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(word.row(0)[d], word_direct.row(0)[d]);
  }

  const ResultSlice words = words_fut.get();
  ASSERT_EQ(words.size(), 2u);
  EXPECT_FALSE(words.oov(0));
  EXPECT_TRUE(words.oov(1));
}

TEST_F(AsyncLookupTest, EmptyRequestResolvesToEmptySlice) {
  LookupService service(store_);
  AsyncLookupService async(service);
  const ResultSlice slice = async.lookup_ids({}).get();
  EXPECT_EQ(slice.size(), 0u);
}

TEST_F(AsyncLookupTest, DestructorDrainsQueuedRequestsOfEveryKind) {
  // Futures of every request kind outlive the service and must still
  // complete, bit-identical to the direct service, because destruction
  // flushes the ring.
  LookupService service(store_);
  BatcherConfig config;
  config.max_batch_size = 4096;           // nothing flushes on size...
  config.max_wait_us = 60 * 1000 * 1000;  // ...or on age
  const std::vector<std::size_t> ids = {0, 5, kVocab + 7, 42};
  const std::vector<std::string> words = {"w1", "definitely-oov", "w9"};
  const std::vector<std::size_t> traced_ids = {3, 4};
  std::vector<AsyncLookupService::SliceFuture> singles;
  AsyncLookupService::SliceFuture multi, word, word_list, traced;
  {
    AsyncLookupService async(service, config);
    for (std::size_t i = 0; i < 64; ++i) {
      singles.push_back(async.lookup_id(i));
    }
    multi = async.lookup_ids(ids);
    word = async.lookup_word("w3");
    word_list = async.lookup_words(words);
    traced = async.lookup_ids(traced_ids, obs::TraceContext::start());
    EXPECT_FALSE(traced.ready());
    EXPECT_EQ(async.pending(), 68u);
    // Destruction must flush the ring: every future still completes.
  }
  const auto expect_identical = [](const ResultSlice& slice,
                                   const LookupResult& want) {
    ASSERT_EQ(slice.size(), want.size());
    EXPECT_EQ(slice.version(), want.version);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(slice.oov(i), want.oov[i] != 0);
      for (std::size_t d = 0; d < kDim; ++d) {
        EXPECT_EQ(slice.row(i)[d], want.row(i)[d]);
      }
    }
  };
  for (std::size_t i = 0; i < singles.size(); ++i) {
    ASSERT_TRUE(singles[i].ready());
    expect_identical(singles[i].get(), service.lookup_ids({i}));
  }
  expect_identical(multi.get(), service.lookup_ids(ids));
  expect_identical(word.get(), service.lookup_words({"w3"}));
  expect_identical(word_list.get(), service.lookup_words(words));
  expect_identical(traced.get(), service.lookup_ids(traced_ids));
}

TEST_F(AsyncLookupTest, UnconsumedSliceFuturesAreConsumedByTheirDtor) {
  LookupService service(store_);
  AsyncLookupService async(service);
  {
    // Abandoned futures: their destructors must consume the ring slots
    // (blocking until executed) so the ring never leaks slots.
    std::vector<AsyncLookupService::SliceFuture> abandoned;
    for (std::size_t i = 0; i < 100; ++i) {
      abandoned.push_back(async.lookup_id(i % kVocab));
    }
  }
  // The ring is quiescent again: a fresh request still works.
  ResultSlice slice = async.lookup_id(3).get();
  EXPECT_EQ(slice.size(), 1u);
  EXPECT_EQ(async.pending(), 0u);
}

TEST_F(AsyncLookupTest, WaiterParksWhileAnotherThreadRunsItsBatch) {
  // The main thread's request is claimed and run by another thread's
  // combine. The lookup takes far longer than the waiter's spin, so get()
  // parks on its Mailbox and must be woken by that combiner.
  LookupService service(store_);
  BatcherConfig config;
  config.max_batch_size = 32768;  // the large request does not flush itself
  AsyncLookupService async(service, config);
  std::vector<std::size_t> ids(20000);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = (i * 31) % kVocab;
  AsyncLookupService::SliceFuture large = async.lookup_ids(ids);
  ResultSlice single;
  // Newest in the ring, this waiter combines both requests at once.
  std::thread combiner([&] { single = async.lookup_id(7).get(); });
  while (async.pending() != 0) std::this_thread::yield();
  const ResultSlice got = large.get();
  combiner.join();

  const LookupResult want = service.lookup_ids(ids);
  ASSERT_EQ(got.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t d = 0; d < kDim; ++d) {
      ASSERT_EQ(got.row(i)[d], want.row(i)[d]);
    }
  }
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single.row(0)[0], service.lookup_ids({7}).row(0)[0]);
  EXPECT_EQ(stats_snapshot(async.stats()).batches, 1u);
}

TEST_F(AsyncLookupTest, SlicesOutliveTheServiceSafely) {
  LookupService service(store_);
  ResultSlice kept;
  {
    AsyncLookupService async(service);
    kept = async.lookup_id(42).get();
  }
  // The backing buffers are freelist-owned, so the slice stays valid
  // after the async service is gone.
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept.row(0)[0], service.lookup_ids({42}).row(0)[0]);
}

TEST(AsyncLookupErrors, LookupAgainstEmptyStoreRejectsTheFuture) {
  EmbeddingStore empty;
  LookupService service(empty);
  AsyncLookupService async(service);
  auto fut = async.lookup_id(0);
  EXPECT_THROW(fut.get(), std::exception);
  // The service must survive a failed batch and keep serving: another
  // request still completes (with the same error).
  auto fut2 = async.lookup_id(1);
  EXPECT_THROW(fut2.get(), std::exception);
}

TEST(AsyncLookupPool, LookupsCompleteWhileEveryPoolWorkerIsBusy) {
  // Batches run on the threads that wait for them, never as global-pool
  // jobs, so lookups must not queue behind whatever occupies the pool (a
  // running deployment gate, say). The wait is bounded so that a batcher
  // that does depend on the pool fails here instead of hanging.
  EmbeddingStore store;
  SnapshotConfig q4;
  q4.bits = 4;
  store.add_version("live", random_embedding(kVocab, kDim, 21), q4);
  LookupService service(store);
  AsyncLookupService async(service);

  util::ThreadPool& pool = util::global_pool();
  std::latch release(1);
  std::atomic<std::size_t> occupied{0};
  std::vector<std::future<void>> jobs;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    jobs.push_back(pool.submit([&] {
      occupied.fetch_add(1);
      release.wait();
    }));
  }
  while (occupied.load() < pool.size()) std::this_thread::yield();

  std::vector<std::size_t> ids64(64);
  for (std::size_t i = 0; i < ids64.size(); ++i) ids64[i] = (i * 7) % kVocab;
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::thread client([&] {
    const auto check = [&](const ResultSlice& got, const LookupResult& want) {
      if (got.size() != want.size()) {
        ++mismatches;
        return;
      }
      for (std::size_t i = 0; i < want.size(); ++i) {
        for (std::size_t d = 0; d < kDim; ++d) {
          if (got.row(i)[d] != want.row(i)[d]) ++mismatches;
        }
      }
    };
    check(async.lookup_id(17).get(), service.lookup_ids({17}));
    check(async.lookup_ids(ids64).get(), service.lookup_ids(ids64));
    check(async.lookup_word("w3").get(), service.lookup_words({"w3"}));
    done.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool completed_while_busy = done.load();
  release.count_down();
  client.join();
  for (auto& job : jobs) job.get();
  EXPECT_TRUE(completed_while_busy)
      << "lookups waited for a free global-pool worker";
  EXPECT_EQ(mismatches.load(), 0);
}

// The synthetic demo store underpins the RPC example and the daemon's
// --demo mode: its gate outcomes under DEFAULT thresholds are a contract,
// so pin them here rather than discovering drift in a smoke script.
TEST(DemoStore, DefaultGateAdmitsRoutineAndRejectsBotched) {
  EmbeddingStore store;
  DemoStoreConfig config;
  config.vocab = 600;  // smaller than the default: keep the suite fast
  config.dim = 32;
  add_demo_versions(store, config);
  EXPECT_EQ(store.live_version(), "v1");

  DeploymentGate gate;  // default thresholds — what the daemon ships with
  const GateReport bad = gate.try_promote(store, "v3-bad");
  EXPECT_EQ(bad.decision, GateDecision::kReject);
  EXPECT_FALSE(bad.promoted);
  EXPECT_EQ(store.live_version(), "v1");

  const GateReport good = gate.try_promote(store, "v2-good");
  EXPECT_EQ(good.decision, GateDecision::kAdmit);
  EXPECT_TRUE(good.promoted);
  EXPECT_EQ(store.live_version(), "v2-good");
}

}  // namespace
}  // namespace anchor::serve
