// Deterministic seeded stress for AsyncLookupService: N producer threads
// issuing randomized mixes of single-key fast-path futures, multi-key id
// requests, and word requests, with injected slow consumers that sit on
// futures while the ring keeps moving. Every future must resolve and
// every result must be bit-identical to a direct LookupService call —
// the coalescing layer is allowed to batch however it likes but never to
// change an answer.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace anchor::serve {
namespace {

constexpr std::size_t kVocab = 1200;
constexpr std::size_t kDim = 24;

embed::Embedding random_embedding(std::uint64_t seed) {
  embed::Embedding e(kVocab, kDim);
  Rng rng(seed);
  for (auto& x : e.data) x = static_cast<float>(rng.normal(0.0, 1.0));
  return e;
}

/// One producer's pending request: what was asked plus how to get it.
struct InFlight {
  enum class Kind { kFastId, kIds, kWord, kWords } kind = Kind::kFastId;
  std::size_t id = 0;
  std::vector<std::size_t> ids;
  std::string word;
  std::vector<std::string> words;
  AsyncLookupService::SliceFuture fast;
  std::future<ResultSlice> general;
};

/// Bit-identical comparison of a resolved slice against the direct
/// service's answer for the same request.
bool slice_matches(const ResultSlice& slice, const LookupResult& expected) {
  if (slice.size() != expected.size()) return false;
  if (slice.size() == 0) return true;
  if (slice.dim() != expected.dim) return false;
  for (std::size_t i = 0; i < slice.size(); ++i) {
    if (slice.oov(i) != (expected.oov[i] != 0)) return false;
    const float* got = slice.row(i);
    const float* want = expected.row(i);
    for (std::size_t j = 0; j < expected.dim; ++j) {
      if (got[j] != want[j]) return false;
    }
  }
  return true;
}

class StressCase {
 public:
  explicit StressCase(int bits) {
    SnapshotConfig snap;
    snap.bits = bits;
    store_.add_version("live", random_embedding(41), snap);
  }

  void run(int threads, int requests_per_thread, std::uint64_t seed) {
    LookupService service(store_);
    const LookupService direct(store_);
    std::atomic<std::uint64_t> resolved{0};
    std::atomic<std::uint64_t> mismatches{0};
    std::uint64_t issued_total = 0;
    {
      AsyncLookupService async(service);
      std::vector<std::thread> producers;
      std::vector<std::uint64_t> issued(static_cast<std::size_t>(threads), 0);
      for (int t = 0; t < threads; ++t) {
        producers.emplace_back([&, t] {
          Rng rng(seed + static_cast<std::uint64_t>(t) * 7919);
          std::deque<InFlight> window;

          const auto drain_one = [&] {
            InFlight req = std::move(window.front());
            window.pop_front();
            ResultSlice slice;
            LookupResult expected;
            switch (req.kind) {
              case InFlight::Kind::kFastId:
                slice = req.fast.get();
                direct.lookup_ids_into({req.id}, &expected);
                break;
              case InFlight::Kind::kIds:
                slice = req.general.get();
                direct.lookup_ids_into(req.ids, &expected);
                break;
              case InFlight::Kind::kWord:
                slice = req.general.get();
                direct.lookup_words_into({req.word}, &expected);
                break;
              case InFlight::Kind::kWords:
                slice = req.general.get();
                direct.lookup_words_into(req.words, &expected);
                break;
            }
            resolved.fetch_add(1, std::memory_order_relaxed);
            if (!slice_matches(slice, expected)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          };

          for (int i = 0; i < requests_per_thread; ++i) {
            InFlight req;
            const double pick = rng.uniform();
            if (pick < 0.45) {
              req.kind = InFlight::Kind::kFastId;
              req.id = rng.index(kVocab);
              req.fast = async.lookup_id(req.id);
            } else if (pick < 0.70) {
              req.kind = InFlight::Kind::kIds;
              const std::size_t n = 1 + rng.index(17);
              req.ids.resize(n);
              // ~6% of ids are out of vocabulary → zero/oov slots.
              for (auto& id : req.ids) id = rng.index(kVocab + 80);
              req.general = async.lookup_ids(req.ids);
            } else if (pick < 0.85) {
              req.kind = InFlight::Kind::kWord;
              req.word = rng.bernoulli(0.8)
                             ? "w" + std::to_string(rng.index(kVocab))
                             : "junk-" + std::to_string(rng.index(64));
              req.general = async.lookup_word(req.word);
            } else {
              req.kind = InFlight::Kind::kWords;
              const std::size_t n = 1 + rng.index(9);
              req.words.resize(n);
              for (auto& w : req.words) {
                w = rng.bernoulli(0.7)
                        ? "w" + std::to_string(rng.index(kVocab + 60))
                        : "oov-" + std::to_string(rng.index(32));
              }
              req.general = async.lookup_words(req.words);
            }
            window.push_back(std::move(req));
            ++issued[static_cast<std::size_t>(t)];

            // Injected slow consumer: occasionally sit on the whole
            // window while other producers keep the ring and dispatcher
            // busy — slot reclamation must not depend on us consuming.
            if (rng.bernoulli(0.02)) {
              std::this_thread::sleep_for(std::chrono::microseconds(
                  static_cast<int>(100 + rng.index(400))));
            }
            while (window.size() > 8) drain_one();
          }
          while (!window.empty()) drain_one();
        });
      }
      for (auto& p : producers) p.join();
      for (const auto n : issued) issued_total += n;
      // async destructor: drains the general queue; every fast-path
      // future was consumed above.
    }
    EXPECT_EQ(mismatches.load(), 0u);
    // Every single future resolved (none lost, none stuck).
    EXPECT_EQ(resolved.load(), issued_total);
    EXPECT_EQ(issued_total,
              static_cast<std::uint64_t>(threads) *
                  static_cast<std::uint64_t>(requests_per_thread));
  }

 private:
  EmbeddingStore store_;
};

TEST(AsyncStress, MixedTrafficFp32ResolvesBitIdentical) {
  StressCase(32).run(/*threads=*/4, /*requests_per_thread=*/600, 101);
}

TEST(AsyncStress, MixedTrafficInt8ResolvesBitIdentical) {
  StressCase(8).run(/*threads=*/4, /*requests_per_thread=*/600, 202);
}

TEST(AsyncStress, TinyRingForcesBackpressureAndStillResolvesAll) {
  // A ring sized to the minimum (2 × max_batch) with 6 producers: full
  // slots make producers help combine; everything must still resolve.
  EmbeddingStore store;
  SnapshotConfig snap;
  snap.bits = 8;
  store.add_version("live", random_embedding(77), snap);
  LookupService service(store);
  const LookupService direct(store);
  BatcherConfig config;
  config.max_batch_size = 8;
  config.ring_capacity = 2;  // rounded up to 2 × max_batch internally
  AsyncLookupService async(service, config);

  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 6; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(404 + static_cast<std::uint64_t>(t));
      std::deque<std::pair<std::size_t, AsyncLookupService::SliceFuture>>
          window;
      for (int i = 0; i < 800; ++i) {
        const std::size_t id = rng.index(kVocab);
        window.emplace_back(id, async.lookup_id(id));
        if (rng.bernoulli(0.01)) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        while (window.size() > 4) {
          auto [want_id, fut] = std::move(window.front());
          window.pop_front();
          const ResultSlice slice = fut.get();
          LookupResult expected;
          direct.lookup_ids_into({want_id}, &expected);
          if (!slice_matches(slice, expected)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      while (!window.empty()) {
        window.front().second.get();
        window.pop_front();
      }
    });
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace anchor::serve
