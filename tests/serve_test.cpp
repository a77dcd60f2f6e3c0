// Tests for the serving subsystem: snapshot encoding/sharding, versioned
// store semantics, thread-safe batched lookup, hot swap under concurrency,
// and the instability-gated promotion path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "compress/pq.hpp"
#include "compress/quantize.hpp"
#include "embed/io.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace anchor::serve {
namespace {

embed::Embedding random_embedding(std::size_t vocab, std::size_t dim,
                                  std::uint64_t seed) {
  embed::Embedding e(vocab, dim);
  Rng rng(seed);
  for (auto& x : e.data) {
    x = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return e;
}

embed::Embedding perturbed(const embed::Embedding& e, double scale,
                           std::uint64_t seed) {
  embed::Embedding out = e;
  Rng rng(seed);
  for (auto& x : out.data) {
    x += static_cast<float>(rng.normal(0.0, scale));
  }
  return out;
}

// ---- EmbeddingSnapshot -------------------------------------------------

TEST(Snapshot, Fp32RoundTripsRowsAcrossShardCounts) {
  const auto e = random_embedding(37, 8, 1);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}, std::size_t{64}}) {
    SnapshotConfig config;
    config.num_shards = shards;
    config.build_oov_table = false;
    EmbeddingSnapshot snap("v1", e, config, 1);
    std::vector<float> row(e.dim);
    for (std::size_t w = 0; w < e.vocab_size; ++w) {
      snap.copy_row(w, row.data());
      for (std::size_t j = 0; j < e.dim; ++j) {
        EXPECT_FLOAT_EQ(row[j], e.row(w)[j]) << "shards=" << shards;
      }
    }
  }
}

TEST(Snapshot, QuantizedRowsMatchCompressQuantizeGrid) {
  const auto e = random_embedding(25, 6, 2);
  for (const int bits : {1, 2, 4, 8}) {
    SnapshotConfig config;
    config.bits = bits;
    config.build_oov_table = false;
    EmbeddingSnapshot snap("q", e, config, 1);

    compress::QuantizeConfig qc;
    qc.bits = bits;
    const auto reference = compress::uniform_quantize(e, qc);
    EXPECT_FLOAT_EQ(snap.clip(), reference.clip);

    std::vector<float> row(e.dim);
    for (std::size_t w = 0; w < e.vocab_size; ++w) {
      snap.copy_row(w, row.data());
      for (std::size_t j = 0; j < e.dim; ++j) {
        EXPECT_FLOAT_EQ(row[j], reference.embedding.row(w)[j])
            << "bits=" << bits << " w=" << w << " j=" << j;
      }
    }
  }
}

TEST(Snapshot, CopyRowsMatchesPerRowCopyInAnyOrder) {
  const auto e = random_embedding(41, 13, 26);
  for (const int bits : {4, 8, 32}) {
    SnapshotConfig config;
    config.bits = bits;
    config.num_shards = 5;
    config.build_oov_table = false;
    EmbeddingSnapshot snap("v1", e, config, 1);

    // Scattered, duplicated, unsorted ids — the shape a lookup batch takes.
    const std::vector<std::size_t> ids = {40, 0, 7, 7, 13, 39, 1, 0};
    std::vector<float> batched(ids.size() * e.dim);
    snap.copy_rows(ids.data(), ids.size(), batched.data());
    std::vector<float> row(e.dim);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      snap.copy_row(ids[i], row.data());
      for (std::size_t j = 0; j < e.dim; ++j) {
        EXPECT_EQ(batched[i * e.dim + j], row[j])
            << "bits=" << bits << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(Snapshot, ToMatrixBlockExportMatchesCopyRow) {
  // dim 13 and 5 shards hit both the sub-byte packing tail and an uneven
  // rows-per-shard split in the blocked (per-shard dequantize) export path.
  const auto e = random_embedding(23, 13, 27);
  for (const int bits : {1, 2, 4, 8, 32}) {
    SnapshotConfig config;
    config.bits = bits;
    config.num_shards = 5;
    config.build_oov_table = false;
    EmbeddingSnapshot snap("v1", e, config, 1);
    for (const std::size_t max_rows : {std::size_t{0}, std::size_t{1},
                                       std::size_t{17}, std::size_t{23}}) {
      const la::Matrix m = snap.to_matrix(max_rows);
      const std::size_t rows = max_rows == 0 ? e.vocab_size : max_rows;
      ASSERT_EQ(m.rows(), rows);
      std::vector<float> row(e.dim);
      for (std::size_t w = 0; w < rows; ++w) {
        snap.copy_row(w, row.data());
        for (std::size_t j = 0; j < e.dim; ++j) {
          EXPECT_EQ(m(w, j), static_cast<double>(row[j]))
              << "bits=" << bits << " max_rows=" << max_rows << " w=" << w;
        }
      }
    }
  }
}

TEST(Snapshot, QuantizedStorageIsSmaller) {
  const auto e = random_embedding(64, 32, 3);
  SnapshotConfig fp32;
  fp32.build_oov_table = false;
  SnapshotConfig q8 = fp32;
  q8.bits = 8;
  SnapshotConfig q4 = fp32;
  q4.bits = 4;
  const std::size_t full = EmbeddingSnapshot("a", e, fp32, 1).memory_bytes();
  EXPECT_EQ(EmbeddingSnapshot("b", e, q8, 2).memory_bytes(), full / 4);
  EXPECT_EQ(EmbeddingSnapshot("c", e, q4, 3).memory_bytes(), full / 8);
}

TEST(Snapshot, ClipOverrideIsHonored) {
  const auto e = random_embedding(10, 4, 4);
  SnapshotConfig config;
  config.bits = 8;
  config.clip_override = 0.5f;
  config.build_oov_table = false;
  EmbeddingSnapshot snap("v", e, config, 1);
  EXPECT_FLOAT_EQ(snap.clip(), 0.5f);
  std::vector<float> row(e.dim);
  for (std::size_t w = 0; w < e.vocab_size; ++w) {
    snap.copy_row(w, row.data());
    for (std::size_t j = 0; j < e.dim; ++j) {
      EXPECT_LE(std::abs(row[j]), 0.5f + 1e-6f);
    }
  }
}

// ---- product-quantized snapshots ---------------------------------------

TEST(Snapshot, PqRowsMatchCompressPqReferenceAcrossShardCounts) {
  // Odd vocab, odd sub-dim (21/3 = 7): the snapshot's fused decode must
  // reproduce compress::pq_quantize's reconstruction bit-for-bit at every
  // shard count — same training entry point, same defaults, pure centroid
  // copies on both sides.
  const auto e = random_embedding(157, 21, 50);
  compress::PqConfig pc;
  pc.num_subvectors = 3;
  pc.bits = 4;
  const auto reference = compress::pq_quantize(e, pc);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}}) {
    SnapshotConfig config;
    config.pq_m = 3;
    config.pq_bits = 4;
    config.num_shards = shards;
    config.build_oov_table = false;
    EmbeddingSnapshot snap("pq", e, config, 1);
    EXPECT_TRUE(snap.is_pq());
    EXPECT_EQ(snap.encoding(), "pq:3x4");
    std::vector<float> row(e.dim);
    for (std::size_t w = 0; w < e.vocab_size; ++w) {
      snap.copy_row(w, row.data());
      for (std::size_t j = 0; j < e.dim; ++j) {
        EXPECT_EQ(row[j], reference.embedding.row(w)[j])
            << "shards=" << shards << " w=" << w << " j=" << j;
      }
    }
    // Fused batch decode and the matrix view agree with the row path.
    const std::vector<std::size_t> ids = {0, 5, 5, 156, 31};
    std::vector<float> batch(ids.size() * e.dim);
    snap.copy_rows(ids.data(), ids.size(), batch.data());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      snap.copy_row(ids[i], row.data());
      for (std::size_t j = 0; j < e.dim; ++j) {
        EXPECT_EQ(batch[i * e.dim + j], row[j]) << "shards=" << shards;
      }
    }
    const la::Matrix mtx = snap.to_matrix(0);
    ASSERT_EQ(mtx.rows(), e.vocab_size);
    for (std::size_t w = 0; w < e.vocab_size; ++w) {
      snap.copy_row(w, row.data());
      for (std::size_t j = 0; j < e.dim; ++j) {
        EXPECT_EQ(mtx(w, j), static_cast<double>(row[j]))
            << "shards=" << shards;
      }
    }
  }
}

TEST(Snapshot, PqSharedCodebooksAreAFixedPointAcrossShardCounts) {
  // The deployment contract behind cluster scatter-gather: a second store
  // encoding the same rows against the FIRST store's codebooks (any shard
  // count) yields byte-identical codes, hence bit-identical decodes.
  const auto e = random_embedding(200, 24, 51);
  SnapshotConfig trained;
  trained.pq_m = 4;
  trained.pq_bits = 5;
  trained.num_shards = 1;
  trained.build_oov_table = false;
  EmbeddingSnapshot a("a", e, trained, 1);

  SnapshotConfig shared = trained;
  shared.num_shards = 5;
  shared.pq_codebooks_override = a.pq_codebook_vectors();
  EmbeddingSnapshot b("b", e, shared, 2);

  std::vector<float> ra(e.dim), rb(e.dim);
  for (std::size_t w = 0; w < e.vocab_size; ++w) {
    a.copy_row(w, ra.data());
    b.copy_row(w, rb.data());
    for (std::size_t j = 0; j < e.dim; ++j) {
      EXPECT_EQ(ra[j], rb[j]) << "w=" << w << " j=" << j;
    }
    EXPECT_EQ(std::memcmp(a.pq_row_codes(w), b.pq_row_codes(w),
                          trained.pq_m), 0) << "w=" << w;
  }
}

TEST(Snapshot, PqStorageBeatsInt8ByAtLeast3x) {
  const auto e = random_embedding(1024, 32, 52);
  SnapshotConfig pq;
  pq.pq_m = 4;
  pq.pq_bits = 4;
  pq.build_oov_table = false;
  const EmbeddingSnapshot coded("pq", e, pq, 1);
  // Exact accounting: one byte per code per row, plus the shared flat
  // codebooks (m × 2^bits × sub_dim floats).
  EXPECT_EQ(coded.memory_bytes(),
            e.vocab_size * pq.pq_m + 4u * 16u * 8u * sizeof(float));

  SnapshotConfig q8;
  q8.bits = 8;
  q8.build_oov_table = false;
  const EmbeddingSnapshot int8("q8", e, q8, 2);
  EXPECT_GT(int8.memory_bytes(), 3u * coded.memory_bytes());
}

TEST(Snapshot, MemoryBytesIncludesOovTable) {
  // Regression pin: memory_bytes() used to count row storage only, so a
  // snapshot with an OOV table (4096 bucket vectors + counts) under-
  // reported its resident footprint by bucket_count·dim floats.
  const auto e = random_embedding(30, 8, 53);
  SnapshotConfig bare;
  bare.build_oov_table = false;
  SnapshotConfig with_oov;
  with_oov.build_oov_table = true;
  const std::size_t without = EmbeddingSnapshot("a", e, bare, 1).memory_bytes();
  const std::size_t with =
      EmbeddingSnapshot("b", e, with_oov, 2).memory_bytes();
  const std::size_t buckets = 1u << 12;
  EXPECT_EQ(with - without,
            buckets * e.dim * sizeof(float) + buckets * sizeof(std::uint32_t));
}

TEST(Snapshot, PqConfigValidationRejectsContradictions) {
  const auto e = random_embedding(64, 12, 54);
  SnapshotConfig bad;
  bad.build_oov_table = false;

  bad.pq_m = 4;
  bad.bits = 8;  // PQ replaces uniform quantization, not stacks on it
  EXPECT_THROW(EmbeddingSnapshot("v", e, bad, 1), CheckError);

  bad.bits = 32;
  bad.pq_m = 5;  // must divide dim=12
  EXPECT_THROW(EmbeddingSnapshot("v", e, bad, 1), CheckError);

  bad.pq_m = 4;
  bad.pq_bits = 9;  // codes are one byte each
  EXPECT_THROW(EmbeddingSnapshot("v", e, bad, 1), CheckError);

  SnapshotConfig orphan;
  orphan.build_oov_table = false;
  orphan.pq_codebooks_override = {{0.0f}};  // override without pq mode
  EXPECT_THROW(EmbeddingSnapshot("v", e, orphan, 1), CheckError);
}

TEST(Store, ClipOverrideRejectedUnlessUniformQuantized) {
  // A clip threshold on an fp32 or PQ snapshot is a config contradiction
  // (nothing ever clips); silently accepting it hid mis-rolled deploys.
  const auto e = random_embedding(64, 12, 55);
  SnapshotConfig fp32;
  fp32.clip_override = 0.5f;
  fp32.build_oov_table = false;
  EXPECT_THROW(EmbeddingSnapshot("v", e, fp32, 1), CheckError);

  SnapshotConfig pq = fp32;
  pq.pq_m = 4;
  EXPECT_THROW(EmbeddingSnapshot("v", e, pq, 1), CheckError);

  EmbeddingStore store;
  EXPECT_THROW(
      store.add_version("v", e, {.clip_override = 0.5f,
                                 .build_oov_table = false}),
      CheckError);
  store.add_version("v", e, {.bits = 8, .clip_override = 0.5f,
                             .build_oov_table = false});  // still fine
}

TEST(Snapshot, ToMatrixSubsamplesRows) {
  const auto e = random_embedding(20, 5, 5);
  SnapshotConfig config;
  config.build_oov_table = false;
  EmbeddingSnapshot snap("v", e, config, 1);
  const la::Matrix m = snap.to_matrix(7);
  ASSERT_EQ(m.rows(), 7u);
  ASSERT_EQ(m.cols(), 5u);
  for (std::size_t w = 0; w < 7; ++w) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(m(w, j), static_cast<double>(e.row(w)[j]));
    }
  }
}

TEST(Snapshot, OovSynthesisUsesSharedNgrams) {
  const auto e = random_embedding(50, 8, 6);
  SnapshotConfig config;  // build_oov_table defaults to true
  EmbeddingSnapshot snap("v", e, config, 1);
  ASSERT_TRUE(snap.has_oov_table());

  // "w00zz" is out of vocabulary but shares the "<w0"/"w00" prefix n-grams
  // with every in-vocab synthetic id, so synthesis must find support.
  std::vector<float> vec(e.dim, -1.0f);
  EXPECT_TRUE(snap.synthesize_oov("w00zz", vec.data()));
  double norm = 0.0;
  for (const float x : vec) norm += static_cast<double>(x) * x;
  EXPECT_GT(norm, 0.0);
}

TEST(Snapshot, OovSynthesisWithoutTableZeroesOutput) {
  const auto e = random_embedding(10, 4, 7);
  SnapshotConfig config;
  config.build_oov_table = false;
  EmbeddingSnapshot snap("v", e, config, 1);
  std::vector<float> vec(e.dim, -1.0f);
  EXPECT_FALSE(snap.synthesize_oov("w00zz", vec.data()));
  for (const float x : vec) EXPECT_EQ(x, 0.0f);
}

// ---- EmbeddingStore ----------------------------------------------------

TEST(Store, FirstVersionBecomesLive) {
  EmbeddingStore store;
  EXPECT_EQ(store.live(), nullptr);
  store.add_version("2017-01", random_embedding(10, 4, 8));
  store.add_version("2017-02", random_embedding(10, 4, 9));
  EXPECT_EQ(store.live_version(), "2017-01");
  EXPECT_EQ(store.versions().size(), 2u);
}

TEST(Store, SetLiveSwitchesAndRemoveLiveThrows) {
  EmbeddingStore store;
  store.add_version("a", random_embedding(10, 4, 10));
  store.add_version("b", random_embedding(10, 4, 11));
  store.set_live("b");
  EXPECT_EQ(store.live_version(), "b");
  EXPECT_THROW(store.remove_version("b"), CheckError);
  store.remove_version("a");
  EXPECT_FALSE(store.has_version("a"));
}

TEST(Store, VersionIdsWithCsvMetacharactersAreRejected) {
  EmbeddingStore store;
  const auto e = random_embedding(5, 2, 41);
  EXPECT_THROW(store.add_version("", e), CheckError);
  EXPECT_THROW(store.add_version("a,b", e), CheckError);
  EXPECT_THROW(store.add_version("a\nb", e), CheckError);
}

TEST(Lookup, OverlongNumericWordTakesOovPathNotWraparound) {
  EmbeddingStore store;
  store.add_version("v1", random_embedding(10, 4, 42));
  LookupService service(store);
  // 2^64 + 1 would wrap a naive accumulator to row 1; it must be OOV.
  const LookupResult r = service.lookup_words({"w18446744073709551617"});
  EXPECT_EQ(r.oov[0], 1);
}

TEST(Store, SetLiveUnknownVersionThrows) {
  EmbeddingStore store;
  store.add_version("a", random_embedding(5, 2, 12));
  EXPECT_THROW(store.set_live("nope"), CheckError);
}

TEST(Store, SnapshotEpochsAreUnique) {
  EmbeddingStore store;
  const auto s1 = store.add_version("a", random_embedding(5, 2, 13));
  const auto s2 = store.add_version("b", random_embedding(5, 2, 14));
  const auto s3 = store.add_version("a", random_embedding(5, 2, 15));
  EXPECT_NE(s1->epoch(), s2->epoch());
  EXPECT_NE(s2->epoch(), s3->epoch());
  EXPECT_NE(s1->epoch(), s3->epoch());
}

TEST(Store, RemoveVersionRefusesLiveNameAfterReregister) {
  EmbeddingStore store;
  store.add_version("v", random_embedding(5, 2, 48));  // live (old snapshot)
  store.add_version("v", random_embedding(5, 2, 49));  // same name, new snap
  // The registry entry is not the live snapshot, but erasing it would leave
  // the store serving a version id it no longer knows.
  EXPECT_THROW(store.remove_version("v"), CheckError);
  EXPECT_TRUE(store.has_version("v"));
}

TEST(Store, RemoveVersionRefusesPinnedSnapshotUntilReleased) {
  // Regression pin: remove_version only guarded the live version, so a
  // snapshot pinned outside the registry (canary pin_snapshot, AnnService
  // index cache, an in-flight reader) could lose its version mid-use.
  EmbeddingStore store;
  store.add_version("a", random_embedding(5, 2, 56));  // live
  store.add_version("b", random_embedding(5, 2, 57));
  SnapshotPtr pinned = store.snapshot("b");
  EXPECT_THROW(store.remove_version("b"), CheckError);
  EXPECT_TRUE(store.has_version("b"));  // refusal left the registry intact
  pinned.reset();
  store.remove_version("b");
  EXPECT_FALSE(store.has_version("b"));
}

TEST(Store, SetLiveSnapshotRefusesReplacedSnapshot) {
  EmbeddingStore store;
  const auto gated = store.add_version("v", random_embedding(5, 2, 45));
  // A concurrent ingest replaces "v" after the gate captured `gated`.
  store.add_version("v", random_embedding(5, 2, 46));
  EXPECT_FALSE(store.set_live_snapshot(gated));
  EXPECT_EQ(store.live()->epoch(), gated->epoch());  // live unchanged
  EXPECT_TRUE(store.set_live_snapshot(store.snapshot("v")));
}

TEST(Snapshot, NanEntriesQuantizeAsZeroNotUb) {
  embed::Embedding e = random_embedding(4, 4, 47);
  e.row(1)[2] = std::nanf("");
  SnapshotConfig config;
  config.bits = 8;
  config.build_oov_table = false;
  EmbeddingSnapshot snap("v", e, config, 1);
  std::vector<float> row(e.dim);
  snap.copy_row(1, row.data());
  // The NaN entry lands on the grid point nearest 0, not garbage.
  EXPECT_TRUE(std::isfinite(row[2]));
  EXPECT_NEAR(row[2], 0.0f, snap.clip() / 100.0f);
}

TEST(Store, LoadVersionFromDisk) {
  const auto e = random_embedding(12, 6, 16);
  const auto path = std::filesystem::temp_directory_path() /
                    "anchor_serve_store_test.txt";
  embed::save_text(e, path);
  EmbeddingStore store;
  const auto snap = store.load_version("disk", path);
  std::filesystem::remove(path);
  ASSERT_EQ(snap->vocab_size(), e.vocab_size);
  std::vector<float> row(e.dim);
  snap->copy_row(3, row.data());
  for (std::size_t j = 0; j < e.dim; ++j) {
    EXPECT_NEAR(row[j], e.row(3)[j], 1e-5f);
  }
}

TEST(Store, TotalMemoryCountsAllVersions) {
  EmbeddingStore store;
  store.add_version("a", random_embedding(16, 8, 17),
                    {.bits = 32, .build_oov_table = false});
  const std::size_t one = store.total_memory_bytes();
  store.add_version("b", random_embedding(16, 8, 18),
                    {.bits = 8, .build_oov_table = false});
  EXPECT_EQ(store.total_memory_bytes(), one + one / 4);
}

// ---- LookupService -----------------------------------------------------

TEST(Lookup, BatchedIdsMatchSnapshotRows) {
  EmbeddingStore store;
  const auto e = random_embedding(30, 8, 19);
  store.add_version("v1", e);
  LookupService service(store);

  const std::vector<std::size_t> ids = {0, 7, 7, 29, 13};
  const LookupResult result = service.lookup_ids(ids);
  EXPECT_EQ(result.version, "v1");
  ASSERT_EQ(result.dim, e.dim);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(result.oov[i], 0);
    for (std::size_t j = 0; j < e.dim; ++j) {
      EXPECT_FLOAT_EQ(result.row(i)[j], e.row(ids[i])[j]);
    }
  }
}

TEST(Lookup, OutOfRangeIdsAreZeroedAndFlagged) {
  EmbeddingStore store;
  store.add_version("v1", random_embedding(5, 4, 20));
  LookupService service(store);
  const LookupResult result = service.lookup_ids({2, 100});
  EXPECT_EQ(result.oov[0], 0);
  EXPECT_EQ(result.oov[1], 1);
  for (std::size_t j = 0; j < result.dim; ++j) {
    EXPECT_EQ(result.row(1)[j], 0.0f);
  }
  EXPECT_EQ(service.stats().snapshot().oov_fallbacks, 1u);
}

TEST(Lookup, EmptyStoreThrows) {
  EmbeddingStore store;
  LookupService service(store);
  EXPECT_THROW(service.lookup_ids({0}), CheckError);
}

TEST(Lookup, EveryEncodingServesRowsBitIdenticalToCopyRow) {
  // One gather path serves every encoding: each in-vocabulary slot must be
  // byte-identical to EmbeddingSnapshot::copy_row (in-batch duplicates
  // included), and the OOV slots between them must hold zeros (ids) or
  // the subword synthesis (words), whatever the reused result held before.
  const struct {
    const char* name;
    SnapshotConfig config;
  } encodings[] = {
      {"fp32", {}},
      {"int1", {.bits = 1}},
      {"int2", {.bits = 2}},
      {"int4", {.bits = 4}},
      {"int8", {.bits = 8}},
      {"pq:4x4", {.pq_m = 4, .pq_bits = 4}},
  };
  constexpr std::size_t kVocab = 60;
  const auto e = random_embedding(kVocab, 16, 31);
  const std::vector<std::size_t> ids = {7, 60, 3, 7, 59, 1000, 0, 3, 61};
  std::vector<std::string> words;
  for (const std::size_t id : ids) words.push_back("w" + std::to_string(id));
  words.push_back("zebra");

  for (const auto& enc : encodings) {
    SCOPED_TRACE(enc.name);
    EmbeddingStore store;
    const SnapshotPtr snap = store.add_version("v1", e, enc.config);
    ASSERT_TRUE(snap->has_oov_table());
    LookupService service(store);
    std::vector<float> want(e.dim);

    LookupResult by_id;
    by_id.vectors.assign(4 * ids.size() * e.dim, std::nanf(""));  // stale
    service.lookup_ids_into(ids, &by_id);
    ASSERT_EQ(by_id.size(), ids.size());
    ASSERT_EQ(by_id.vectors.size(), ids.size() * e.dim);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      SCOPED_TRACE("id " + std::to_string(ids[i]));
      EXPECT_EQ(by_id.oov[i], ids[i] >= kVocab ? 1 : 0);
      if (ids[i] < kVocab) {
        snap->copy_row(ids[i], want.data());
      } else {
        std::fill(want.begin(), want.end(), 0.0f);
      }
      EXPECT_EQ(std::memcmp(by_id.row(i), want.data(),
                            e.dim * sizeof(float)),
                0);
    }

    LookupResult by_word;
    by_word.vectors.assign(4 * words.size() * e.dim, std::nanf(""));
    service.lookup_words_into(words, &by_word);
    ASSERT_EQ(by_word.size(), words.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
      SCOPED_TRACE(words[i]);
      const bool in_vocab = i < ids.size() && ids[i] < kVocab;
      EXPECT_EQ(by_word.oov[i], in_vocab ? 0 : 1);
      if (in_vocab) {
        snap->copy_row(ids[i], want.data());
      } else {
        snap->synthesize_oov(words[i], want.data());
      }
      EXPECT_EQ(std::memcmp(by_word.row(i), want.data(),
                            e.dim * sizeof(float)),
                0);
    }
    EXPECT_EQ(service.stats().snapshot().oov_fallbacks, 3u + 4u);
  }
}

TEST(Lookup, HotSwapServesTheNewVersion) {
  EmbeddingStore store;
  const auto e1 = random_embedding(10, 4, 23);
  const auto e2 = random_embedding(10, 4, 24);
  store.add_version("v1", e1);
  store.add_version("v2", e2);
  LookupService service(store);

  service.lookup_ids({5, 5});  // serve v1's row 5 first
  store.set_live("v2");
  const LookupResult result = service.lookup_ids({5});
  EXPECT_EQ(result.version, "v2");
  for (std::size_t j = 0; j < result.dim; ++j) {
    EXPECT_FLOAT_EQ(result.row(0)[j], e2.row(5)[j]);
  }
}

TEST(Lookup, WordsResolveInVocabAndSynthesizeOov) {
  EmbeddingStore store;
  const auto e = random_embedding(50, 8, 25);
  store.add_version("v1", e);  // OOV table on by default
  LookupService service(store);

  const LookupResult result = service.lookup_words({"w0003", "w00zz"});
  EXPECT_EQ(result.oov[0], 0);
  for (std::size_t j = 0; j < e.dim; ++j) {
    EXPECT_FLOAT_EQ(result.row(0)[j], e.row(3)[j]);
  }
  EXPECT_EQ(result.oov[1], 1);
  double norm = 0.0;
  for (std::size_t j = 0; j < e.dim; ++j) {
    norm += static_cast<double>(result.row(1)[j]) * result.row(1)[j];
  }
  EXPECT_GT(norm, 0.0);  // synthesized, not zeroed
  EXPECT_EQ(service.stats().snapshot().oov_fallbacks, 1u);
}

TEST(Lookup, ConcurrentLookupsDuringHotSwapStayConsistent) {
  EmbeddingStore store;
  const auto e1 = random_embedding(64, 8, 26);
  const auto e2 = random_embedding(64, 8, 27);
  store.add_version("v1", e1);
  store.add_version("v2", e2);
  LookupService service(store);

  std::atomic<bool> stop{false};
  std::atomic<int> inconsistencies{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<std::size_t> ids(8);
        for (auto& id : ids) id = rng.index(64);
        const LookupResult r = service.lookup_ids(ids);
        const embed::Embedding& expect = r.version == "v1" ? e1 : e2;
        for (std::size_t i = 0; i < ids.size(); ++i) {
          for (std::size_t j = 0; j < r.dim; ++j) {
            if (r.row(i)[j] != expect.row(ids[i])[j]) {
              inconsistencies.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  // Flap the live version while the workers hammer lookups.
  for (int swap = 0; swap < 50; ++swap) {
    store.set_live(swap % 2 == 0 ? "v2" : "v1");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_GT(service.stats().snapshot().lookups, 0u);
}

// ---- ServeStats --------------------------------------------------------

TEST(Stats, CountsAndPercentiles) {
  ServeStats stats;
  for (int i = 1; i <= 100; ++i) {
    stats.record_batch(10, static_cast<double>(i));
  }
  const StatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.lookups, 1000u);
  EXPECT_EQ(snap.batches, 100u);
  EXPECT_GT(snap.qps, 0.0);
  EXPECT_NEAR(snap.p50_latency_us, 50.0, 2.0);
  EXPECT_NEAR(snap.p99_latency_us, 99.0, 2.0);
  EXPECT_FALSE(snap.summary().empty());
}

TEST(Stats, ResetZeroesEverything) {
  ServeStats stats;
  stats.record_batch(5, 1.0);
  stats.record_oov();
  stats.reset();
  const StatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.lookups, 0u);
  EXPECT_EQ(snap.oov_fallbacks, 0u);
  EXPECT_EQ(snap.p99_latency_us, 0.0);
}

TEST(Stats, PercentilesWithFewSamples) {
  // Nearest-rank: with 3 samples p50 is the 2nd smallest and p99 the
  // maximum — the tail must not collapse onto the median. Quantiles come
  // from the log histogram, so each estimate is the containing bucket's
  // lower bound (≤ 1/32 below the true value). 10 and 20 sit exactly on
  // bucket boundaries; 1000 does not, so its estimate lands just below.
  ServeStats stats;
  stats.record_batch(1, 20.0);
  stats.record_batch(1, 1000.0);
  stats.record_batch(1, 10.0);
  const StatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.p50_latency_us, 20.0);
  EXPECT_NEAR(snap.p99_latency_us, 1000.0, 1000.0 / 32.0);
  EXPECT_LE(snap.p99_latency_us, 1000.0);

  ServeStats one;
  one.record_batch(1, 7.0);
  const StatsSnapshot single = one.snapshot();
  EXPECT_EQ(single.p50_latency_us, 7.0);
  EXPECT_EQ(single.p99_latency_us, 7.0);
}

TEST(Stats, QuantilesCoverAllSamplesSinceReset) {
  // The histogram has no ring to wrap: every sample since the last reset
  // counts, so two equal-sized epochs split the median exactly at the
  // lower level (nearest-rank: rank 4096 of 8192 falls in the 100 µs
  // bucket) while the tail reports the higher one. Both values sit
  // exactly on bucket boundaries, so the comparisons are exact.
  constexpr std::size_t kEpoch = 4096;
  ServeStats stats;
  for (std::size_t i = 0; i < kEpoch; ++i) stats.record_batch(1, 100.0);
  for (std::size_t i = 0; i < kEpoch; ++i) stats.record_batch(1, 200.0);
  const StatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.lookups, 2 * kEpoch);
  EXPECT_EQ(snap.latency.count, 2 * kEpoch);
  EXPECT_EQ(snap.p50_latency_us, 100.0);
  EXPECT_EQ(snap.p99_latency_us, 200.0);

  // More low samples drag the median down but never produce a value
  // outside the recorded range.
  for (std::size_t i = 0; i < kEpoch; ++i) stats.record_batch(1, 50.0);
  const StatsSnapshot mixed = stats.snapshot();
  EXPECT_GE(mixed.p50_latency_us, 50.0);
  EXPECT_LE(mixed.p99_latency_us, 200.0);
}

TEST(Stats, SnapshotNeverMixesSamplesAcrossReset) {
  // reset() zeroes every histogram bucket in place. After recording many
  // samples of a marker value, a reset plus a handful of new samples must
  // yield percentiles computed from the new samples ONLY: any 1000 µs
  // marker surfacing would mean a pre-reset sample leaked into the
  // post-reset window.
  constexpr std::size_t kFill = 4096;
  ServeStats stats;
  for (std::size_t i = 0; i < kFill; ++i) stats.record_batch(1, 1000.0);
  stats.reset();

  // Zero post-reset samples: empty window, not the old ring.
  EXPECT_EQ(stats.snapshot().p99_latency_us, 0.0);

  stats.record_batch(1, 7.0);
  stats.record_batch(1, 5.0);
  stats.record_batch(1, 6.0);
  const StatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.batches, 3u);
  EXPECT_EQ(snap.p50_latency_us, 6.0);
  EXPECT_EQ(snap.p99_latency_us, 7.0);

  // Across several generations the filter keeps holding.
  stats.reset();
  stats.record_batch(1, 3.0);
  const StatsSnapshot again = stats.snapshot();
  EXPECT_EQ(again.p50_latency_us, 3.0);
  EXPECT_EQ(again.p99_latency_us, 3.0);
}

TEST(Stats, ResetUnderConcurrentRecordingStaysCoherent) {
  // Counters may land on either side of a concurrent reset (documented),
  // but every snapshot must stay internally sane: no torn counts beyond
  // the recorded total, percentiles inside the recorded value range. No
  // sleeps — threads just hammer; ASan/TSan runs give the race coverage.
  ServeStats stats;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        stats.record_batch(2, 5.0 + (i % 3));
        stats.record_oov();
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int r = 0; r < 100; ++r) {
    stats.reset();
    const StatsSnapshot snap = stats.snapshot();
    EXPECT_LE(snap.lookups, 2ull * kThreads * kPerThread);
    EXPECT_LE(snap.batches, 1ull * kThreads * kPerThread);
    if (snap.batches > 0) {
      EXPECT_GE(snap.p99_latency_us, 0.0);
      EXPECT_LE(snap.p99_latency_us, 8.0);
    }
  }
  for (auto& t : recorders) t.join();
  const StatsSnapshot final_snap = stats.snapshot();
  EXPECT_LE(final_snap.lookups, 2ull * kThreads * kPerThread);
  stats.reset();
  EXPECT_EQ(stats.snapshot().batches, 0u);
}

// ---- DeploymentGate ----------------------------------------------------

TEST(Gate, IdenticalSnapshotsScoreNearZeroAndAdmit) {
  const auto e = random_embedding(120, 8, 28);
  EmbeddingStore store;
  store.add_version("old", e);
  store.add_version("new", e);
  GateConfig config;
  config.knn_queries = 64;
  DeploymentGate gate(config);
  const GateReport report =
      gate.evaluate(*store.snapshot("old"), *store.snapshot("new"));
  EXPECT_NEAR(report.eis, 0.0, 1e-6);
  EXPECT_NEAR(report.one_minus_knn, 0.0, 1e-9);
  EXPECT_EQ(report.decision, GateDecision::kAdmit);
}

TEST(Gate, EvaluateFromPoolWorkerDoesNotDeadlockAndMatches) {
  // A canarying job may run evaluate() *on* the shared pool; with a single
  // worker the overlap path (submit + get) would block that worker on a
  // task queued behind it forever, so the gate must detect it and fall
  // back to sequential — with an identical report.
  const auto e = random_embedding(100, 8, 41);
  EmbeddingStore store;
  store.add_version("old", e, {.build_oov_table = false});
  store.add_version("new", perturbed(e, 0.05, 42), {.build_oov_table = false});
  GateConfig config;
  config.knn_queries = 32;
  DeploymentGate gate(config);
  const GateReport direct =
      gate.evaluate(*store.snapshot("old"), *store.snapshot("new"));

  util::set_global_pool_threads(1);
  auto fut = util::global_pool().submit([&] {
    return gate.evaluate(*store.snapshot("old"), *store.snapshot("new"));
  });
  const GateReport nested = fut.get();
  util::set_global_pool_threads(0);
  EXPECT_EQ(nested.eis, direct.eis);
  EXPECT_EQ(nested.one_minus_knn, direct.one_minus_knn);
}

TEST(Gate, UnrelatedSnapshotScoresHigherThanPerturbed) {
  const auto e = random_embedding(120, 8, 29);
  EmbeddingStore store;
  store.add_version("old", e);
  store.add_version("minor", perturbed(e, 0.05, 30));
  store.add_version("alien", random_embedding(120, 8, 31));
  GateConfig config;
  config.knn_queries = 64;
  DeploymentGate gate(config);
  const auto minor =
      gate.evaluate(*store.snapshot("old"), *store.snapshot("minor"));
  const auto alien =
      gate.evaluate(*store.snapshot("old"), *store.snapshot("alien"));
  EXPECT_LT(minor.eis, alien.eis);
  EXPECT_LT(minor.one_minus_knn, alien.one_minus_knn);
}

TEST(Gate, TryPromoteAdmitsLowAndRejectsHighInstability) {
  const auto e = random_embedding(120, 8, 32);
  EmbeddingStore store;
  store.add_version("old", e);
  store.add_version("minor", perturbed(e, 0.05, 33));
  store.add_version("alien", random_embedding(120, 8, 34));

  // Self-calibrate the thresholds between the two candidates' measured
  // values, the way an operator would pin them from rollout history.
  GateConfig probe;
  probe.knn_queries = 64;
  const auto lo = DeploymentGate(probe).evaluate(*store.snapshot("old"),
                                                 *store.snapshot("minor"));
  const auto hi = DeploymentGate(probe).evaluate(*store.snapshot("old"),
                                                 *store.snapshot("alien"));
  ASSERT_LT(lo.eis, hi.eis);

  GateConfig config = probe;
  config.eis_warn = config.eis_reject = 0.5 * (lo.eis + hi.eis);
  config.knn_warn = config.knn_reject =
      std::max(1.001 * hi.one_minus_knn, 1e-3);
  DeploymentGate gate(config);

  const GateReport rejected = gate.try_promote(store, "alien");
  EXPECT_EQ(rejected.decision, GateDecision::kReject);
  EXPECT_FALSE(rejected.promoted);
  EXPECT_EQ(store.live_version(), "old");

  const GateReport admitted = gate.try_promote(store, "minor");
  EXPECT_NE(admitted.decision, GateDecision::kReject);
  EXPECT_TRUE(admitted.promoted);
  EXPECT_EQ(store.live_version(), "minor");
}

TEST(Gate, NoIncumbentAdmitsUnconditionally) {
  EmbeddingStore store;
  LookupService service(store);
  store.add_version("first", random_embedding(20, 4, 35));
  // add_version already made it live; promoting the live version again is a
  // no-op admit.
  DeploymentGate gate;
  const GateReport report = gate.try_promote(store, "first");
  EXPECT_EQ(report.decision, GateDecision::kAdmit);
  EXPECT_TRUE(report.promoted);
}

TEST(Gate, ReregisteredLiveVersionNameIsStillGated) {
  const auto e = random_embedding(120, 8, 43);
  EmbeddingStore store;
  store.add_version("v1", e);  // live
  // A botched refresh re-registered under the SAME version id must not
  // bypass the gate via the name shortcut: live_ still points at the old
  // snapshot, so the comparison is identity, not string equality.
  store.add_version("v1", random_embedding(120, 8, 44));
  GateConfig config;
  config.knn_queries = 64;
  config.eis_reject = 1e-6;  // anything non-identical rejects
  config.eis_warn = 1e-6;
  const GateReport report =
      DeploymentGate(config).try_promote(store, "v1");
  EXPECT_EQ(report.decision, GateDecision::kReject);
  EXPECT_FALSE(report.promoted);
  // The incumbent snapshot keeps serving.
  EXPECT_EQ(store.live()->epoch(), 1u);
}

TEST(Gate, UnknownCandidateThrows) {
  EmbeddingStore store;
  store.add_version("a", random_embedding(10, 4, 36));
  DeploymentGate gate;
  EXPECT_THROW(gate.try_promote(store, "ghost"), CheckError);
}

TEST(Gate, DifferingDimensionsAreComparable) {
  EmbeddingStore store;
  store.add_version("d8", random_embedding(100, 8, 37));
  store.add_version("d16", random_embedding(100, 16, 38));
  GateConfig config;
  config.knn_queries = 32;
  DeploymentGate gate(config);
  const auto report =
      gate.evaluate(*store.snapshot("d8"), *store.snapshot("d16"));
  EXPECT_GT(report.eis, 0.0);
  EXPECT_EQ(report.rows_compared, 100u);
}

TEST(Gate, AuditLogRoundTrips) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("anchor_serve_audit_" + std::to_string(::getpid()) +
                     ".csv");
  std::filesystem::remove(path);

  const auto e = random_embedding(80, 6, 39);
  EmbeddingStore store;
  store.add_version("old", e);
  store.add_version("new", perturbed(e, 0.05, 40));
  GateConfig config;
  config.knn_queries = 32;
  config.audit_log = path;
  DeploymentGate gate(config);
  gate.try_promote(store, "new");
  gate.try_promote(store, "new");  // already-live no-op also audited

  // A row with an empty reason (the struct default) must also round-trip:
  // getline drops the field after a trailing comma.
  GateReport bare;
  bare.old_version = "x";
  bare.new_version = "y";
  append_audit_csv(path, bare);

  const auto rows = read_audit_csv(path);
  std::filesystem::remove(path);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2].reason, "");
  EXPECT_EQ(rows[0].old_version, "old");
  EXPECT_EQ(rows[0].new_version, "new");
  EXPECT_TRUE(rows[0].promoted);
  EXPECT_GE(rows[0].eis, 0.0);
  EXPECT_EQ(rows[1].reason, "candidate is already live");
}

}  // namespace
}  // namespace anchor::serve
