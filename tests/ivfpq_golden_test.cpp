// Golden bytes of the PQ / IVF-PQ training and encoding paths: FNV-1a
// hashes of compress::pq_quantize's codebooks, codes, reconstruction and
// distortion, of ann::train_ivfpq's artifacts, and of one IvfPqIndex's
// codes and inverted lists. Every hash must hold at every pool size and
// with the SIMD kernels switched off: training and encoding parallelize
// over points only and reduce serially in point order, and the distance
// kernel does the scalar operation sequence in every lane.
//
// Inputs are dyadic values drawn from raw mt19937_64 output (no
// std::*_distribution) so they do not depend on the standard library's
// distribution algorithms; the training itself seeds centroids through
// Rng::index, so the constants below are pinned to libstdc++.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "ann/ivf_pq.hpp"
#include "compress/pq.hpp"
#include "la/kernels.hpp"
#include "serve/embedding_store.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace anchor {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    const std::uint64_t n = v.size();
    bytes(&n, sizeof n);
    bytes(v.data(), v.size() * sizeof(T));
  }
  void f64(double x) { bytes(&x, sizeof x); }
};

/// Value in [-8, 8) on a 1/64 grid, from raw generator bits.
float dyadic(Rng& rng) {
  return static_cast<float>(static_cast<int>(rng.next_u64() % 1024) - 512) /
         64.0f;
}

embed::Embedding uniform_rows(std::size_t n, std::size_t dim,
                              std::uint64_t seed) {
  embed::Embedding e(n, dim);
  Rng rng(seed);
  for (float& x : e.data) x = dyadic(rng);
  return e;
}

/// Rows around `clusters` centers with small dyadic noise.
embed::Embedding clustered_rows(std::size_t n, std::size_t dim,
                                std::size_t clusters, std::uint64_t seed) {
  embed::Embedding e(n, dim);
  Rng rng(seed);
  std::vector<float> centers(clusters * dim);
  for (float& c : centers) c = dyadic(rng) * 2.0f;
  for (std::size_t w = 0; w < n; ++w) {
    const std::size_t c = w % clusters;
    for (std::size_t j = 0; j < dim; ++j) {
      e.row(w)[j] = centers[c * dim + j] + dyadic(rng) / 16.0f;
    }
  }
  return e;
}

/// Rows that are copies of only three distinct vectors (plus a few
/// distinct ones): seeding picks duplicate centroids, ties send every copy
/// to the first of them, and the rest go empty and must be re-seeded.
embed::Embedding degenerate_rows(std::size_t n, std::size_t dim,
                                 std::uint64_t seed) {
  embed::Embedding e = uniform_rows(n, dim, seed);
  for (std::size_t w = 0; w + 8 < n; ++w) {
    std::memcpy(e.row(w), e.row(n - 1 - w % 3), dim * sizeof(float));
  }
  return e;
}

std::uint64_t hash_pq(const compress::PqResult& r) {
  Fnv f;
  for (const auto& cb : r.codebooks) f.vec(cb);
  f.vec(r.codes);
  f.vec(r.embedding.data);
  f.f64(r.distortion);
  return f.h;
}

std::uint64_t hash_artifacts(const ann::IvfPqArtifacts& a) {
  Fnv f;
  f.vec(a.coarse);
  for (const auto& cb : a.codebooks) f.vec(cb);
  return f.h;
}

std::uint64_t hash_index(const ann::IvfPqIndex& index) {
  Fnv f;
  f.vec(index.cell_start());
  f.vec(index.cell_ids());
  f.vec(index.codes());
  return f.h;
}

compress::PqConfig pq_config(std::size_t m, int bits, std::size_t iters,
                             double tol, std::uint64_t seed) {
  compress::PqConfig c;
  c.num_subvectors = m;
  c.bits = bits;
  c.max_iters = iters;
  c.tol = tol;
  c.seed = seed;
  return c;
}

serve::SnapshotPtr snapshot(serve::EmbeddingStore& store,
                            const embed::Embedding& e, int bits) {
  serve::SnapshotConfig sc;
  sc.bits = bits;
  return store.add_version("v1", e, sc);
}

/// All hashes, in a fixed order, computed under the current pool size and
/// SIMD setting.
std::vector<std::uint64_t> golden_hashes() {
  std::vector<std::uint64_t> out;
  // k = 2: fewer centroids than one SIMD register holds.
  const auto a = uniform_rows(1500, 12, 1);
  out.push_back(
      hash_pq(compress::pq_quantize(a, pq_config(3, 1, 40, 1e-7, 3))));
  // k = 8, sub_dim 6: a partial register block.
  const auto b = compress::pq_quantize(a, pq_config(2, 3, 40, 1e-7, 5));
  out.push_back(hash_pq(b));
  // k = 16 on rows with three distinct values: empty-cluster re-seeding.
  const auto c = degenerate_rows(600, 8, 7);
  out.push_back(
      hash_pq(compress::pq_quantize(c, pq_config(1, 4, 30, 1e-7, 9))));
  // Loose tolerance: training stops long before max_iters.
  const auto d = clustered_rows(2000, 16, 12, 11);
  out.push_back(
      hash_pq(compress::pq_quantize(d, pq_config(4, 5, 200, 1e-2, 13))));
  // Shared codebooks: the final assignment alone.
  compress::PqConfig shared = pq_config(2, 3, 40, 1e-7, 5);
  shared.codebooks_override = b.codebooks;
  out.push_back(
      hash_pq(compress::pq_quantize(uniform_rows(700, 12, 15), shared)));

  // IVF-PQ training, 16 cells and one cell.
  const auto rows = clustered_rows(3000, 16, 20, 17);
  ann::AnnConfig ac;
  ac.nlist_bits = 4;
  ac.pq_m = 4;
  ac.pq_bits = 5;
  ac.train_iters = 12;
  ac.seed = 19;
  out.push_back(hash_artifacts(ann::train_ivfpq(rows, ac)));
  ann::AnnConfig one_cell = ac;
  one_cell.nlist_bits = 0;
  out.push_back(hash_artifacts(ann::train_ivfpq(rows, one_cell)));

  // An index over an int8 store: trains on the dequantized rows, encodes.
  serve::EmbeddingStore store8;
  const ann::IvfPqIndex trained(snapshot(store8, rows, 8), ac);
  out.push_back(hash_artifacts(trained.artifacts()));
  out.push_back(hash_index(trained));

  // Shared artifacts whose cell and centroid counts (5, 13) are not
  // powers of two, over an fp32 store.
  ann::IvfPqArtifacts art;
  art.dim = 16;
  Rng rng(23);
  art.coarse.resize(5 * 16);
  for (float& x : art.coarse) x = dyadic(rng) * 2.0f;
  art.codebooks.resize(4);
  for (auto& cb : art.codebooks) {
    cb.resize(13 * 4);
    for (float& x : cb) x = dyadic(rng) / 8.0f;
  }
  ann::AnnConfig shared_ac;
  shared_ac.artifacts = art;
  serve::EmbeddingStore store32;
  const ann::IvfPqIndex encoded(snapshot(store32, rows, 32), shared_ac);
  out.push_back(hash_index(encoded));
  return out;
}

const std::vector<std::uint64_t> kGolden = {
    0xdc02501b6c3ad826ULL, 0x00afcaaaf02d72b6ULL, 0x7385cdfd7ca55600ULL,
    0x2d379b8967c51717ULL, 0x0f39315b8f031b3bULL, 0xd5df03ef0b7bff9cULL,
    0x8df8afb93ff68ed9ULL, 0x43a492a4148e3974ULL, 0x5e263ed73a0f6980ULL,
    0x3a1a0e7090c0d2cfULL,
};

class IvfPqGolden : public ::testing::Test {
 protected:
  void TearDown() override {
    util::set_global_pool_threads(0);
    la::kernels::set_simd_enabled(true);
  }

  static void expect_golden(const char* label) {
    const std::vector<std::uint64_t> got = golden_hashes();
    ASSERT_EQ(got.size(), kGolden.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], kGolden[i])
          << label << " hash " << i << ": got 0x" << std::hex << got[i];
    }
  }
};

TEST_F(IvfPqGolden, SameBytesAtEveryPoolSize) {
  for (const std::size_t threads : {1, 2, 4}) {
    util::set_global_pool_threads(threads);
    expect_golden(threads == 1 ? "1 thread"
                               : threads == 2 ? "2 threads" : "4 threads");
  }
}

TEST_F(IvfPqGolden, SameBytesOnTheScalarPath) {
  la::kernels::set_simd_enabled(false);
  util::set_global_pool_threads(4);
  expect_golden("scalar, 4 threads");
}

}  // namespace
}  // namespace anchor
