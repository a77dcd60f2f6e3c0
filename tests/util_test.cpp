// Tests for the util substrate: check macros, RNG, binary IO, artifact
// cache, and table rendering.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "la/matrix.hpp"
#include "util/cache.hpp"
#include "util/check.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace anchor {
namespace {

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(ANCHOR_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(ANCHOR_CHECK_EQ(3, 3));
  EXPECT_NO_THROW(ANCHOR_CHECK_LT(2, 3));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(ANCHOR_CHECK(false), CheckError);
  EXPECT_THROW(ANCHOR_CHECK_EQ(1, 2), CheckError);
  EXPECT_THROW(ANCHOR_CHECK_GE(1, 2), CheckError);
}

TEST(Check, MessageIncludesExpressionAndValues) {
  try {
    ANCHOR_CHECK_EQ(1, 2);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lhs=1"), std::string::npos);
    EXPECT_NE(what.find("rhs=2"), std::string::npos);
  }
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 4);
}

TEST(Rng, ForkDecorrelatesStreams) {
  Rng parent(7);
  Rng c1 = parent.fork(0);
  Rng c2 = parent.fork(0);  // second fork consumes parent state → differs
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, IndexRejectsEmpty) {
  Rng rng(5);
  EXPECT_THROW(rng.index(0), CheckError);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(sq / n - mean * mean, 9.0, 0.5);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(17);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(Rng, CategoricalRejectsAllZero) {
  Rng rng(1);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), CheckError);
}

TEST(DiscreteSampler, MatchesCategoricalDistribution) {
  Rng rng(19);
  const std::vector<double> w = {2.0, 1.0, 1.0};
  DiscreteSampler sampler(w);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[sampler.sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / 20000, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 20000, 0.25, 0.02);
}

TEST(Io, BlobRoundTripFloat) {
  const std::vector<float> v = {1.5f, -2.25f, 0.0f, 1e-20f};
  EXPECT_EQ(from_blob<float>(to_blob(v)), v);
}

TEST(Io, BlobRoundTripInt) {
  const std::vector<std::int32_t> v = {-5, 0, 7, 1 << 30};
  EXPECT_EQ(from_blob<std::int32_t>(to_blob(v)), v);
}

TEST(Io, BlobRoundTripEmpty) {
  EXPECT_TRUE(from_blob<double>(to_blob(std::vector<double>{})).empty());
}

TEST(Io, BlobTypeMismatchThrows) {
  const auto blob = to_blob(std::vector<float>{1.0f});
  EXPECT_THROW(from_blob<double>(blob), CheckError);
}

TEST(Io, TruncatedBlobThrows) {
  auto blob = to_blob(std::vector<float>{1.0f, 2.0f});
  blob.resize(blob.size() - 1);
  EXPECT_THROW(from_blob<float>(blob), CheckError);
}

TEST(Io, Fnv1aStableAndDistinct) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

TEST(Io, WriteReadBytesRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "anchor_io_test";
  std::filesystem::remove_all(dir);
  const std::vector<std::uint8_t> data = {0, 1, 255, 42};
  write_bytes(dir / "x.bin", data);
  EXPECT_EQ(read_bytes(dir / "x.bin"), data);
  std::filesystem::remove_all(dir);
}

TEST(Io, ReadMissingFileThrows) {
  EXPECT_THROW(read_bytes("/nonexistent/anchor/file.bin"), CheckError);
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("anchor_artifact_cache_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(CacheTest, MissReturnsNullopt) {
  ArtifactCache cache(dir_);
  EXPECT_FALSE(cache.contains("absent"));
  EXPECT_FALSE(cache.load<float>("absent").has_value());
}

TEST_F(CacheTest, StoreThenLoad) {
  ArtifactCache cache(dir_);
  const std::vector<double> v = {3.14, -1.0};
  cache.store("key1", v);
  EXPECT_TRUE(cache.contains("key1"));
  EXPECT_EQ(cache.load<double>("key1").value(), v);
}

TEST_F(CacheTest, GetOrComputeMemoizes) {
  ArtifactCache cache(dir_);
  int calls = 0;
  auto compute = [&]() {
    ++calls;
    return std::vector<std::int32_t>{1, 2, 3};
  };
  const auto a = cache.get_or_compute<std::int32_t>("k", compute);
  const auto b = cache.get_or_compute<std::int32_t>("k", compute);
  EXPECT_EQ(a, b);
  EXPECT_EQ(calls, 1);
}

TEST_F(CacheTest, PersistsAcrossInstances) {
  {
    ArtifactCache cache(dir_);
    cache.store("persist", std::vector<float>{9.0f});
  }
  ArtifactCache reopened(dir_);
  EXPECT_EQ(reopened.load<float>("persist").value(),
            std::vector<float>{9.0f});
}

TEST_F(CacheTest, HashCollisionDetectedViaKeySidecar) {
  ArtifactCache cache(dir_);
  cache.store("honest-key", std::vector<float>{1.0f});
  // Simulate an fnv64 collision: another key hashed to the same file name,
  // so its sidecar records a different full key. The cache must refuse to
  // serve the blob rather than silently return the wrong artifact.
  std::ostringstream name;
  name << std::hex << fnv1a("honest-key") << ".key";
  std::ofstream side(dir_ / name.str(), std::ios::binary | std::ios::trunc);
  side << "colliding-key";
  side.close();
  EXPECT_THROW(cache.load<float>("honest-key"), CheckError);
  EXPECT_THROW(cache.contains("honest-key"), CheckError);
}

TEST_F(CacheTest, MissingSidecarIsAMissNotACollision) {
  ArtifactCache cache(dir_);
  cache.store("k", std::vector<float>{2.0f});
  std::ostringstream name;
  name << std::hex << fnv1a("k") << ".key";
  std::filesystem::remove(dir_ / name.str());
  EXPECT_FALSE(cache.contains("k"));
  EXPECT_FALSE(cache.load<float>("k").has_value());
}

TEST_F(CacheTest, FromEnvPrefersEnvVarAndFallsBack) {
  const auto env_dir = dir_ / "env";
  const auto fallback_dir = dir_ / "fallback";
  ::setenv("ANCHOR_CACHE_DIR", env_dir.string().c_str(), 1);
  EXPECT_EQ(ArtifactCache::from_env(fallback_dir).dir(), env_dir);
  ::setenv("ANCHOR_CACHE_DIR", "", 1);  // empty counts as unset
  EXPECT_EQ(ArtifactCache::from_env(fallback_dir).dir(), fallback_dir);
  ::unsetenv("ANCHOR_CACHE_DIR");
  EXPECT_EQ(ArtifactCache::from_env(fallback_dir).dir(), fallback_dir);
}

TEST_F(CacheTest, MatrixRoundTripsThroughStorage) {
  ArtifactCache cache(dir_);
  la::Matrix m(3, 2);
  m(0, 0) = 1.5;
  m(1, 1) = -2.25;
  m(2, 0) = 1e-12;
  cache.store("matrix/3x2", m.storage());
  const auto loaded = cache.load<double>("matrix/3x2");
  ASSERT_TRUE(loaded.has_value());
  const la::Matrix back(3, 2, *loaded);
  EXPECT_EQ(la::max_abs_diff(m, back), 0.0);
}

TEST_F(CacheTest, DistinctKeysDistinctValues) {
  ArtifactCache cache(dir_);
  cache.store("a", std::vector<std::int32_t>{1});
  cache.store("b", std::vector<std::int32_t>{2});
  EXPECT_EQ(cache.load<std::int32_t>("a").value()[0], 1);
  EXPECT_EQ(cache.load<std::int32_t>("b").value()[0], 2);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

}  // namespace
}  // namespace anchor
