#include <gtest/gtest.h>

#include <map>
#include <set>

#include "test_util.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/status.h"

namespace mmdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Full("x").IsFull());
  EXPECT_TRUE(Status::NotResident("x").IsNotResident());
  EXPECT_TRUE(Status::Fault("x").IsFault());
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fn = [](bool fail) -> Status {
    MMDB_RETURN_IF_ERROR(fail ? Status::Busy("b") : Status::OK());
    return Status::NotFound("reached end");
  };
  EXPECT_TRUE(fn(true).IsBusy());
  EXPECT_TRUE(fn(false).IsNotFound());
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  Result<int> err(Status::Full("no room"));
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsFull());
}

TEST(ResultTest, WorksWithoutDefaultConstructor) {
  struct NoDefault {
    explicit NoDefault(int x) : x(x) {}
    int x;
  };
  Result<NoDefault> r(NoDefault(3));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().x, 3);
}

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE).
  const char* s = "123456789";
  EXPECT_EQ(Crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32("", 0), 0u); }

TEST(Crc32Test, SeedChaining) {
  const char* s = "hello world";
  uint32_t whole = Crc32(s, 11);
  uint32_t a = Crc32(s, 5);
  // Chaining is seed-based continuation, not equal to concatenated CRC of
  // parts with default seeds.
  uint32_t chained = Crc32(s + 5, 6, a);
  EXPECT_NE(chained, a);
  EXPECT_NE(whole, 0u);
}

TEST(Crc32Test, DetectsBitFlip) {
  std::vector<uint8_t> data = testing::FilledBytes(1024, 7);
  uint32_t before = Crc32(data.data(), data.size());
  data[512] ^= 0x01;
  EXPECT_NE(before, Crc32(data.data(), data.size()));
}

TEST(Crc32Test, SlicedMatchesReferenceAtAllLengths) {
  // The word-folding fast path and the byte-serial reference must agree
  // for every length (0, sub-word tails, word-aligned) and seed.
  Random rng(42);
  std::vector<uint8_t> buf(4096);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Uniform(256));
  for (size_t n = 0; n <= 64; ++n) {
    EXPECT_EQ(Crc32(buf.data(), n), Crc32Reference(buf.data(), n))
        << "length " << n;
  }
  for (size_t n : {65u, 127u, 128u, 1000u, 4096u}) {
    uint32_t seed = static_cast<uint32_t>(rng.Uniform(1u << 31));
    EXPECT_EQ(Crc32(buf.data(), n, seed), Crc32Reference(buf.data(), n, seed))
        << "length " << n;
  }
  // Unaligned starts exercise the memcpy word loads.
  for (size_t off : {1u, 3u, 7u}) {
    EXPECT_EQ(Crc32(buf.data() + off, 256),
              Crc32Reference(buf.data() + off, 256));
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, UniformCoversAllValues) {
  Random r(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, BernoulliExtremes) {
  Random r(1);
  EXPECT_FALSE(r.Bernoulli(0.0));
  EXPECT_TRUE(r.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.Bernoulli(0.3) ? 1 : 0;
  EXPECT_GT(hits, 2000);
  EXPECT_LT(hits, 4000);
}

TEST(RandomTest, SkewedFavorsLowIndices) {
  Random r(5);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 10000; ++i) ++counts[r.Skewed(100, 0.8)];
  // Element 0 should be much hotter than element 50.
  EXPECT_GT(counts[0], counts[50] * 2);
}

TEST(RandomTest, NextStringShapeAndDeterminism) {
  Random a(3), b(3);
  std::string s1 = a.NextString(16);
  std::string s2 = b.NextString(16);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 16u);
  for (char c : s1) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

}  // namespace
}  // namespace mmdb
