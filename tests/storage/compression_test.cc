#include "storage/compression.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace tilestore {
namespace {

TEST(CompressionTest, NoneIsIdentity) {
  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  EXPECT_EQ(Compress(Compression::kNone, data), data);
  Result<std::vector<uint8_t>> back =
      Decompress(Compression::kNone, data, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(CompressionTest, NoneSizeMismatchIsCorruption) {
  std::vector<uint8_t> data = {1, 2, 3};
  EXPECT_TRUE(
      Decompress(Compression::kNone, data, 4).status().IsCorruption());
}

TEST(CompressionTest, RleRoundTripsRuns) {
  std::vector<uint8_t> data(1000, 0);
  for (int i = 300; i < 350; ++i) data[static_cast<size_t>(i)] = 7;
  std::vector<uint8_t> compressed = Compress(Compression::kRle, data);
  EXPECT_LT(compressed.size(), data.size() / 10);
  Result<std::vector<uint8_t>> back =
      Decompress(Compression::kRle, compressed, data.size());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, data);
}

TEST(CompressionTest, RleRoundTripsEmptyAndTiny) {
  for (std::vector<uint8_t> data :
       {std::vector<uint8_t>{}, std::vector<uint8_t>{42},
        std::vector<uint8_t>{1, 2}, std::vector<uint8_t>{5, 5}}) {
    std::vector<uint8_t> compressed = Compress(Compression::kRle, data);
    Result<std::vector<uint8_t>> back =
        Decompress(Compression::kRle, compressed, data.size());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, data);
  }
}

TEST(CompressionTest, RleRoundTripsLongUniformRuns) {
  // Runs longer than the 128-repeat limit must chain correctly.
  std::vector<uint8_t> data(100000, 0xEE);
  std::vector<uint8_t> compressed = Compress(Compression::kRle, data);
  EXPECT_LT(compressed.size(), 2000u);
  Result<std::vector<uint8_t>> back =
      Decompress(Compression::kRle, compressed, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(CompressionTest, RleRoundTripsRandomData) {
  Random rng(99);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<uint8_t> data(rng.Uniform(5000));
    for (auto& b : data) {
      // Mix of runs and noise.
      b = rng.Bernoulli(0.5) ? 0 : static_cast<uint8_t>(rng.Uniform(256));
    }
    std::vector<uint8_t> compressed = Compress(Compression::kRle, data);
    Result<std::vector<uint8_t>> back =
        Decompress(Compression::kRle, compressed, data.size());
    ASSERT_TRUE(back.ok()) << back.status();
    ASSERT_EQ(*back, data);
  }
}

TEST(CompressionTest, RleDetectsTruncation) {
  std::vector<uint8_t> data(1000, 3);
  std::vector<uint8_t> compressed = Compress(Compression::kRle, data);
  compressed.pop_back();
  EXPECT_FALSE(Decompress(Compression::kRle, compressed, 1000).ok());
}

TEST(CompressionTest, RleDetectsWrongDeclaredSize) {
  std::vector<uint8_t> data(100, 3);
  std::vector<uint8_t> compressed = Compress(Compression::kRle, data);
  EXPECT_FALSE(Decompress(Compression::kRle, compressed, 99).ok());
  EXPECT_FALSE(Decompress(Compression::kRle, compressed, 101).ok());
}

TEST(CompressionTest, RleRejectsReservedControlByte) {
  std::vector<uint8_t> bogus = {0x80, 1, 2};
  EXPECT_TRUE(
      Decompress(Compression::kRle, bogus, 3).status().IsCorruption());
}

TEST(CompressionTest, SelectiveCompressionFallsBackOnNoise) {
  Random rng(1);
  std::vector<uint8_t> noise(4096);
  for (auto& b : noise) b = static_cast<uint8_t>(rng.Uniform(256));
  std::vector<uint8_t> stored;
  EXPECT_EQ(CompressIfSmaller(Compression::kRle, noise, &stored),
            Compression::kNone);
  EXPECT_EQ(stored, noise);

  std::vector<uint8_t> sparse(4096, 0);
  EXPECT_EQ(CompressIfSmaller(Compression::kRle, sparse, &stored),
            Compression::kRle);
  EXPECT_LT(stored.size(), sparse.size());
}

TEST(CompressionTest, NoneMovesAnRvalueWithoutCopying) {
  std::vector<uint8_t> data(4096, 3);
  const uint8_t* buffer = data.data();
  Result<std::vector<uint8_t>> back =
      Decompress(Compression::kNone, std::move(data), 4096);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data(), buffer);
}

TEST(CompressionTest, MaxEncodedSizeBoundsEveryValidStream) {
  EXPECT_EQ(MaxEncodedSize(Compression::kNone, 100), 100u);
  // The longest valid stream for n bytes is n one-byte literals.
  std::vector<uint8_t> worst;
  for (int i = 0; i < 50; ++i) worst.insert(worst.end(), {0x00, 9});
  EXPECT_EQ(worst.size(), MaxEncodedSize(Compression::kRle, 50));
  EXPECT_TRUE(Decompress(Compression::kRle, worst, 50).ok());
  // The encoder never comes near it, on noise or on tiny inputs.
  Random rng(4);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{1000}}) {
    std::vector<uint8_t> noise(n);
    for (uint8_t& b : noise) b = static_cast<uint8_t>(rng.Uniform(256));
    EXPECT_LE(Compress(Compression::kRle, noise).size(),
              MaxEncodedSize(Compression::kRle, n));
  }
}

TEST(CompressionTest, Names) {
  EXPECT_EQ(CompressionToString(Compression::kNone), "none");
  EXPECT_EQ(CompressionToString(Compression::kRle), "rle");
}

}  // namespace
}  // namespace tilestore
