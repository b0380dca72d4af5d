#include "common/checksum.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"

namespace tilestore {
namespace {

TEST(ChecksumTest, KnownVectors) {
  // CRC-32C check value (ITU/iSCSI test vector).
  const char* digits = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xE3069283u);

  // RFC 3720 B.4: 32 bytes of zeros.
  std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);

  // RFC 3720 B.4: 32 bytes of 0xFF.
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);

  // RFC 3720 B.4: 32 incrementing bytes 0x00..0x1F.
  std::vector<uint8_t> inc(32);
  for (size_t i = 0; i < inc.size(); ++i) inc[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(inc.data(), inc.size()), 0x46DD794Eu);
}

TEST(ChecksumTest, KnownVectorsHoldOnThePortablePath) {
  // The RFC 3720 vectors again, through the table loop directly: on a CPU
  // with a CRC instruction, `Crc32c` above ran the hardware path.
  EXPECT_EQ(Crc32cPortable("123456789", 9), 0xE3069283u);
  std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32cPortable(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32cPortable(ones.data(), ones.size()), 0x62A8AB43u);
  std::vector<uint8_t> inc(32);
  for (size_t i = 0; i < inc.size(); ++i) inc[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32cPortable(inc.data(), inc.size()), 0x46DD794Eu);
  EXPECT_EQ(Crc32cPortable(nullptr, 0), 0u);
}

TEST(ChecksumTest, MatchesPortableReference) {
  // Differential check of `Crc32c` against the table loop over random
  // lengths 0-70,000 (crossing every 8-byte tail length), start offsets
  // 0-7 (every alignment) and seeds.
  Random rng(20260117);
  std::vector<uint8_t> buf(70000 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (int trial = 0; trial < 400; ++trial) {
    const size_t offset = rng.Uniform(8);
    const size_t n = trial < 64 ? static_cast<size_t>(trial)
                                : rng.Uniform(70000 + 1);
    const uint32_t seed =
        trial % 2 == 0 ? 0 : static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Crc32c(buf.data() + offset, n, seed),
              Crc32cPortable(buf.data() + offset, n, seed))
        << "n=" << n << " offset=" << offset << " seed=" << seed;
  }
}

TEST(ChecksumTest, IncrementalSplitsAgreeAcrossPaths) {
  // A seeded computation split at every point gives the one-shot value,
  // whichever path computes each half.
  Random rng(7);
  std::vector<uint8_t> data(300);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.Next());
  const uint32_t seed = 0x9E3779B9u;
  const uint32_t whole = Crc32cPortable(data.data(), data.size(), seed);
  ASSERT_EQ(Crc32c(data.data(), data.size(), seed), whole);
  for (size_t split = 0; split <= data.size(); ++split) {
    const size_t rest = data.size() - split;
    const uint8_t* tail = data.data() + split;
    const uint32_t hw = Crc32c(data.data(), split, seed);
    const uint32_t sw = Crc32cPortable(data.data(), split, seed);
    ASSERT_EQ(hw, sw) << "split at " << split;
    EXPECT_EQ(Crc32c(tail, rest, hw), whole) << "split at " << split;
    EXPECT_EQ(Crc32cPortable(tail, rest, hw), whole) << "split at " << split;
  }
}

TEST(ChecksumTest, MatchesPortableReferenceAtStreamBlockBoundaries) {
  // The hardware path runs three streams over 3 x 8 KiB, then 3 x 256 B
  // blocks, and joins them; the tail runs one stream. Lengths at, just
  // around and at multiples of both group sizes, at every start offset,
  // seeded and unseeded, must agree with the table loop.
  std::vector<size_t> lengths;
  for (size_t group : {size_t{3 * 8192}, size_t{3 * 256}}) {
    for (size_t multiple : {1, 2, 3, 5}) {
      const size_t n = group * multiple;
      for (long delta : {-8L, -1L, 0L, 1L, 8L}) {
        lengths.push_back(static_cast<size_t>(static_cast<long>(n) + delta));
      }
    }
  }
  lengths.push_back(3 * 8192 + 3 * 256);
  lengths.push_back(3 * 8192 + 3 * 256 + 7);
  lengths.push_back(3 * 8192 - 3 * 256);
  Random rng(3 * 8192);
  std::vector<uint8_t> buf(5 * 3 * 8192 + 8 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t n : lengths) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (uint32_t seed : {0u, 0xC0FFEE11u}) {
        ASSERT_EQ(Crc32c(buf.data() + offset, n, seed),
                  Crc32cPortable(buf.data() + offset, n, seed))
            << "n=" << n << " offset=" << offset << " seed=" << seed;
      }
    }
  }
}

TEST(ChecksumTest, EmptyInputIsZero) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32c("x", 0), 0u);
}

TEST(ChecksumTest, IncrementalMatchesOneShot) {
  const std::string data =
      "the quick brown fox jumps over the lazy dog 0123456789";
  const uint32_t whole = Crc32c(data.data(), data.size());
  // Every split point must agree with the one-shot value.
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32c(data.data(), split);
    const uint32_t crc = Crc32c(data.data() + split, data.size() - split, head);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(ChecksumTest, SensitiveToEveryByte) {
  std::vector<uint8_t> buf(64, 0x5A);
  const uint32_t base = Crc32c(buf.data(), buf.size());
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] ^= 0x01;
    EXPECT_NE(Crc32c(buf.data(), buf.size()), base) << "flip at " << i;
    buf[i] ^= 0x01;
  }
}

}  // namespace
}  // namespace tilestore
