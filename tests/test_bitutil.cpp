#include "common/bitutil.h"

#include <gtest/gtest.h>

namespace indexmac {
namespace {

TEST(BitUtil, BitsExtractsInclusiveRange) {
  EXPECT_EQ(bits(0xDEADBEEF, 31, 28), 0xDu);
  EXPECT_EQ(bits(0xDEADBEEF, 7, 0), 0xEFu);
  EXPECT_EQ(bits(0xDEADBEEF, 31, 0), 0xDEADBEEFu);
  EXPECT_EQ(bits(0b1010, 3, 1), 0b101u);
}

TEST(BitUtil, BitExtractsSingle) {
  EXPECT_EQ(bit(0b100, 2), 1u);
  EXPECT_EQ(bit(0b100, 1), 0u);
}

TEST(BitUtil, SignExtendPositive) { EXPECT_EQ(sign_extend(0x7ff, 12), 0x7ff); }
TEST(BitUtil, SignExtendNegative) { EXPECT_EQ(sign_extend(0xfff, 12), -1); }
TEST(BitUtil, SignExtendMinValue) { EXPECT_EQ(sign_extend(0x800, 12), -2048); }
TEST(BitUtil, SignExtendFullWidthIsIdentity) {
  EXPECT_EQ(sign_extend(0xffffffffffffffffull, 64), -1);
}

TEST(BitUtil, FitsSignedBounds) {
  EXPECT_TRUE(fits_signed(2047, 12));
  EXPECT_TRUE(fits_signed(-2048, 12));
  EXPECT_FALSE(fits_signed(2048, 12));
  EXPECT_FALSE(fits_signed(-2049, 12));
}

TEST(BitUtil, FitsUnsignedBounds) {
  EXPECT_TRUE(fits_unsigned(31, 5));
  EXPECT_FALSE(fits_unsigned(32, 5));
  EXPECT_TRUE(fits_unsigned(~0ull, 64));
}

TEST(BitUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

TEST(BitUtil, Log2Exact) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(64), 6u);
}

TEST(BitUtil, RoundUpAndCeilDiv) {
  EXPECT_EQ(round_up(0, 16), 0u);
  EXPECT_EQ(round_up(1, 16), 16u);
  EXPECT_EQ(round_up(16, 16), 16u);
  EXPECT_EQ(ceil_div(17, 16), 2u);
  EXPECT_EQ(ceil_div(16, 16), 1u);
}

TEST(BitUtil, Crc32MatchesKnownVectors) {
  // Reference values of the zlib/PNG CRC-32 (reflected 0xEDB88320).
  EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);  // the classic check value
  EXPECT_EQ(crc32("a", 1), 0xE8B7BE43u);
  // Seedable incremental computation equals the one-shot digest.
  const std::uint32_t part = crc32("12345", 5);
  EXPECT_EQ(crc32("6789", 4, part), crc32("123456789", 9));
  // Single-bit corruption is detected.
  EXPECT_NE(crc32("123456789", 9), crc32("123456788", 9));
}

TEST(BitUtil, Fnv1aMatchesKnownVectors) {
  // Reference values of 64-bit FNV-1a.
  EXPECT_EQ(fnv1a(""), kFnv1aBasis);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
  // Chaining through `h` equals hashing the concatenation.
  EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
}

}  // namespace
}  // namespace indexmac
