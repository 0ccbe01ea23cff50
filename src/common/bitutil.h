// Bit-manipulation helpers used by the ISA encoder/decoder and simulators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/error.h"

namespace indexmac {

/// Extract bits [hi:lo] (inclusive) of `value`, right-aligned.
constexpr std::uint32_t bits(std::uint32_t value, unsigned hi, unsigned lo) {
  return (value >> lo) & ((hi - lo == 31u) ? ~0u : ((1u << (hi - lo + 1)) - 1u));
}

/// Extract a single bit.
constexpr std::uint32_t bit(std::uint32_t value, unsigned pos) { return (value >> pos) & 1u; }

/// Sign-extend the low `width` bits of `value` to 64 bits.
constexpr std::int64_t sign_extend(std::uint64_t value, unsigned width) {
  const std::uint64_t mask = (width >= 64) ? ~0ull : ((1ull << width) - 1ull);
  const std::uint64_t sign = 1ull << (width - 1);
  const std::uint64_t v = value & mask;
  return static_cast<std::int64_t>((v ^ sign) - sign);
}

/// True if `value` fits in a signed immediate of `width` bits.
constexpr bool fits_signed(std::int64_t value, unsigned width) {
  const std::int64_t lo = -(std::int64_t{1} << (width - 1));
  const std::int64_t hi = (std::int64_t{1} << (width - 1)) - 1;
  return value >= lo && value <= hi;
}

/// True if `value` fits in an unsigned immediate of `width` bits.
constexpr bool fits_unsigned(std::uint64_t value, unsigned width) {
  return width >= 64 || value < (1ull << width);
}

/// True if `v` is a power of two (and non-zero).
constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// log2 of a power of two.
constexpr unsigned log2_exact(std::uint64_t v) {
  unsigned n = 0;
  while (v > 1) {
    v >>= 1;
    ++n;
  }
  return n;
}

/// Round `v` up to a multiple of `m` (m > 0).
constexpr std::uint64_t round_up(std::uint64_t v, std::uint64_t m) {
  return ((v + m - 1) / m) * m;
}

/// Ceiling division for positive integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; }

/// CRC-32 (reflected polynomial 0xEDB88320, the zlib/PNG variant) over
/// `size` bytes, seedable for incremental computation. Guards the
/// result-store journal records against on-disk corruption.
inline std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    for (int b = 0; b < 8; ++b) crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return ~crc;
}

/// FNV-1a 64-bit offset basis: the seed of a fresh hash.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/// FNV-1a (64-bit) over `data`, chainable by passing a previous result as
/// `h`. Keys the sweep result cache, shard ownership and the grid hash.
constexpr std::uint64_t fnv1a(std::string_view data, std::uint64_t h = kFnv1aBasis) {
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace indexmac
