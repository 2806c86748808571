#pragma once
// Packed storage for sub-byte and multi-nibble integers.
//
// CUDA has no 4-bit scalar type: int4 operands live packed eight-per-int32
// in registers and memory, and the kernels in this repo manipulate them the
// same way. PackedBuffer owns a byte array and exposes get/set at a given
// bit width (4, 8, 12 or 16, matching common/precision.hpp); 4-bit elements
// are packed low-nibble-first within each byte exactly as the PTX mma
// fragment layout expects.

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/precision.hpp"

namespace magicube {

/// Sign-extend the low `bits` of `v` to int32.
constexpr std::int32_t sign_extend(std::uint32_t v, int bits) {
  const std::uint32_t m = 1u << (bits - 1);
  const std::uint32_t x = v & ((bits == 32) ? ~0u : ((1u << bits) - 1u));
  return static_cast<std::int32_t>((x ^ m) - m);
}

/// Encode an int32 value into the low `bits` two's-complement pattern.
constexpr std::uint32_t encode_twos_complement(std::int32_t v, int bits) {
  return static_cast<std::uint32_t>(v) &
         ((bits == 32) ? ~0u : ((1u << bits) - 1u));
}

/// A dynamically sized array of fixed-width integer elements packed
/// back-to-back in memory. Width 12 is stored as packed 12-bit fields
/// (one and a half bytes) — the format layer decides whether to keep
/// 12-bit operands packed or pre-decomposed into nibble planes.
class PackedBuffer {
 public:
  PackedBuffer() = default;
  PackedBuffer(std::size_t count, Scalar type)
      : type_(type), count_(count),
        bytes_((count * static_cast<std::size_t>(bits_of(type)) + 7) / 8, 0) {
    MAGICUBE_CHECK_MSG(is_integer(type), "PackedBuffer holds integers only");
  }

  Scalar type() const { return type_; }
  std::size_t size() const { return count_; }
  std::size_t byte_size() const { return bytes_.size(); }
  const std::uint8_t* data() const { return bytes_.data(); }
  std::uint8_t* data() { return bytes_.data(); }

  /// Raw (unsigned) bit pattern of element i.
  std::uint32_t get_raw(std::size_t i) const {
    MAGICUBE_DCHECK(i < count_);
    const int bits = bits_of(type_);
    const std::size_t bit_off = i * static_cast<std::size_t>(bits);
    std::uint32_t out = 0;
    for (int b = 0; b < bits; ++b) {
      const std::size_t pos = bit_off + static_cast<std::size_t>(b);
      const std::uint32_t bit = (bytes_[pos >> 3] >> (pos & 7)) & 1u;
      out |= bit << b;
    }
    return out;
  }

  void set_raw(std::size_t i, std::uint32_t raw) {
    MAGICUBE_DCHECK(i < count_);
    const int bits = bits_of(type_);
    const std::size_t bit_off = i * static_cast<std::size_t>(bits);
    for (int b = 0; b < bits; ++b) {
      const std::size_t pos = bit_off + static_cast<std::size_t>(b);
      const std::uint8_t mask = static_cast<std::uint8_t>(1u << (pos & 7));
      if ((raw >> b) & 1u) {
        bytes_[pos >> 3] |= mask;
      } else {
        bytes_[pos >> 3] &= static_cast<std::uint8_t>(~mask);
      }
    }
  }

  /// Bulk set(): stores src[0, n) as elements [first, first + n), byte-equal
  /// to n set_raw(encode_twos_complement(v)) calls — set_raw/get_raw stay
  /// the bit-serial description this is tested against. Width-specialized:
  /// 8-bit narrows and stores, 4-bit packs nibble pairs, 16-bit writes
  /// little-endian halves, 12-bit writes three-byte pairs. Values keep only
  /// their low bits_of(type()) bits (in range for the type, as for set()).
  void encode(std::size_t first, const std::int32_t* src, std::size_t n);

  /// Bulk get(): elements [first, first + n) into dst[0, n), interpreted
  /// per the buffer's scalar type.
  void decode(std::size_t first, std::size_t n, std::int32_t* dst) const;

  /// Element i interpreted per the buffer's scalar type.
  std::int32_t get(std::size_t i) const {
    const std::uint32_t raw = get_raw(i);
    return is_signed(type_) ? sign_extend(raw, bits_of(type_))
                            : static_cast<std::int32_t>(raw);
  }

  /// Stores v (must be representable in the scalar type).
  void set(std::size_t i, std::int32_t v) {
    MAGICUBE_DCHECK(v >= min_value(type_) && v <= max_value(type_));
    set_raw(i, encode_twos_complement(v, bits_of(type_)));
  }

  friend bool operator==(const PackedBuffer& a, const PackedBuffer& b) {
    return a.type_ == b.type_ && a.count_ == b.count_ && a.bytes_ == b.bytes_;
  }

 private:
  Scalar type_ = Scalar::s8;
  std::size_t count_ = 0;
  std::vector<std::uint8_t> bytes_;
};

// ---- Nibble helpers used by the int4 register-transpose kernels ----------

/// Low nibble of a byte as unsigned [0,15].
constexpr std::uint32_t lo_nibble(std::uint8_t b) { return b & 0x0fu; }
/// High nibble of a byte as unsigned [0,15].
constexpr std::uint32_t hi_nibble(std::uint8_t b) { return (b >> 4) & 0x0fu; }

/// Packs eight 4-bit raw patterns (element 0 in the lowest nibble) into a u32,
/// mirroring how a thread's int4 mma fragment occupies one register.
constexpr std::uint32_t pack_nibbles8(const std::uint32_t (&n)[8]) {
  std::uint32_t out = 0;
  for (int i = 0; i < 8; ++i) out |= (n[i] & 0xfu) << (4 * i);
  return out;
}

/// Extracts nibble i (0 = lowest) of a u32.
constexpr std::uint32_t nibble_of(std::uint32_t word, int i) {
  return (word >> (4 * i)) & 0xfu;
}

/// Packs four bytes (element 0 lowest) into a u32 — one int8 fragment register.
constexpr std::uint32_t pack_bytes4(const std::uint32_t (&b)[4]) {
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) out |= (b[i] & 0xffu) << (8 * i);
  return out;
}

/// Extracts byte i (0 = lowest) of a u32.
constexpr std::uint32_t byte_of(std::uint32_t word, int i) {
  return (word >> (8 * i)) & 0xffu;
}

}  // namespace magicube
