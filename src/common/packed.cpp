#include "common/packed.hpp"

namespace magicube {

namespace {

/// Element value of a raw `bits`-wide pattern under the buffer's signedness.
inline std::int32_t widen(std::uint32_t raw, int bits, bool is_signed_type) {
  return is_signed_type ? sign_extend(raw, bits)
                        : static_cast<std::int32_t>(raw);
}

}  // namespace

void PackedBuffer::encode(std::size_t first, const std::int32_t* src,
                          std::size_t n) {
  MAGICUBE_DCHECK(first + n <= count_);
  const int bits = bits_of(type_);
  std::uint8_t* out = bytes_.data();
  // 4- and 12-bit elements pair up on byte boundaries from an even index;
  // an odd first element and an unpaired last one go through the scalar
  // description.
  std::size_t i = 0;
  if ((bits == 4 || bits == 12) && n > 0 && first % 2 != 0) {
    set_raw(first, encode_twos_complement(src[0], bits));
    i = 1;
  }
  switch (bits) {
    case 8:
      out += first;
      for (; i < n; ++i) out[i] = static_cast<std::uint8_t>(src[i]);
      return;
    case 16:
      out += 2 * first;
      for (; i < n; ++i) {
        const auto u = static_cast<std::uint32_t>(src[i]);
        out[2 * i] = static_cast<std::uint8_t>(u);
        out[2 * i + 1] = static_cast<std::uint8_t>(u >> 8);
      }
      return;
    case 4:
      out += (first + i) / 2;
      for (; i + 1 < n; i += 2) {
        *out++ = static_cast<std::uint8_t>((src[i] & 0xf) |
                                           (src[i + 1] & 0xf) << 4);
      }
      break;
    case 12:
      out += (first + i) / 2 * 3;
      for (; i + 1 < n; i += 2, out += 3) {
        const auto a = static_cast<std::uint32_t>(src[i]) & 0xfffu;
        const auto b = static_cast<std::uint32_t>(src[i + 1]) & 0xfffu;
        out[0] = static_cast<std::uint8_t>(a);
        out[1] = static_cast<std::uint8_t>(a >> 8 | (b & 0xfu) << 4);
        out[2] = static_cast<std::uint8_t>(b >> 4);
      }
      break;
  }
  if (i < n) set_raw(first + i, encode_twos_complement(src[i], bits));
}

void PackedBuffer::decode(std::size_t first, std::size_t n,
                          std::int32_t* dst) const {
  MAGICUBE_DCHECK(first + n <= count_);
  const int bits = bits_of(type_);
  const bool sgn = is_signed(type_);
  const std::uint8_t* in = bytes_.data();
  std::size_t i = 0;
  if ((bits == 4 || bits == 12) && n > 0 && first % 2 != 0) {
    dst[0] = get(first);
    i = 1;
  }
  switch (bits) {
    case 8:
      in += first;
      for (; i < n; ++i) dst[i] = widen(in[i], 8, sgn);
      return;
    case 16:
      in += 2 * first;
      for (; i < n; ++i) {
        dst[i] = widen(static_cast<std::uint32_t>(in[2 * i]) |
                           static_cast<std::uint32_t>(in[2 * i + 1]) << 8,
                       16, sgn);
      }
      return;
    case 4:
      in += (first + i) / 2;
      for (; i + 1 < n; i += 2, ++in) {
        dst[i] = widen(*in & 0xfu, 4, sgn);
        dst[i + 1] = widen(static_cast<std::uint32_t>(*in) >> 4, 4, sgn);
      }
      break;
    case 12:
      in += (first + i) / 2 * 3;
      for (; i + 1 < n; i += 2, in += 3) {
        const std::uint32_t b0 = in[0], b1 = in[1], b2 = in[2];
        dst[i] = widen(b0 | (b1 & 0xfu) << 8, 12, sgn);
        dst[i + 1] = widen(b1 >> 4 | b2 << 4, 12, sgn);
      }
      break;
  }
  if (i < n) dst[i] = get(first + i);
}

}  // namespace magicube
