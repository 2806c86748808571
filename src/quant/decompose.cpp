#include "quant/decompose.hpp"

#include <algorithm>

namespace magicube::quant {

namespace {
/// Elements split per block: bounds the one-pass split's stack scratch.
constexpr std::size_t kSplitBlock = 256;
}  // namespace

void decompose_value(std::int32_t v, Scalar source, int chunk_bits,
                     std::int32_t* chunks_out) {
  MAGICUBE_CHECK(chunk_bits == 4 || chunk_bits == 8);
  const int nbits = bits_of(source);
  const int n = plane_count(source, chunk_bits);
  const std::uint32_t raw = encode_twos_complement(v, nbits);
  for (int i = 0; i < n; ++i) {
    const int lo = i * chunk_bits;
    const int width = (i == n - 1) ? nbits - lo : chunk_bits;
    const std::uint32_t chunk = (raw >> lo) & ((1u << width) - 1u);
    const bool top_signed = is_signed(source) && i == n - 1;
    chunks_out[i] = top_signed ? sign_extend(chunk, width)
                               : static_cast<std::int32_t>(chunk);
  }
}

PlaneSet decompose(const PackedBuffer& src, int chunk_bits) {
  MAGICUBE_CHECK(chunk_bits == 4 || chunk_bits == 8);
  MAGICUBE_CHECK_MSG(bits_of(src.type()) % chunk_bits == 0 || chunk_bits == 4,
                     "12-bit sources decompose into 4-bit chunks only");
  PlaneSet out;
  out.source_type = src.type();
  out.planes = make_planes(src.type(), chunk_bits, src.size());
  std::int32_t block[kSplitBlock];
  for (std::size_t b = 0; b < src.size(); b += kSplitBlock) {
    const std::size_t m = std::min(kSplitBlock, src.size() - b);
    src.decode(b, m, block);
    encode_planes(out.planes, chunk_bits, b, block, m);
  }
  return out;
}

std::vector<Plane> make_planes(Scalar source, int chunk_bits,
                               std::size_t count) {
  MAGICUBE_CHECK(chunk_bits == 4 || chunk_bits == 8);
  std::vector<Plane> out;
  if (bits_of(source) <= chunk_bits) {
    Plane p;
    p.values = PackedBuffer(count, source);
    p.is_signed = is_signed(source);
    out.push_back(std::move(p));
    return out;
  }
  const int n = plane_count(source, chunk_bits);
  const Scalar u_chunk = chunk_bits == 4 ? Scalar::u4 : Scalar::u8;
  const Scalar s_chunk = chunk_bits == 4 ? Scalar::s4 : Scalar::s8;
  out.reserve(static_cast<std::size_t>(n));
  std::int64_t weight = 1;
  for (int i = 0; i < n; ++i) {
    Plane p;
    p.is_signed = is_signed(source) && i == n - 1;
    p.weight = weight;
    p.values = PackedBuffer(count, p.is_signed ? s_chunk : u_chunk);
    out.push_back(std::move(p));
    weight <<= chunk_bits;
  }
  return out;
}

void encode_planes(std::vector<Plane>& planes, int chunk_bits,
                   std::size_t first, const std::int32_t* src,
                   std::size_t n) {
  if (planes.size() == 1) {
    planes.front().values.encode(first, src, n);
    return;
  }
  // Chunk i is bits [i * chunk_bits, (i + 1) * chunk_bits) of the two's
  // complement pattern; the top plane's encode keeps exactly the bits its
  // sign-extended chunk would store.
  const std::uint32_t mask = (1u << chunk_bits) - 1u;
  std::int32_t chunk[kSplitBlock];
  for (std::size_t b = 0; b < n; b += kSplitBlock) {
    const std::size_t m = std::min(kSplitBlock, n - b);
    for (std::size_t i = 0; i < planes.size(); ++i) {
      const std::size_t shift = i * static_cast<std::size_t>(chunk_bits);
      for (std::size_t e = 0; e < m; ++e) {
        chunk[e] = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(src[b + e]) >> shift & mask);
      }
      planes[i].values.encode(first + b, chunk, m);
    }
  }
}

}  // namespace magicube::quant
