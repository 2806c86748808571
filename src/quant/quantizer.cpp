#include "quant/quantizer.hpp"

#include <algorithm>
#include <array>

namespace magicube::quant {

QuantParams choose_symmetric(const float* data, std::size_t n, Scalar type) {
  MAGICUBE_CHECK_MSG(is_signed(type) && is_integer(type),
                     "symmetric quantization targets signed integers");
  float amax = 0.0f;
  for (std::size_t i = 0; i < n; ++i) amax = std::max(amax, std::fabs(data[i]));
  QuantParams p;
  p.type = type;
  p.zero_point = 0;
  const float qmax = static_cast<float>(max_value(type));
  p.scale = amax > 0.0f ? amax / qmax : 1.0f;
  return p;
}

QuantParams choose_asymmetric(const float* data, std::size_t n, Scalar type) {
  MAGICUBE_CHECK_MSG(!is_signed(type) && is_integer(type),
                     "asymmetric quantization targets unsigned integers");
  float lo = 0.0f, hi = 0.0f;
  if (n > 0) {
    lo = hi = data[0];
    for (std::size_t i = 1; i < n; ++i) {
      lo = std::min(lo, data[i]);
      hi = std::max(hi, data[i]);
    }
  }
  lo = std::min(lo, 0.0f);  // representable zero keeps padding exact
  hi = std::max(hi, 0.0f);
  QuantParams p;
  p.type = type;
  const float qmax = static_cast<float>(max_value(type));
  p.scale = hi > lo ? (hi - lo) / qmax : 1.0f;
  p.zero_point =
      static_cast<std::int32_t>(std::lround(-lo / p.scale));
  p.zero_point = std::clamp(p.zero_point, min_value(type), max_value(type));
  return p;
}

std::int32_t quantize_value(float x, const QuantParams& p) {
  const float q = x / p.scale + static_cast<float>(p.zero_point);
  const long r = std::lround(q);
  return static_cast<std::int32_t>(
      std::clamp<long>(r, min_value(p.type), max_value(p.type)));
}

PackedBuffer quantize(const Matrix<float>& m, const QuantParams& p) {
  PackedBuffer out(m.size(), p.type);
  std::array<std::int32_t, 256> block{};
  for (std::size_t b = 0; b < m.size(); b += block.size()) {
    const std::size_t n = std::min(block.size(), m.size() - b);
    for (std::size_t i = 0; i < n; ++i) {
      block[i] = quantize_value(m.data()[b + i], p);
    }
    out.encode(b, block.data(), n);
  }
  return out;
}

Matrix<float> dequantize(const PackedBuffer& q, std::size_t rows,
                         std::size_t cols, const QuantParams& p) {
  MAGICUBE_CHECK(q.size() == rows * cols);
  Matrix<float> out(rows, cols);
  std::array<std::int32_t, 256> block{};
  for (std::size_t b = 0; b < q.size(); b += block.size()) {
    const std::size_t n = std::min(block.size(), q.size() - b);
    q.decode(b, n, block.data());
    for (std::size_t i = 0; i < n; ++i) {
      out.data()[b + i] = dequantize_value(block[i], p);
    }
  }
  return out;
}

}  // namespace magicube::quant
