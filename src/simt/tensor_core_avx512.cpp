// AVX-512 instantiation of the block-panel micro-kernels (see
// panel_kernels.inc). This translation unit is compiled with
// -mavx512f -mavx512bw -mavx512dq -mavx512vl on x86-64 GCC/Clang builds
// when MAGICUBE_SIMD is on; tensor_core.cpp dispatches into it only after
// __builtin_cpu_supports confirms all four feature bits at runtime (checked
// before the AVX2 instantiation), so the binary stays safe on older cores.
// MAGICUBE_PANEL_VEC512 lays the 64-column C strips out in 16-lane
// registers — half the register pressure and half the fma issues of the
// 8-lane layout. The avx512vnni flavor reuses every kernel of this
// instantiation except the byte-operand ones. On other targets (or with
// MAGICUBE_SIMD off) the unit compiles empty and is never referenced.

#include <cstddef>
#include <cstdint>

#include "simt/tensor_core.hpp"

#if defined(MAGICUBE_SIMD) && MAGICUBE_SIMD && \
    (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)

namespace magicube::simt::panel_detail::avx512 {

#define MAGICUBE_PANEL_VEC 1
#define MAGICUBE_PANEL_VEC512 1
#include "simt/panel_kernels.inc"
#undef MAGICUBE_PANEL_VEC
#undef MAGICUBE_PANEL_VEC512

}  // namespace magicube::simt::panel_detail::avx512

#endif
