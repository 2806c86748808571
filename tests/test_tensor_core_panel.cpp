// Property suite for the block-panel replay micro-kernels
// (simt::mma_panel_n64 and the other bucket kernels, simt::dot_packed /
// dot_wrap, the decode_span family and the panel epilogue).
//
// The panel kernels' contract is bit-exactness with the hardware mma they
// replay: accumulating C[8 x 64] += A * B over a panel of 8 adjacent
// 8-column tiles must reproduce, bit for bit, the counted mma_m8n8k16/k32
// reference — including int32 wraparound, which the suite pins by seeding
// accumulators at and around INT32_MIN/INT32_MAX and chaining multiple
// accumulation steps. Random operands sweep both datapaths (int8, int4)
// and all signedness combinations; SIMD and scalar builds must pass
// identically (MAGICUBE_SIMD only changes instruction selection, never
// bits).
//
// Every flavor the host can run is checked, not just the one dispatch
// picks: the suites iterate simt::panel_flavors() and assert each flavor's
// kernels (the "impl") against a plain scalar description of the same
// arithmetic (the "desc"), in the tensorize desc/impl pairing.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "common/packed.hpp"
#include "common/rng.hpp"
#include "simt/counters.hpp"
#include "simt/panel_flavors.hpp"
#include "simt/tensor_core.hpp"

namespace magicube::simt {
namespace {

WarpReg random_reg(Rng& rng) {
  WarpReg r{};
  for (auto& w : r) w = static_cast<std::uint32_t>(rng.next_u64());
  return r;
}

/// Accumulator seeds biased toward the wraparound edges.
std::int32_t random_acc(Rng& rng) {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  switch (rng.next_below(6)) {
    case 0: return kMax;
    case 1: return kMin;
    case 2: return kMax - static_cast<std::int32_t>(rng.next_below(1024));
    case 3: return kMin + static_cast<std::int32_t>(rng.next_below(1024));
    case 4: return 0;
    default:
      return static_cast<std::int32_t>(
          rng.next_in(std::numeric_limits<std::int32_t>::min(),
                      std::numeric_limits<std::int32_t>::max()));
  }
}

/// Every flavor of the panel kernels this host can run (at least "base").
std::vector<const PanelFlavor*> host_flavors() {
  std::vector<const PanelFlavor*> out;
  for (const PanelFlavor& f : panel_flavors()) {
    if (f.supported) out.push_back(&f);
  }
  return out;
}

struct PanelCase {
  bool int4 = false;
  bool a_signed = true;
  bool b_signed = true;
};

class PanelPropertyTest : public ::testing::TestWithParam<PanelCase> {};

std::string panel_case_name(const ::testing::TestParamInfo<PanelCase>& info) {
  const PanelCase& c = info.param;
  return std::string(c.int4 ? "int4" : "int8") + (c.a_signed ? "_sA" : "_uA") +
         (c.b_signed ? "_sB" : "_uB");
}

Scalar scalar_of(bool int4, bool is_signed) {
  if (int4) return is_signed ? Scalar::s4 : Scalar::u4;
  return is_signed ? Scalar::s8 : Scalar::u8;
}

unsigned a_sign_bit(bool a_signed) {
  return a_signed ? kPanelASigned : kPanelAUnsigned;
}

/// Raw element kk of fragment row-or-column r (A: row r of a row-major
/// 8 x k; B: column r of a col-major k x 8): lane r * 4 + kk / e holds it
/// as element kk % e, element 0 in the low bits (Fig. 1).
std::uint32_t frag_raw(const WarpReg& frag, int r, int kk, bool int4) {
  const int e = int4 ? 8 : 4;
  const int bits = int4 ? 4 : 8;
  return (frag[static_cast<std::size_t>(r * 4 + kk / e)] >>
          (bits * (kk % e))) &
         ((1u << bits) - 1u);
}

// Chained panel steps over the 8 column tiles of a 64-column block must
// match the counted mma reference, bit for bit, from wraparound-edge
// accumulator seeds. Both read the same random fragment registers: the
// panel's A rows are the A fragment's packed row bytes and its B rows are
// the B fragments' columns repacked row by row — the link from every
// flavor's byte kernels to the hardware mma semantics.
TEST_P(PanelPropertyTest, MatchesDecodedAndCountedMma) {
  const PanelCase& c = GetParam();
  Rng rng(0x9a7e1 + (c.int4 ? 4 : 8) + 2 * c.a_signed + c.b_signed);
  const int k = c.int4 ? 32 : 16;
  constexpr int kTiles = 8;  // 64 columns
  KernelCounters kc;
  const auto flavors = host_flavors();

  for (int trial = 0; trial < 40; ++trial) {
    const int steps = 1 + static_cast<int>(rng.next_below(3));

    // Initial accumulators per tile, shared by the counted and panel paths.
    std::vector<AccumFrag> counted(kTiles);
    for (auto& acc : counted) {
      for (auto& lane : acc.c) lane = {random_acc(rng), random_acc(rng)};
    }
    std::vector<std::uint32_t> panel_acc(8 * 64);
    for (int t = 0; t < kTiles; ++t) {
      const Matrix<std::int32_t> m =
          accum_to_matrix(counted[static_cast<std::size_t>(t)]);
      for (int r = 0; r < 8; ++r) {
        for (int col = 0; col < 8; ++col) {
          panel_acc[static_cast<std::size_t>(r * 64 + 8 * t + col)] =
              static_cast<std::uint32_t>(m(static_cast<std::size_t>(r),
                                           static_cast<std::size_t>(col)));
        }
      }
    }
    std::vector<std::vector<std::uint32_t>> flavor_acc(flavors.size(),
                                                       panel_acc);

    for (int st = 0; st < steps; ++st) {
      const WarpReg a_frag = random_reg(rng);
      std::vector<WarpReg> b_frags(kTiles);
      for (auto& frag : b_frags) frag = random_reg(rng);

      // Counted reference: one mma per column tile.
      for (int t = 0; t < kTiles; ++t) {
        AccumFrag& dst = counted[static_cast<std::size_t>(t)];
        if (c.int4) {
          mma_m8n8k32(dst, a_frag, b_frags[static_cast<std::size_t>(t)], dst,
                      c.a_signed, c.b_signed, kc);
        } else {
          mma_m8n8k16(dst, a_frag, b_frags[static_cast<std::size_t>(t)], dst,
                      c.a_signed, c.b_signed, kc);
        }
      }

      // A row r's packed bytes: the little-endian bytes of lanes 4r..4r+3.
      std::array<std::array<std::uint8_t, 16>, 8> a_bytes{};
      for (int r = 0; r < 8; ++r) {
        for (int j = 0; j < 16; ++j) {
          a_bytes[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)] =
              static_cast<std::uint8_t>(
                  a_frag[static_cast<std::size_t>(r * 4 + j / 4)] >>
                  (8 * (j % 4)));
        }
      }
      // B reduction row kk across the 64 columns, packed at operand width.
      std::vector<PackedBuffer> b_rows;
      for (int kk = 0; kk < k; ++kk) {
        PackedBuffer row(64, scalar_of(c.int4, c.b_signed));
        for (int t = 0; t < kTiles; ++t) {
          for (int col = 0; col < 8; ++col) {
            row.set_raw(static_cast<std::size_t>(8 * t + col),
                        frag_raw(b_frags[static_cast<std::size_t>(t)], col, kk,
                                 c.int4));
          }
        }
        b_rows.push_back(std::move(row));
      }
      std::array<const std::uint8_t*, 32> rows{};
      for (int kk = 0; kk < k; ++kk) {
        rows[static_cast<std::size_t>(kk)] =
            b_rows[static_cast<std::size_t>(kk)].data();
      }

      // The dispatched kernels, then every host flavor's own.
      PanelA a;
      a.k = k;
      a.is_signed = c.a_signed;
      for (int r = 0; r < 8; ++r) {
        load_panel_a_row(a_bytes[static_cast<std::size_t>(r)].data(), c.int4,
                         /*biased=*/false, r, a);
      }
      PanelB packed;
      pack_panel_b(rows.data(), k, c.int4, c.b_signed, a_sign_bit(c.a_signed),
                   packed);
      mma_panel_n64(panel_acc.data(), a, packed, 8);
      for (std::size_t f = 0; f < flavors.size(); ++f) {
        PanelA fa;
        fa.k = k;
        fa.is_signed = c.a_signed;
        for (int r = 0; r < 8; ++r) {
          flavors[f]->load_panel_a_row(
              a_bytes[static_cast<std::size_t>(r)].data(), c.int4,
              /*biased=*/false, r, fa);
        }
        PanelB fb;
        flavors[f]->pack_panel_b(rows.data(), k, c.int4, c.b_signed,
                                 a_sign_bit(c.a_signed), fb);
        flavors[f]->mma_panel_n64(flavor_acc[f].data(), fa, fb, 8);
      }
    }
    for (std::size_t f = 0; f < flavors.size(); ++f) {
      EXPECT_EQ(flavor_acc[f], panel_acc)
          << flavors[f]->name << " trial " << trial;
    }

    for (int t = 0; t < kTiles; ++t) {
      const Matrix<std::int32_t> want =
          accum_to_matrix(counted[static_cast<std::size_t>(t)]);
      for (int r = 0; r < 8; ++r) {
        for (int col = 0; col < 8; ++col) {
          EXPECT_EQ(static_cast<std::int32_t>(
                        panel_acc[static_cast<std::size_t>(r * 64 + 8 * t +
                                                           col)]),
                    want(static_cast<std::size_t>(r),
                         static_cast<std::size_t>(col)))
              << "trial " << trial << " tile " << t << " (" << r << ", "
              << col << ")";
        }
      }
    }
  }
  EXPECT_GT(kc.mma_int8 + kc.mma_int4, 0u);  // counted engine really counted
}

INSTANTIATE_TEST_SUITE_P(
    DatapathsAndSignedness, PanelPropertyTest,
    ::testing::Values(PanelCase{false, true, true},
                      PanelCase{false, true, false},
                      PanelCase{false, false, true},
                      PanelCase{false, false, false},
                      PanelCase{true, true, true},
                      PanelCase{true, true, false},
                      PanelCase{true, false, true},
                      PanelCase{true, false, false}),
    panel_case_name);

// ---- dot_wrap -------------------------------------------------------------

TEST(DotWrap, MatchesWideReferenceModulo2e32) {
  Rng rng(0xd07);
  const auto flavors = host_flavors();
  for (const std::size_t k : {std::size_t{7}, std::size_t{16},
                              std::size_t{64}, std::size_t{200}}) {
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<std::int32_t> a(k), b(k);
      for (auto& v : a) v = random_acc(rng);
      for (auto& v : b) v = random_acc(rng);
      const std::int32_t acc = random_acc(rng);
      std::uint64_t want = static_cast<std::uint32_t>(acc);
      for (std::size_t i = 0; i < k; ++i) {
        want += static_cast<std::uint64_t>(
            static_cast<std::int64_t>(a[i]) * static_cast<std::int64_t>(b[i]));
      }
      const auto want32 =
          static_cast<std::int32_t>(static_cast<std::uint32_t>(want));
      EXPECT_EQ(dot_wrap(a.data(), b.data(), k, acc), want32)
          << "k=" << k << " trial " << trial;
      for (const PanelFlavor* f : flavors) {
        EXPECT_EQ(f->dot_wrap(a.data(), b.data(), k, acc), want32)
            << f->name << " k=" << k << " trial " << trial;
      }
    }
  }
}

// ---- decode_span family ---------------------------------------------------

TEST(DecodeSpan, Int8MatchesPackedBuffer) {
  Rng rng(0xdec8);
  for (const Scalar type : {Scalar::s8, Scalar::u8}) {
    PackedBuffer buf(100, type);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf.set_raw(i, static_cast<std::uint32_t>(rng.next_u64()) & 0xffu);
    }
    for (const PanelFlavor* f : host_flavors()) {
      std::vector<std::int32_t> dst(buf.size());
      f->decode_span_int8(buf.data(), buf.size(), is_signed(type), dst.data());
      for (std::size_t i = 0; i < buf.size(); ++i) {
        EXPECT_EQ(dst[i], buf.get(i)) << f->name << " " << to_string(type)
                                      << " @" << i;
      }
    }
  }
}

TEST(DecodeSpan, Int4MatchesPackedBuffer) {
  Rng rng(0xdec4);
  for (const Scalar type : {Scalar::s4, Scalar::u4}) {
    PackedBuffer buf(120, type);  // 60 bytes: exercises SIMD body + tail
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf.set_raw(i, static_cast<std::uint32_t>(rng.next_u64()) & 0xfu);
    }
    for (const PanelFlavor* f : host_flavors()) {
      std::vector<std::int32_t> dst(buf.size());
      f->decode_span_int4(buf.data(), buf.size(), is_signed(type), dst.data());
      for (std::size_t i = 0; i < buf.size(); ++i) {
        EXPECT_EQ(dst[i], buf.get(i)) << f->name << " " << to_string(type)
                                      << " @" << i;
      }
    }
  }
}

TEST(DecodeSpan, BiasedIsSignedPlusExcess) {
  // The stacked top plane's bias encoding: raw ^ msb read unsigned equals
  // the signed value plus 2^(bits-1).
  Rng rng(0xb1a5);
  PackedBuffer buf8(77, Scalar::s8);
  for (std::size_t i = 0; i < buf8.size(); ++i) {
    buf8.set_raw(i, static_cast<std::uint32_t>(rng.next_u64()) & 0xffu);
  }
  PackedBuffer buf4(90, Scalar::s4);
  for (std::size_t i = 0; i < buf4.size(); ++i) {
    buf4.set_raw(i, static_cast<std::uint32_t>(rng.next_u64()) & 0xfu);
  }
  for (const PanelFlavor* f : host_flavors()) {
    std::vector<std::int32_t> dst8(buf8.size());
    f->decode_span_int8_biased(buf8.data(), buf8.size(), dst8.data());
    for (std::size_t i = 0; i < buf8.size(); ++i) {
      EXPECT_EQ(dst8[i], buf8.get(i) + 128) << f->name << " @" << i;
    }
    std::vector<std::int32_t> dst4(buf4.size());
    f->decode_span_int4_biased(buf4.data(), buf4.size(), dst4.data());
    for (std::size_t i = 0; i < buf4.size(); ++i) {
      EXPECT_EQ(dst4[i], buf4.get(i) + 8) << f->name << " @" << i;
    }
  }
}

// A PanelA row holds the values decode_span (or its biased variant) would
// produce, as bytes in the row's domain, plus their exact sum.
TEST(DecodeSpan, PanelARowMatchesDecodeSpan) {
  Rng rng(0xa70a);
  for (const PanelFlavor* f : host_flavors()) {
    for (const bool int4 : {false, true}) {
      const int k = int4 ? 32 : 16;
      for (int mode = 0; mode < 3; ++mode) {  // signed, unsigned, biased
        const bool biased = mode == 2;
        const bool is_signed = mode == 0;
        PackedBuffer buf(static_cast<std::size_t>(k),
                         int4 ? (mode == 1 ? Scalar::u4 : Scalar::s4)
                              : (mode == 1 ? Scalar::u8 : Scalar::s8));
        for (std::size_t i = 0; i < buf.size(); ++i) {
          buf.set_raw(i, static_cast<std::uint32_t>(rng.next_u64()) &
                             (int4 ? 0xfu : 0xffu));
        }
        std::vector<std::int32_t> want(buf.size());
        if (biased) {
          (int4 ? f->decode_span_int4_biased : f->decode_span_int8_biased)(
              buf.data(), buf.size(), want.data());
        } else {
          (int4 ? f->decode_span_int4 : f->decode_span_int8)(
              buf.data(), buf.size(), is_signed, want.data());
        }
        PanelA a;
        a.k = k;
        a.is_signed = is_signed;
        a.prefix[3].fill(-1);
        a.prefix[5].fill(-1);
        f->load_panel_a_row(buf.data(), int4, biased, 3, a);
        f->load_panel_a_row(nullptr, int4, biased, 5, a);
        std::int32_t sum = 0;
        for (int kk = 0; kk < k; ++kk) {
          if (kk % 4 == 0 && kk > 0) {
            EXPECT_EQ(a.prefix[3][static_cast<std::size_t>(kk / 4 - 1)], sum)
                << f->name << " mode " << mode << " quad " << kk / 4 - 1;
          }
          const std::uint8_t byte = a.v[3][static_cast<std::size_t>(kk)];
          const std::int32_t got =
              is_signed ? static_cast<std::int8_t>(byte) : byte;
          EXPECT_EQ(got, want[static_cast<std::size_t>(kk)])
              << f->name << (int4 ? " int4" : " int8") << " mode " << mode
              << " @" << kk;
          EXPECT_EQ(a.v[5][static_cast<std::size_t>(kk)], 0);
          sum += want[static_cast<std::size_t>(kk)];
        }
        EXPECT_EQ(a.prefix[3][static_cast<std::size_t>(k / 4 - 1)], sum)
            << f->name << " mode " << mode;
        for (int q = 0; q < k / 4; ++q) {
          EXPECT_EQ(a.prefix[5][static_cast<std::size_t>(q)], 0);
        }
      }
    }
  }
}

// ---- byte-operand bucket kernels (plan-time replay dispatch) --------------
//
// The bucket kernels take A as a PanelA (bytes) and B as packed plane bytes
// that each flavor repacks into its own PanelB layout (32-bit lanes, or
// quad-interleaved bytes for vpdpbusd). Every host flavor must match the
// scalar description below bit for bit mod 2^32, from wraparound-edge
// accumulator seeds, for every signedness pair — including u8 x u8 and
// s8 x s8, which the VNNI flavor runs with a flipped B and a row-sum
// correction. CI's MAGICUBE_SIMD=OFF leg pins the scalar fallback to the
// identical expectations.

/// Value range of one operand's byte domain.
struct Domain {
  std::int32_t lo, hi;
};
Domain domain_of(bool int4, bool is_signed) {
  if (int4) return is_signed ? Domain{-8, 7} : Domain{0, 15};
  return is_signed ? Domain{-128, 127} : Domain{0, 255};
}

/// A domain value: uniform, or (extreme) only the domain's end points —
/// mostly the end of larger magnitude (-128/255, -8/15), so products share
/// a sign and a long reduction wraps the accumulator soonest.
std::int32_t domain_value(Rng& rng, Domain d, bool extreme) {
  if (!extreme) return static_cast<std::int32_t>(rng.next_in(d.lo, d.hi));
  const std::int32_t big = -d.lo > d.hi ? d.lo : d.hi;
  const std::int32_t other = big == d.lo ? d.hi : d.lo;
  return rng.next_below(8) == 0 ? other : big;
}

/// One replay step's operands: A as values and its PanelA, B as packed
/// 64-column rows (nullptr = padded) plus their values.
struct StepOperands {
  std::array<std::array<std::int32_t, 32>, 8> a_vals{};  // [row][k]
  PanelA a;
  std::vector<PackedBuffer> storage;
  std::array<const std::uint8_t*, 32> rows{};
  std::vector<std::int32_t> b;  // [k][64], zero on padded rows
};

StepOperands random_step(Rng& rng, const PanelCase& c, int pad_one_in,
                         bool extreme) {
  const int k = c.int4 ? 32 : 16;
  StepOperands s;
  const Domain da = domain_of(c.int4, c.a_signed);
  for (auto& row : s.a_vals) {
    for (int kk = 0; kk < k; ++kk) {
      row[static_cast<std::size_t>(kk)] = domain_value(rng, da, extreme);
    }
  }
  // A rows as packed plane bytes, loaded the way the replay loads them.
  s.a.k = k;
  s.a.is_signed = c.a_signed;
  for (int r = 0; r < 8; ++r) {
    const auto& values = s.a_vals[static_cast<std::size_t>(r)];
    PackedBuffer row(static_cast<std::size_t>(k),
                     scalar_of(c.int4, c.a_signed));
    for (std::size_t kk = 0; kk < row.size(); ++kk) row.set(kk, values[kk]);
    load_panel_a_row(row.data(), c.int4, /*biased=*/false, r, s.a);
  }

  const Domain db = domain_of(c.int4, c.b_signed);
  s.b.assign(static_cast<std::size_t>(k) * 64, 0);
  s.storage.reserve(static_cast<std::size_t>(k));
  s.rows.fill(nullptr);
  // Replay pads the tail of a row's last step; a third of the padded
  // steps pad a tail as well as scattered rows.
  const int present_end =
      pad_one_in > 0 && rng.next_below(3) == 0
          ? static_cast<int>(rng.next_below(static_cast<std::uint64_t>(k) + 1))
          : k;
  for (int kk = 0; kk < k; ++kk) {
    if (kk >= present_end ||
        (pad_one_in > 0 &&
         rng.next_below(static_cast<std::uint64_t>(pad_one_in)) == 0)) {
      continue;
    }
    PackedBuffer buf(64, scalar_of(c.int4, c.b_signed));
    for (std::size_t col = 0; col < 64; ++col) {
      const std::int32_t val = domain_value(rng, db, extreme);
      buf.set(col, val);
      s.b[static_cast<std::size_t>(kk) * 64 + col] = val;
    }
    s.storage.push_back(std::move(buf));
    s.rows[static_cast<std::size_t>(kk)] = s.storage.back().data();
  }
  return s;
}

/// desc: C[r][c] += sum_k A[r][k] * B[k][c] mod 2^32 over the first `rows`
/// rows of a row-major 8 x 64 accumulator.
void describe_step(std::vector<std::uint32_t>& acc, const StepOperands& s,
                   int rows) {
  for (int r = 0; r < rows; ++r) {
    for (int col = 0; col < 64; ++col) {
      std::uint32_t sum = acc[static_cast<std::size_t>(r * 64 + col)];
      for (int kk = 0; kk < s.a.k; ++kk) {
        sum += static_cast<std::uint32_t>(
                   s.a_vals[static_cast<std::size_t>(r)]
                           [static_cast<std::size_t>(kk)]) *
               static_cast<std::uint32_t>(
                   s.b[static_cast<std::size_t>(kk * 64 + col)]);
      }
      acc[static_cast<std::size_t>(r * 64 + col)] = sum;
    }
  }
}

std::vector<std::uint32_t> random_panel_acc(Rng& rng) {
  std::vector<std::uint32_t> acc(8 * 64);
  for (auto& v : acc) v = static_cast<std::uint32_t>(random_acc(rng));
  return acc;
}

// Fixed-width kernel vs the description: identical bits on the first
// `rows` rows, untouched accumulators beyond them (partial stacked plane
// groups rely on exactly that prefix contract). The panel is packed for
// both A domains, as for a row whose plane groups differ in signedness.
TEST_P(PanelPropertyTest, MmaPanelN64MatchesGenericPanel) {
  const PanelCase& c = GetParam();
  Rng rng(0xf1bed + (c.int4 ? 4 : 8) + 2 * c.a_signed + c.b_signed);

  for (const PanelFlavor* f : host_flavors()) {
    for (int trial = 0; trial < 20; ++trial) {
      const int rows = 1 + static_cast<int>(rng.next_below(8));
      const StepOperands s = random_step(rng, c, 5, trial % 4 == 3);
      const std::vector<std::uint32_t> init = random_panel_acc(rng);

      std::vector<std::uint32_t> want = init, got = init;
      describe_step(want, s, rows);
      PanelB packed;
      f->pack_panel_b(s.rows.data(), s.a.k, c.int4, c.b_signed,
                      kPanelASigned | kPanelAUnsigned, packed);
      f->mma_panel_n64(got.data(), s.a, packed, rows);

      for (int r = 0; r < 8; ++r) {
        for (int col = 0; col < 64; ++col) {
          const std::size_t i = static_cast<std::size_t>(r * 64 + col);
          // Rows past the prefix must not be written.
          EXPECT_EQ(got[i], r < rows ? want[i] : init[i])
              << f->name << " trial " << trial << " rows=" << rows << " ("
              << r << ", " << col << ")";
        }
      }
    }
  }
}

// Fused pack+mma vs the description: padded (null) B rows are zero rows,
// and only the first `active_rows` rows (V of a single-plane group) are
// computed — rows past the limit stay untouched.
TEST_P(PanelPropertyTest, FusedDecodeMmaMatchesDecodeThenPanel) {
  const PanelCase& c = GetParam();
  Rng rng(0xf05ed + (c.int4 ? 4 : 8) + 2 * c.a_signed + c.b_signed);

  for (const PanelFlavor* f : host_flavors()) {
    for (int trial = 0; trial < 24; ++trial) {
      // Trial 0: every row padded (a no-op call); then ~1/4 padded.
      const StepOperands s =
          random_step(rng, c, trial == 0 ? 1 : 4, trial % 5 == 4);
      const int active = trial < 8 ? 8 : 1 + static_cast<int>(trial % 8);
      const std::vector<std::uint32_t> init = random_panel_acc(rng);
      std::vector<std::uint32_t> want = init, got = init;
      describe_step(want, s, active);
      f->fused_decode_mma_n64(got.data(), s.a, s.rows.data(), s.a.k, c.int4,
                              c.b_signed, active);
      EXPECT_EQ(got, want) << f->name << " trial " << trial << " active "
                           << active << " present rows " << s.storage.size();
    }
  }
}

// Column sums of a packed panel (the bias-correction input) vs the
// description, for every A-domain set the panel may be packed for.
TEST_P(PanelPropertyTest, PanelColsumMatchesDescription) {
  const PanelCase& c = GetParam();
  Rng rng(0xc01c5 + (c.int4 ? 4 : 8) + 2 * c.a_signed + c.b_signed);

  for (const PanelFlavor* f : host_flavors()) {
    for (int trial = 0; trial < 12; ++trial) {
      const StepOperands s = random_step(rng, c, 3, trial % 3 == 2);
      const unsigned signs = trial % 3 == 0   ? a_sign_bit(c.a_signed)
                             : trial % 3 == 1 ? a_sign_bit(!c.a_signed)
                                              : kPanelASigned | kPanelAUnsigned;
      std::vector<std::int64_t> got(64), want(64);
      for (std::size_t i = 0; i < 64; ++i) {
        got[i] = want[i] = rng.next_in(-(1ll << 40), 1ll << 40);
      }
      for (int kk = 0; kk < s.a.k; ++kk) {
        for (std::size_t col = 0; col < 64; ++col) {
          want[col] += s.b[static_cast<std::size_t>(kk) * 64 + col];
        }
      }
      PanelB packed;
      f->pack_panel_b(s.rows.data(), s.a.k, c.int4, c.b_signed, signs, packed);
      f->panel_colsum(packed, got.data());
      EXPECT_EQ(got, want) << f->name << " trial " << trial;
    }
  }
}

// Wrap stress: domain end-point operands (-128/127/255, -8/7/15) over a
// long chained reduction, from accumulators seeded next to the int32 edge
// the products push toward, so the accumulator wraps during the reduction.
// Each step's products are exact; only the accumulator may wrap, and it
// must wrap exactly as the description does.
TEST_P(PanelPropertyTest, WrapStressLongReduction) {
  const PanelCase& c = GetParam();
  const int steps = 600;
  // Sign of the dominant product (see domain_value's extreme mode).
  const bool negative = c.a_signed != c.b_signed;
  const std::uint32_t seed = static_cast<std::uint32_t>(
      negative ? std::numeric_limits<std::int32_t>::min() + 1000
               : std::numeric_limits<std::int32_t>::max() - 1000);

  for (const PanelFlavor* f : host_flavors()) {
    Rng rng(0x3a9 + (c.int4 ? 4 : 8) + 2 * c.a_signed + c.b_signed);
    std::vector<std::uint32_t> want(8 * 64, seed), fixed = want, fused = want;
    std::int64_t wide = static_cast<std::int32_t>(seed);  // (0, 0), exact
    PanelB packed;
    for (int st = 0; st < steps; ++st) {
      const StepOperands s =
          random_step(rng, c, st % 7 == 0 ? 8 : 0, /*extreme=*/true);
      describe_step(want, s, 8);
      for (int kk = 0; kk < s.a.k; ++kk) {
        wide += static_cast<std::int64_t>(
                    s.a_vals[0][static_cast<std::size_t>(kk)]) *
                s.b[static_cast<std::size_t>(kk) * 64];
      }
      f->pack_panel_b(s.rows.data(), s.a.k, c.int4, c.b_signed,
                      a_sign_bit(c.a_signed), packed);
      f->mma_panel_n64(fixed.data(), s.a, packed, 8);
      f->fused_decode_mma_n64(fused.data(), s.a, s.rows.data(), s.a.k, c.int4,
                              c.b_signed, 8);
    }
    EXPECT_TRUE(wide > std::numeric_limits<std::int32_t>::max() ||
                wide < std::numeric_limits<std::int32_t>::min())
        << "the reduction must actually wrap: " << wide;
    EXPECT_EQ(want[0], static_cast<std::uint32_t>(wide));
    EXPECT_EQ(fixed, want) << f->name;
    EXPECT_EQ(fused, want) << f->name;
  }
}

// ---- SDDMM dot operands ---------------------------------------------------

/// desc: sum_i a[i] * b[i] mod 2^32 over the packed elements' values.
std::int32_t describe_dot(const PackedBuffer& a, const PackedBuffer& b) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += static_cast<std::uint32_t>(a.get(i)) *
           static_cast<std::uint32_t>(b.get(i));
  }
  return static_cast<std::int32_t>(sum);
}

PackedBuffer random_span(Rng& rng, std::size_t k, bool int4, bool is_signed,
                         bool extreme) {
  PackedBuffer buf(k, scalar_of(int4, is_signed));
  const Domain d = domain_of(int4, is_signed);
  for (std::size_t i = 0; i < k; ++i) buf.set(i, domain_value(rng, d, extreme));
  return buf;
}

// The packed dot vs the description, for depths with and without a
// partial last vector and one deep reduction of end-point operands. On the
// int8 path that depth wraps the accumulator (2^18 terms of |x| >= 2^13);
// on int4 wrapping would take ~10^7 terms, so the panel wrap stress above
// carries that datapath.
TEST_P(PanelPropertyTest, DotPackedMatchesDescription) {
  const PanelCase& c = GetParam();
  Rng rng(0xd07b + (c.int4 ? 4 : 8) + 2 * c.a_signed + c.b_signed);
  const std::size_t deep_k = std::size_t{1} << 18;

  for (const PanelFlavor* f : host_flavors()) {
    for (const std::size_t k :
         {std::size_t{32}, std::size_t{64}, std::size_t{96}, std::size_t{160},
          std::size_t{512}, deep_k}) {
      const int trials = k == deep_k ? 1 : 6;
      for (int trial = 0; trial < trials; ++trial) {
        const bool extreme = k == deep_k || trial % 2 == 1;
        const PackedBuffer a = random_span(rng, k, c.int4, c.a_signed, extreme);
        const PackedBuffer b = random_span(rng, k, c.int4, c.b_signed, extreme);
        std::vector<std::int32_t> pa(f->dot_operand_words(k)),
            pb(f->dot_operand_words(k));
        f->pack_dot_operand(a.data(), k, c.int4, c.a_signed, pa.data());
        f->pack_dot_operand(b.data(), k, c.int4, c.b_signed, pb.data());
        EXPECT_EQ(f->dot_packed(pa.data(), pb.data(), k), describe_dot(a, b))
            << f->name << " k=" << k << " trial " << trial;
        if (k == deep_k && !c.int4) {
          std::int64_t exact = 0;
          for (std::size_t i = 0; i < k; ++i) {
            exact += static_cast<std::int64_t>(a.get(i)) * b.get(i);
          }
          EXPECT_TRUE(exact > std::numeric_limits<std::int32_t>::max() ||
                      exact < std::numeric_limits<std::int32_t>::min())
              << "the deep dot must actually wrap: " << exact;
        }
      }
    }
  }
}

TEST(PanelFlavors, DispatchPicksTheWidestSupportedFlavor) {
  const auto flavors = panel_flavors();
  ASSERT_FALSE(flavors.empty());
  EXPECT_STREQ(flavors.back().name, "base");
  EXPECT_TRUE(flavors.back().supported);
  const PanelFlavor* first = nullptr;
  for (const PanelFlavor& f : flavors) {
    if (f.supported) {
      first = &f;
      break;
    }
  }
  ASSERT_NE(first, nullptr);
  EXPECT_STREQ(panel_isa_name(), first->name);
  if (!simd_enabled()) {
    EXPECT_EQ(flavors.size(), 1u);
  }
  std::printf("panel flavors:");
  for (const PanelFlavor& f : flavors) {
    std::printf(" %s%s", f.name, f.supported ? "" : "(unsupported)");
  }
  std::printf("; dispatched: %s\n", panel_isa_name());
}

// The epilogue folds into the int32 output row mod 2^32; the description
// is the exact int64 sum, truncated once.
TEST(PanelEpilogue, CombineMatchesScalar) {
  Rng rng(0xe919);
  const auto flavors = host_flavors();
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{4}, std::size_t{63}, std::size_t{64}}) {
    for (int trial = 0; trial < 10; ++trial) {
      const std::int64_t weight =
          trial == 0 ? 1 : rng.next_in(-(1 << 20), 1 << 20);
      std::vector<std::uint32_t> acc(n);
      for (auto& v : acc) v = static_cast<std::uint32_t>(random_acc(rng));
      std::vector<std::int32_t> init(n), want(n);
      for (std::size_t i = 0; i < n; ++i) {
        init[i] = random_acc(rng);
        want[i] = static_cast<std::int32_t>(
            init[i] + weight * static_cast<std::int64_t>(
                                   static_cast<std::int32_t>(acc[i])));
      }
      std::vector<std::int32_t> got = init;
      epilogue_combine(got.data(), acc.data(), weight, n);
      EXPECT_EQ(got, want) << "n=" << n << " trial " << trial;
      for (const PanelFlavor* f : flavors) {
        got = init;
        f->epilogue_combine(got.data(), acc.data(), weight, n);
        EXPECT_EQ(got, want) << f->name << " n=" << n << " trial " << trial;
      }
    }
  }
}

TEST(PanelEpilogue, CombineBiasedMatchesScalar) {
  Rng rng(0xb1a5e);
  const auto flavors = host_flavors();
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{4}, std::size_t{63}, std::size_t{64}}) {
    for (int trial = 0; trial < 10; ++trial) {
      const std::int64_t weight = rng.next_in(-(1 << 20), 1 << 20);
      const std::int64_t bias = trial % 2 == 0 ? 128 : 8;  // 2^(bits-1)
      std::vector<std::uint32_t> acc(n);
      for (auto& v : acc) v = static_cast<std::uint32_t>(random_acc(rng));
      std::vector<std::int64_t> colsum(n);
      for (auto& v : colsum) v = rng.next_in(-(1ll << 30), 1ll << 30);
      std::vector<std::int32_t> init(n), want(n);
      for (std::size_t i = 0; i < n; ++i) {
        init[i] = random_acc(rng);
        // Exact in int64 up to the final truncation: |w| < 2^21 and
        // |acc - bias * colsum| < 2^39.
        want[i] = static_cast<std::int32_t>(
            init[i] + weight * (static_cast<std::int64_t>(
                                    static_cast<std::int32_t>(acc[i])) -
                                bias * colsum[i]));
      }
      std::vector<std::int32_t> got = init;
      epilogue_combine_biased(got.data(), acc.data(), colsum.data(), bias,
                              weight, n);
      EXPECT_EQ(got, want) << "n=" << n << " trial " << trial;
      for (const PanelFlavor* f : flavors) {
        got = init;
        f->epilogue_combine_biased(got.data(), acc.data(), colsum.data(), bias,
                                   weight, n);
        EXPECT_EQ(got, want) << f->name << " n=" << n << " trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace magicube::simt
