// Tests for the zero-materialization conv lowering path and the
// multi-threaded packed GEMM driver: fused im2col→panel producer vs the
// materialized column matrix (bit parity across edge geometries) and its
// panel row copy tiers, batched vs per-image conv bits, the direct 1x1
// in-place path, arena high-water accounting (no column buffer on the
// packed path), pool-size determinism, the packed gemm_tn variant, and the
// DepthwiseConv2d bias (model format v2, loader back-compat).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/two_branch.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/depthwise.h"
#include "nn/fuse.h"
#include "nn/quant.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/pack.h"
#include "tensor/rng.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tensor/threadpool.h"

namespace tbnet {
namespace {

void expect_close(const Tensor& got, const Tensor& want, float rtol = 1e-4f,
                  float atol = 1e-5f) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < got.numel(); ++i) {
    const float tol = atol + rtol * std::fabs(want[i]);
    ASSERT_NEAR(got[i], want[i], tol) << "at flat index " << i;
  }
}

struct ConvCase {
  const char* name;
  int64_t in_c, out_c, ih, iw, kernel, stride, pad;
};

// Edge geometries: padding, stride 2, 1x1 (direct and strided), a kernel
// wider than the pad, ragged oh*ow (not a multiple of the vector width),
// k < kBlockK and k crossing the packed driver's k-block (in_c*9 > 640).
// The last four cover the panel row copy's cases: a whole output row per
// panel row (16x16), two output rows per panel row (8x8), the strided
// gather on a serving-size map, and rows narrower than a panel.
const ConvCase kConvCases[] = {
    {"stem_3x3_pad1", 3, 16, 32, 32, 3, 1, 1},
    {"ragged_3x3_pad1", 8, 6, 11, 9, 3, 1, 1},
    {"ragged_3x3_stride2", 8, 6, 11, 9, 3, 2, 1},
    {"k5_pad2", 4, 5, 7, 7, 5, 1, 2},
    {"pw_1x1_direct", 16, 8, 8, 8, 1, 1, 0},
    {"pw_1x1_stride2", 16, 8, 9, 9, 1, 2, 0},
    {"deep_k_crosses_block", 80, 4, 8, 8, 3, 1, 1},
    {"no_pad_3x3", 2, 3, 6, 6, 3, 1, 0},
    {"map16_3x3_stride1", 4, 8, 16, 16, 3, 1, 1},
    {"map8_3x3_two_segments", 6, 8, 8, 8, 3, 1, 1},
    {"map32_3x3_stride2", 4, 8, 32, 32, 3, 2, 1},
    {"narrow_3x3_w5", 3, 4, 12, 5, 3, 1, 1},
};

/// The materialized packed path the fused lowering replaced: full im2col
/// into a column buffer, consumed in place by the packed driver. Identical
/// values in identical accumulation order — the fused path must match it
/// bit for bit.
Tensor conv_materialized_packed(const ExecutionContext& ctx,
                                const nn::Conv2d& conv, const Conv2dGeom& g,
                                const Tensor& x) {
  const int64_t rows = g.col_rows(), cols = g.col_cols();
  const int64_t out_c = conv.out_channels();
  std::vector<float> colbuf(static_cast<size_t>(rows * cols));
  std::vector<float> apack(
      static_cast<size_t>(packdetail::packed_a_floats(out_c, rows)));
  packdetail::pack_a_rowmajor(out_c, rows, conv.weight().data(), rows,
                              apack.data());
  const int64_t n = x.dim(0);
  Tensor out(Shape{n, out_c, g.out_h(), g.out_w()});
  const int64_t in_stride = g.in_c * g.in_h * g.in_w;
  for (int64_t i = 0; i < n; ++i) {
    im2col(g, x.data() + i * in_stride, colbuf.data());
    packdetail::run_packed_b_rowmajor(ctx.pool(), out_c, cols, rows, 1.0f,
                                      apack.data(), colbuf.data(), cols, 0.0f,
                                      out.data() + i * out_c * cols, cols,
                                      GemmEpilogue{});
  }
  return out;
}

Conv2dGeom geom_of(const ConvCase& c) {
  Conv2dGeom g;
  g.in_c = c.in_c;
  g.in_h = c.ih;
  g.in_w = c.iw;
  g.kernel_h = g.kernel_w = c.kernel;
  g.stride_h = g.stride_w = c.stride;
  g.pad_h = g.pad_w = c.pad;
  return g;
}

// ------------------------------------------------ fused lowering parity ----

TEST(FusedLowering, PanelProducerMatchesMaterializedIm2col) {
  // Pure data check, independent of the kernel mode: every panel the fused
  // producer writes must hold exactly the bytes the materialized column
  // matrix holds at the same coordinates. Short panels start mid-tap; the
  // full-depth panel (kk = 0, kc = rows) steps the taps across every channel
  // boundary, as the driver's single-k-block panels do.
  Rng rng(21);
  for (const ConvCase& c : kConvCases) {
    const Conv2dGeom g = geom_of(c);
    const Tensor img = Tensor::randn(Shape{c.in_c, c.ih, c.iw}, rng);
    const int64_t rows = g.col_rows(), cols = g.col_cols();
    std::vector<float> colbuf(static_cast<size_t>(rows * cols));
    im2col(g, img.data(), colbuf.data());
    const int64_t stride = simd::kNR;
    std::vector<float> panel;
    const struct { int64_t kk, kc; } slices[] = {
        {0, std::min<int64_t>(rows, 3)},
        {rows / 2, std::min<int64_t>(rows - rows / 2, 3)},
        {rows - 1, 1},
        {0, rows},
    };
    for (const auto& sl : slices) {
      for (int64_t j0 = 0; j0 < cols; j0 += stride) {
        const int nr = static_cast<int>(std::min<int64_t>(stride, cols - j0));
        panel.assign(static_cast<size_t>(sl.kc * stride), -7.0f);
        im2col_pack_panel(g, img.data(), sl.kk, sl.kc, j0, nr, stride,
                          panel.data());
        for (int64_t p = 0; p < sl.kc; ++p) {
          for (int64_t j = 0; j < stride; ++j) {
            const float want =
                j < nr
                    ? colbuf[static_cast<size_t>((sl.kk + p) * cols + j0 + j)]
                    : 0.0f;
            ASSERT_EQ(panel[static_cast<size_t>(p * stride + j)], want)
                << c.name << " kk=" << sl.kk << " kc=" << sl.kc
                << " j0=" << j0 << " p=" << p << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(FusedLowering, PanelRowTiersMatch) {
  // The dispatched panel row copy (AVX-512 where the host has it) against
  // the scalar tier, for every run shape: each source holds exactly the
  // hi - lo floats the run reads, so a read past it is a heap overflow
  // under ASan, and lanes past len must stay untouched.
  const simd::PanelRowFn tier = simd::panel_row_copy();
  const simd::PanelRowFn ref = simd::panel_row_copy_reference();
  for (int len = 0; len <= simd::kNR; ++len) {
    for (int lo = 0; lo <= len; ++lo) {
      for (int hi = lo; hi <= len; ++hi) {
        std::vector<float> src(static_cast<size_t>(hi - lo));
        for (size_t t = 0; t < src.size(); ++t) {
          src[t] = 1.0f + static_cast<float>(t);
        }
        const float probe = 0.0f;  // read by neither tier when hi == lo
        const float* at = hi > lo ? src.data() : &probe;
        std::vector<float> got(simd::kNR + 1, -7.0f), want = got;
        tier(at, lo, hi, len, got.data());
        ref(at, lo, hi, len, want.data());
        for (int t = 0; t <= simd::kNR; ++t) {
          const float expect =
              t >= len ? -7.0f
                       : (t >= lo && t < hi ? src[static_cast<size_t>(t - lo)]
                                            : 0.0f);
          ASSERT_EQ(want[static_cast<size_t>(t)], expect)
              << "scalar len=" << len << " lo=" << lo << " hi=" << hi
              << " t=" << t;
          ASSERT_EQ(got[static_cast<size_t>(t)], expect)
              << simd::isa_name() << " len=" << len << " lo=" << lo
              << " hi=" << hi << " t=" << t;
        }
      }
    }
  }
}

TEST(FusedLowering, ConvForwardMatchesMaterializedBitwise) {
  if (!simd::fast_kernels_enabled()) {
    GTEST_SKIP() << "TBNET_DETERMINISTIC=1 runs the materializing reference "
                    "path itself";
  }
  ExecutionContext ctx;
  Rng rng(22);
  for (const ConvCase& c : kConvCases) {
    nn::Conv2d conv(c.in_c, c.out_c,
                    {.kernel = c.kernel, .stride = c.stride, .pad = c.pad,
                     .bias = false},
                    rng);
    const Conv2dGeom g = geom_of(c);
    const Tensor x = Tensor::randn(Shape{2, c.in_c, c.ih, c.iw}, rng);
    const Tensor got = conv.forward(ctx, x, false);
    const Tensor want = conv_materialized_packed(ctx, conv, g, x);
    ASSERT_EQ(got.shape(), want.shape()) << c.name;
    for (int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], want[i]) << c.name << " at " << i;
    }
  }
}

TEST(FusedLowering, BatchedConvMatchesSingleImageCallsBitwise) {
  // One conv call folds the batch into one driver call, whose panel slots
  // span images; pool 3 puts chunk boundaries mid-image. Each image's bytes
  // must equal a batch-1 call's, in f32 and through the int8 driver.
  constexpr int64_t kBatch = 5;
  Rng rng(37);
  for (const ConvCase& c : kConvCases) {
    nn::Conv2d conv(c.in_c, c.out_c,
                    {.kernel = c.kernel, .stride = c.stride, .pad = c.pad,
                     .bias = true},
                    rng);
    for (int64_t o = 0; o < c.out_c; ++o) {
      conv.bias()[o] = 0.1f * static_cast<float>(o) - 0.2f;
    }
    const Tensor x = Tensor::randn(Shape{kBatch, c.in_c, c.ih, c.iw}, rng);
    nn::Conv2d qconv = conv;
    {
      ExecutionContext cal;
      nn::quantize_for_inference(qconv, cal, x);
    }
    const int64_t in_stride = c.in_c * c.ih * c.iw;
    for (nn::Conv2d* layer : {&conv, &qconv}) {
      const char* mode = layer == &conv ? "f32" : "int8";
      for (int threads : {1, 2, 3, 4}) {
        ThreadPool pool(threads);
        ExecutionContext ctx;
        ctx.set_pool(&pool);
        const Tensor batched = layer->forward(ctx, x, false);
        const int64_t out_stride = batched.numel() / kBatch;
        for (int64_t i = 0; i < kBatch; ++i) {
          Tensor xi(Shape{1, c.in_c, c.ih, c.iw});
          std::memcpy(xi.data(), x.data() + i * in_stride,
                      static_cast<size_t>(in_stride) * sizeof(float));
          const Tensor single = layer->forward(ctx, xi, false);
          ASSERT_EQ(single.numel(), out_stride);
          ASSERT_EQ(std::memcmp(single.data(),
                                batched.data() + i * out_stride,
                                static_cast<size_t>(out_stride) *
                                    sizeof(float)),
                    0)
              << c.name << " " << mode << " threads=" << threads
              << " image=" << i;
        }
      }
    }
  }
}

TEST(FusedLowering, ConvForwardMatchesScalarReference) {
  // Cross-implementation tolerance check (FMA vs scalar): ~1e-6 relative at
  // these CIFAR-scale depths; the suite-wide 1e-4 bound is asserted.
  ExecutionContext ctx;
  Rng rng(23);
  for (const ConvCase& c : kConvCases) {
    nn::Conv2d conv(c.in_c, c.out_c,
                    {.kernel = c.kernel, .stride = c.stride, .pad = c.pad,
                     .bias = false},
                    rng);
    const Conv2dGeom g = geom_of(c);
    const int64_t rows = g.col_rows(), cols = g.col_cols();
    const Tensor x = Tensor::randn(Shape{1, c.in_c, c.ih, c.iw}, rng);
    const Tensor got = conv.forward(ctx, x, false);
    std::vector<float> colbuf(static_cast<size_t>(rows * cols));
    im2col(g, x.data(), colbuf.data());
    Tensor want(got.shape());
    gemm_nn_reference(ctx, c.out_c, cols, rows, 1.0f, conv.weight().data(),
                      colbuf.data(), 0.0f, want.data());
    expect_close(got, want);
  }
}

// ------------------------------------------------ arena accounting ---------

TEST(FusedLowering, ConvForwardDoesNotMaterializeColumnMatrix) {
  if (!simd::fast_kernels_enabled()) {
    GTEST_SKIP() << "the deterministic reference path materializes by design";
  }
  Rng rng(24);
  nn::Conv2d conv(16, 16, {.kernel = 3, .stride = 1, .pad = 1, .bias = false},
                  rng);
  const Tensor x = Tensor::randn(Shape{1, 16, 32, 32}, rng);
  // The materialized lowering allocated the full [in_c*kh*kw, oh*ow] column
  // matrix from the arena; the fused path's high-water mark is the per-call
  // A pack plus the per-chunk panel slabs — well below it at every pool
  // size, with the same output bits as one thread.
  const int64_t colbuf_floats = 16 * 3 * 3 * 32 * 32;
  Tensor base;
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    ExecutionContext ctx;
    ctx.set_pool(&pool);
    const Tensor got = conv.forward(ctx, x, false);
    EXPECT_GT(ctx.arena().capacity_floats(), 0) << "threads=" << threads;
    EXPECT_LT(ctx.arena().capacity_floats(), colbuf_floats / 2)
        << "threads=" << threads;
    if (threads == 1) {
      base = got;
      continue;
    }
    for (int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], base[i]) << "threads=" << threads << " at " << i;
    }
  }
}

TEST(FusedLowering, Direct1x1UsesInputInPlace) {
  if (!simd::fast_kernels_enabled()) {
    GTEST_SKIP() << "reference-mode arena use differs";
  }
  Rng rng(25);
  nn::Conv2d conv(64, 64, {.kernel = 1, .stride = 1, .pad = 0, .bias = false},
                  rng);
  const Tensor x = Tensor::randn(Shape{1, 64, 32, 32}, rng);
  ExecutionContext ctx;
  conv.forward(ctx, x, false);
  // No lowering at all: the arena holds only the per-call weight pack.
  const int64_t colbuf_floats = 64 * 32 * 32;
  EXPECT_LT(ctx.arena().capacity_floats(), colbuf_floats / 2);
}

// ------------------------------------------------ pool-size determinism ----

TEST(ThreadedGemm, BitsIndependentOfPoolSize) {
  Rng rng(26);
  const int64_t m = 64, n = 1024, k = 288;
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor base(Shape{m, n});
  {
    ThreadPool pool(1);
    ExecutionContext ctx;
    ctx.set_pool(&pool);
    gemm_nn(ctx, m, n, k, 1.0f, a.data(), b.data(), 0.0f, base.data());
  }
  for (int threads : {2, 3, 4}) {
    ThreadPool pool(threads);
    ExecutionContext ctx;
    ctx.set_pool(&pool);
    Tensor got(Shape{m, n});
    gemm_nn(ctx, m, n, k, 1.0f, a.data(), b.data(), 0.0f, got.data());
    for (int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], base[i]) << "threads=" << threads << " at " << i;
    }
  }
}

TEST(ThreadedGemm, FusedConvBitsIndependentOfPoolSize) {
  Rng rng(27);
  nn::Conv2d conv(8, 12, {.kernel = 3, .stride = 1, .pad = 1, .bias = false},
                  rng);
  const Tensor x = Tensor::randn(Shape{2, 8, 19, 17}, rng);  // ragged panels
  Tensor base;
  {
    ThreadPool pool(1);
    ExecutionContext ctx;
    ctx.set_pool(&pool);
    base = conv.forward(ctx, x, false);
  }
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    ExecutionContext ctx;
    ctx.set_pool(&pool);
    const Tensor got = conv.forward(ctx, x, false);
    for (int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], base[i]) << "threads=" << threads << " at " << i;
    }
  }
}

// ------------------------------------------------ packed gemm_tn -----------

TEST(PackedGemmTn, MatchesReference) {
  ExecutionContext ctx;
  Rng rng(28);
  const struct { int64_t m, n, k; } shapes[] = {
      {144, 64, 16},   // conv backward dcols: rows x cols, k = out_c
      {64, 33, 48},    // ragged n
      {10, 100, 700},  // k crosses the packed k-block (batch*spatial axis)
      {5, 10, 20},     // n < kNR: stays on the streaming reference kernel
  };
  for (const auto& s : shapes) {
    const Tensor at = Tensor::randn(Shape{s.k, s.m}, rng);
    const Tensor b = Tensor::randn(Shape{s.k, s.n}, rng);
    for (float beta : {0.0f, 1.0f}) {
      Tensor got = Tensor::randn(Shape{s.m, s.n}, rng);
      Tensor want = got;
      gemm_tn(ctx, s.m, s.n, s.k, 1.0f, at.data(), b.data(), beta, got.data());
      gemm_tn_reference(ctx, s.m, s.n, s.k, 1.0f, at.data(), b.data(), beta,
                        want.data());
      ASSERT_EQ(got.shape(), want.shape());
      for (int64_t i = 0; i < got.numel(); ++i) {
        const float tol = 1e-4f + 1e-4f * std::fabs(want[i]);
        ASSERT_NEAR(got[i], want[i], tol)
            << "m=" << s.m << " n=" << s.n << " k=" << s.k << " beta=" << beta
            << " at " << i;
      }
    }
  }
}

TEST(PackedGemmTn, BitwiseMatchesGemmNnOnTransposedA) {
  if (!simd::fast_kernels_enabled()) {
    GTEST_SKIP() << "reference gemm_tn walks k outermost; only the packed "
                    "paths share panels";
  }
  // pack_a_from_at produces byte-identical panels to pack_a_rowmajor on the
  // un-transposed matrix, so the two entry points agree bit for bit.
  ExecutionContext ctx;
  Rng rng(29);
  const int64_t m = 14, n = 50, k = 90;
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor at(Shape{k, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
  }
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c_nn(Shape{m, n}), c_tn(Shape{m, n});
  gemm_nn(ctx, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_nn.data());
  gemm_tn(ctx, m, n, k, 1.0f, at.data(), b.data(), 0.0f, c_tn.data());
  for (int64_t i = 0; i < c_nn.numel(); ++i) {
    ASSERT_EQ(c_tn[i], c_nn[i]) << "at " << i;
  }
}

// ------------------------------------------------ depthwise bias -----------

TEST(DepthwiseBias, ForwardAppliesBias) {
  Rng rng(30);
  nn::DepthwiseConv2d with_bias(
      4, {.kernel = 3, .stride = 1, .pad = 1, .bias = true}, rng);
  Rng rng2(30);  // same weights
  nn::DepthwiseConv2d without(
      4, {.kernel = 3, .stride = 1, .pad = 1, .bias = false}, rng2);
  for (int64_t c = 0; c < 4; ++c) {
    with_bias.bias()[c] = 0.25f * static_cast<float>(c) - 0.5f;
  }
  const Tensor x = Tensor::randn(Shape{2, 4, 6, 6}, rng);
  const Tensor got = with_bias.forward(x, false);
  Tensor want = without.forward(x, false);
  const int64_t hw = 6 * 6;
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t c = 0; c < 4; ++c) {
      float* plane = want.data() + (i * 4 + c) * hw;
      for (int64_t t = 0; t < hw; ++t) plane[t] += with_bias.bias()[c];
    }
  }
  expect_close(got, want, 1e-6f, 1e-6f);
  ASSERT_EQ(with_bias.params().size(), 2u);
  EXPECT_EQ(with_bias.params()[1].name, "bias");
  EXPECT_FALSE(with_bias.params()[1].apply_weight_decay);
}

TEST(DepthwiseBias, BiasGradAccumulatesPerChannel) {
  Rng rng(31);
  nn::DepthwiseConv2d dw(3, {.kernel = 3, .stride = 1, .pad = 1, .bias = true},
                         rng);
  const Tensor x = Tensor::randn(Shape{2, 3, 5, 5}, rng);
  const Tensor y = dw.forward(x, true);
  const Tensor dy = Tensor::randn(y.shape(), rng);
  dw.backward(dy);
  const int64_t hw = 5 * 5;
  for (int64_t c = 0; c < 3; ++c) {
    float want = 0.0f;
    for (int64_t i = 0; i < 2; ++i) {
      const float* p = dy.data() + (i * 3 + c) * hw;
      for (int64_t t = 0; t < hw; ++t) want += p[t];
    }
    Tensor* bg = dw.params()[1].grad;
    ASSERT_NE(bg, nullptr);
    EXPECT_NEAR((*bg)[c], want, 1e-4f + 1e-4f * std::fabs(want)) << "c=" << c;
  }
}

TEST(DepthwiseBias, FoldedModelSerializesAndRoundTrips) {
  Rng rng(32);
  nn::Sequential seq;
  seq.emplace<nn::DepthwiseConv2d>(
      5, nn::DepthwiseConv2d::Options{.kernel = 3, .stride = 1, .pad = 1},
      rng);
  seq.emplace<nn::BatchNorm2d>(5);
  seq.emplace<nn::ReLU>();
  auto* bn = seq.find_nth<nn::BatchNorm2d>(0);
  for (int64_t c = 0; c < 5; ++c) {
    bn->gamma()[c] = 0.7f + 0.1f * static_cast<float>(c);
    bn->beta()[c] = 0.2f - 0.06f * static_cast<float>(c);
    bn->running_mean()[c] = 0.1f * static_cast<float>(c % 3);
    bn->running_var()[c] = 0.4f + 0.2f * static_cast<float>(c % 2);
  }
  const Tensor x = Tensor::randn(Shape{1, 5, 7, 7}, rng);
  const Tensor want = seq.forward(x, false);

  nn::Sequential folded = seq;
  ASSERT_EQ(nn::fold_batchnorm_inference(folded), 1);
  expect_close(folded.forward(x, false), want);

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  nn::save_model(ss, folded);
  auto loaded = nn::load_model(ss);
  expect_close(loaded->forward(x, false), want);
}

TEST(DepthwiseBias, SelectChannelsKeepsBias) {
  Rng rng(33);
  nn::DepthwiseConv2d dw(4, {.kernel = 3, .stride = 1, .pad = 1, .bias = true},
                         rng);
  for (int64_t c = 0; c < 4; ++c) dw.bias()[c] = static_cast<float>(c);
  dw.select_channels({3, 1});
  ASSERT_EQ(dw.channels(), 2);
  EXPECT_EQ(dw.bias()[0], 3.0f);
  EXPECT_EQ(dw.bias()[1], 1.0f);
}

// Byte-level writers mirroring the serializer, for crafting legacy streams.
void put_u32(std::string& s, uint32_t v) {
  s.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_i64(std::string& s, int64_t v) {
  s.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_string(std::string& s, const std::string& v) {
  put_u32(s, static_cast<uint32_t>(v.size()));
  s.append(v);
}
void put_tensor(std::string& s, const Tensor& t) {
  put_u32(s, static_cast<uint32_t>(t.shape().ndim()));
  for (int64_t d : t.shape().dims()) put_i64(s, d);
  s.append(reinterpret_cast<const char*>(t.data()),
           static_cast<size_t>(t.numel()) * sizeof(float));
}

TEST(DepthwiseBias, LoadsVersion1StreamsWithoutBias) {
  // A v1 DepthwiseConv2d record has no has_bias flag; the loader must
  // accept it and construct a bias-free layer.
  Rng rng(34);
  nn::DepthwiseConv2d reference(
      3, {.kernel = 3, .stride = 2, .pad = 1, .bias = false}, rng);
  std::string bytes;
  bytes.append("TBNM", 4);
  put_u32(bytes, 1);  // legacy version
  put_string(bytes, "DepthwiseConv2d");
  put_i64(bytes, 3);  // channels
  put_i64(bytes, 3);  // kernel
  put_i64(bytes, 2);  // stride
  put_i64(bytes, 1);  // pad
  put_tensor(bytes, reference.weight());

  std::istringstream is(bytes, std::ios::binary);
  auto loaded = nn::load_model(is);
  auto* dw = dynamic_cast<nn::DepthwiseConv2d*>(loaded.get());
  ASSERT_NE(dw, nullptr);
  EXPECT_FALSE(dw->has_bias());
  const Tensor x = Tensor::randn(Shape{1, 3, 8, 8}, rng);
  expect_close(loaded->forward(x, false), reference.forward(x, false), 0.0f,
               0.0f);
}

TEST(DepthwiseBias, LoadsUnversionedTwoBranchStreamsAsV1) {
  // Two-branch streams from builds before model format v2 start directly
  // with the stage count and contain v1 layer records; the loader must
  // parse them bias-free rather than reading a weight dim as the bias flag.
  Rng rng(36);
  nn::DepthwiseConv2d reference(
      2, {.kernel = 3, .stride = 1, .pad = 1, .bias = false}, rng);
  std::string bytes;
  put_i64(bytes, 1);  // legacy layout: stage count first, no sentinel
  put_i64(bytes, 0);  // empty channel map
  put_i64(bytes, 1);  // fused
  put_string(bytes, "ReLU");  // exposed branch (version-independent record)
  put_string(bytes, "DepthwiseConv2d");  // secure branch, v1 record
  put_i64(bytes, 2);  // channels
  put_i64(bytes, 3);  // kernel
  put_i64(bytes, 1);  // stride
  put_i64(bytes, 1);  // pad
  put_tensor(bytes, reference.weight());

  std::istringstream is(bytes, std::ios::binary);
  core::TwoBranchModel model = core::load_two_branch(is);
  ASSERT_EQ(model.num_stages(), 1);
  auto* dw = dynamic_cast<nn::DepthwiseConv2d*>(model.stage(0).secure.get());
  ASSERT_NE(dw, nullptr);
  EXPECT_FALSE(dw->has_bias());

  // And the current (sentinel-versioned) format round-trips a biased layer.
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  core::save_two_branch(ss, model);
  core::TwoBranchModel reloaded = core::load_two_branch(ss);
  EXPECT_EQ(reloaded.num_stages(), 1);
}

TEST(DepthwiseBias, RejectsUnknownFutureVersion) {
  std::string bytes;
  bytes.append("TBNM", 4);
  put_u32(bytes, nn::kModelFormatVersion + 1);
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW(nn::load_model(is), std::runtime_error);
}

// ------------------------------------------------ hoisted BN composition ---

TEST(Fusion, PreparedPlanCachesComposedBn) {
  if (!simd::fast_kernels_enabled()) {
    GTEST_SKIP() << "no fusion plan under TBNET_DETERMINISTIC=1";
  }
  Rng rng(35);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(
      3, 8, nn::Conv2d::Options{.kernel = 3, .stride = 1, .pad = 1,
                                .bias = false},
      rng);
  seq.emplace<nn::BatchNorm2d>(8);
  seq.emplace<nn::ReLU>();
  ExecutionContext ctx;
  seq.prepare_inference(ctx);
  const Tensor x = Tensor::randn(Shape{1, 3, 6, 6}, rng);
  const Tensor before = seq.forward(ctx, x, false);
  // A prepared model is frozen (Layer::prepare_inference contract): the
  // composed scale/shift were hoisted to prepare time, so editing the BN
  // afterwards must not change the fused output.
  seq.find_nth<nn::BatchNorm2d>(0)->gamma()[0] = 123.0f;
  const Tensor after = seq.forward(ctx, x, false);
  for (int64_t i = 0; i < before.numel(); ++i) {
    ASSERT_EQ(after[i], before[i]) << "at " << i;
  }
}

}  // namespace
}  // namespace tbnet
