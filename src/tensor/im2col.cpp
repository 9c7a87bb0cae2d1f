#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

#include "tensor/simd.h"
#include "tensor/threadpool.h"

namespace tbnet {
namespace {

/// Fills one row of the column matrix: the (c, kh, kw) tap across all output
/// positions. Rows are independent, which is what lets the context form
/// shard them.
inline void im2col_row(const Conv2dGeom& g, const float* image, int64_t row,
                       float* out) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t kw = row % g.kernel_w;
  const int64_t kh = (row / g.kernel_w) % g.kernel_h;
  const int64_t c = row / (g.kernel_w * g.kernel_h);
  const float* plane = image + c * g.in_h * g.in_w;
  for (int64_t oy = 0; oy < oh; ++oy) {
    const int64_t iy = oy * g.stride_h - g.pad_h + kh;
    if (iy < 0 || iy >= g.in_h) {
      std::memset(out + oy * ow, 0, static_cast<size_t>(ow) * sizeof(float));
      continue;
    }
    const float* src = plane + iy * g.in_w;
    for (int64_t ox = 0; ox < ow; ++ox) {
      const int64_t ix = ox * g.stride_w - g.pad_w + kw;
      out[oy * ow + ox] = (ix >= 0 && ix < g.in_w) ? src[ix] : 0.0f;
    }
  }
}

}  // namespace

void im2col(const Conv2dGeom& g, const float* image, float* cols) {
  const int64_t col_cols = g.col_cols();
  for (int64_t row = 0; row < g.col_rows(); ++row) {
    im2col_row(g, image, row, cols + row * col_cols);
  }
}

void im2col(const ExecutionContext& ctx, const Conv2dGeom& g,
            const float* image, float* cols) {
  const int64_t col_cols = g.col_cols();
  ctx.parallel_for(g.col_rows(), [&](int64_t r0, int64_t r1) {
    for (int64_t row = r0; row < r1; ++row) {
      im2col_row(g, image, row, cols + row * col_cols);
    }
  });
}

void im2col_pack_panel(const Conv2dGeom& g, const float* image, int64_t kk,
                       int64_t kc, int64_t j0, int nr, int64_t panel_stride,
                       float* panel) {
  const int64_t ow = g.out_w();
  const int64_t khw = g.kernel_h * g.kernel_w;
  // The column range [j0, j0+nr) decomposes into runs within single output
  // rows. The decomposition (and each run's base input row/column before the
  // kernel-tap offset) is shared by every tap row of the panel, so it is
  // computed once here instead of kc times in the tap loop. A panel is at
  // most panel_stride columns, so `nr` bounds the segment count.
  struct Seg {
    int64_t j;    ///< first panel column of the run
    int64_t len;  ///< run length
    int64_t iy0;  ///< oy * stride_h - pad_h (add kh for the tap's input row)
    int64_t ix0;  ///< ox0 * stride_w - pad_w (add kw; stride-1 run base)
  };
  Seg segs[simd::kNR];
  int nsegs = 0;
  for (int64_t j = 0, col = j0; j < nr; ++nsegs) {
    const int64_t oy = col / ow;
    const int64_t ox0 = col - oy * ow;
    segs[nsegs] = Seg{j, std::min<int64_t>(nr - j, ow - ox0),
                      oy * g.stride_h - g.pad_h, ox0 * g.stride_w - g.pad_w};
    j += segs[nsegs].len;
    col += segs[nsegs].len;
  }
  const simd::PanelRowFn row_copy = simd::panel_row_copy();
  // Tap coordinates advance incrementally over the panel's rows — no
  // division in the kc loop.
  int64_t kw = (kk % khw) % g.kernel_w;
  int64_t kh = (kk % khw) / g.kernel_w;
  int64_t c = kk / khw;
  const float* plane = image + c * g.in_h * g.in_w;
  for (int64_t p = 0; p < kc; ++p) {
    float* out = panel + p * panel_stride;
    for (int s = 0; s < nsegs; ++s) {
      const Seg& seg = segs[s];
      const int64_t iy = seg.iy0 + kh;
      if (iy < 0 || iy >= g.in_h) {
        std::memset(out + seg.j, 0,
                    static_cast<size_t>(seg.len) * sizeof(float));
        continue;
      }
      const float* src = plane + iy * g.in_w;
      const int64_t ix0 = seg.ix0 + kw;
      if (g.stride_w == 1) {
        // The run's in-bounds interior [lo, hi) is a straight copy.
        const int64_t lo = std::clamp<int64_t>(-ix0, 0, seg.len);
        const int64_t hi = std::clamp<int64_t>(g.in_w - ix0, lo, seg.len);
        row_copy(hi > lo ? src + ix0 + lo : src, static_cast<int>(lo),
                 static_cast<int>(hi), static_cast<int>(seg.len),
                 out + seg.j);
      } else {
        for (int64_t t = 0; t < seg.len; ++t) {
          const int64_t ix = ix0 + t * g.stride_w;
          out[seg.j + t] = (ix >= 0 && ix < g.in_w) ? src[ix] : 0.0f;
        }
      }
    }
    for (int64_t j = nr; j < panel_stride; ++j) out[j] = 0.0f;
    // Advance (c, kh, kw) to the next column-matrix row.
    if (++kw == g.kernel_w) {
      kw = 0;
      if (++kh == g.kernel_h) {
        kh = 0;
        ++c;
        plane += g.in_h * g.in_w;
      }
    }
  }
}

void im2col_pack_panel_u8(const Conv2dGeom& g, const float* image, int64_t kk,
                          int64_t kc, int64_t j0, int nr, float inv_scale,
                          int32_t zero_point, uint8_t* panel) {
  // Stage one k-group of f32 column rows at a time through the existing
  // fused lowering, then quantize-interleave into the grouped byte layout.
  // The staging tile is 4x16 floats — the f32 column matrix never exists
  // beyond it.
  alignas(simd::kAlign) float staged[simd::kKG][simd::kNR];
  const simd::QuantizeU7GroupFn qgroup = simd::quantize_u7_group();
  const int64_t kg = (kc + simd::kKG - 1) / simd::kKG;
  for (int64_t gi = 0; gi < kg; ++gi) {
    const int64_t p0 = gi * simd::kKG;
    const int64_t rows = std::min<int64_t>(simd::kKG, kc - p0);
    im2col_pack_panel(g, image, kk + p0, rows, j0, nr, simd::kNR, staged[0]);
    uint8_t* grp = panel + gi * simd::kNR * simd::kKG;
    if (rows == simd::kKG && nr == simd::kNR) {
      qgroup(staged[0], staged[1], staged[2], staged[3], grp, inv_scale,
             zero_point);
      continue;
    }
    for (int64_t j = 0; j < simd::kNR; ++j) {
      for (int64_t t = 0; t < simd::kKG; ++t) {
        grp[j * simd::kKG + t] =
            t < rows && j < nr
                ? simd::quantize_u7(staged[t][j], inv_scale, zero_point)
                : uint8_t{0};
      }
    }
  }
}

void col2im(const Conv2dGeom& g, const float* cols, float* image) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t col_cols = oh * ow;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    float* plane = image + c * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src = cols + row * col_cols;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * g.stride_h - g.pad_h + kh;
          if (iy < 0 || iy >= g.in_h) continue;
          float* dst = plane + iy * g.in_w;
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t ix = ox * g.stride_w - g.pad_w + kw;
            if (ix >= 0 && ix < g.in_w) dst[ix] += src[oy * ow + ox];
          }
        }
      }
    }
  }
}

}  // namespace tbnet
