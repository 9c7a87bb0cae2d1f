#pragma once
// im2col / col2im lowering for 2-D convolution.
//
// Convolution is  W[outC, inC*kh*kw] x cols[inC*kh*kw, oh*ow]  for each image.
// Inference never builds `cols`: im2col_pack_panel writes one B panel at a
// time for the packed driver, which runs a whole batch's panels in one call.
// The materializing im2col serves training and the TBNET_DETERMINISTIC=1
// reference; backward-to-input uses col2im to scatter the column gradient
// back.

#include <cstdint>

#include "tensor/execution_context.h"

namespace tbnet {

/// Parameters of a 2-D convolution / pooling window over a CHW image.
struct Conv2dGeom {
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t kernel_h = 1, kernel_w = 1;
  int64_t stride_h = 1, stride_w = 1;
  int64_t pad_h = 0, pad_w = 0;

  int64_t out_h() const {
    return (in_h + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  int64_t out_w() const {
    return (in_w + 2 * pad_w - kernel_w) / stride_w + 1;
  }
  /// Rows of the column matrix: in_c * kernel_h * kernel_w.
  int64_t col_rows() const { return in_c * kernel_h * kernel_w; }
  /// Columns of the column matrix: out_h * out_w.
  int64_t col_cols() const { return out_h() * out_w(); }
};

/// Expands `image` (CHW, geom.in_c x geom.in_h x geom.in_w) into `cols`
/// ([col_rows x col_cols], caller-allocated). Out-of-bounds taps read 0.
/// The context form shards the (independent) column-matrix rows on
/// ctx.pool(); output is identical to the serial form.
void im2col(const ExecutionContext& ctx, const Conv2dGeom& geom,
            const float* image, float* cols);
void im2col(const Conv2dGeom& geom, const float* image, float* cols);

/// Adjoint of im2col: accumulates `cols` back into `image` (caller must
/// zero-init `image`).
void col2im(const Conv2dGeom& geom, const float* cols, float* image);

/// Fused im2col → panel lowering: writes the [kc x nr] slab of the column
/// matrix covering rows [kk, kk+kc) and columns [j0, j0+nr) straight from
/// the CHW `image` into `panel` (layout [kc][panel_stride], columns
/// [nr, panel_stride) zero-filled). Feeding these panels to the packed GEMM
/// driver (packdetail::run_packed_b_producer) computes a convolution without
/// ever materializing the column matrix; the values written are exactly the
/// ones im2col would place at the same (row, col) positions, so the result
/// is bit-identical to the materializing path. Stride-1 rows are copied one
/// output-row run at a time by simd::panel_row_copy (one masked load and
/// store per run on AVX-512). Pure function of its arguments — safe to call
/// concurrently for disjoint panels. `nr` must not exceed simd::kNR (one
/// microkernel panel, the only width the packed driver requests);
/// panel_stride >= nr sets the row pitch.
void im2col_pack_panel(const Conv2dGeom& geom, const float* image, int64_t kk,
                       int64_t kc, int64_t j0, int nr, int64_t panel_stride,
                       float* panel);

/// Quantize-on-pack variant for the int8 path: the same [kc x nr] column
/// slab, but quantized to u7 (simd::quantize_u7 with inv_scale/zero_point)
/// and written in the grouped int8 B-panel layout packdetail::PanelProducerU8
/// documents. The f32 intermediate lives only in a kKG x kNR stack staging
/// tile, so the zero-materialization property of the fused lowering carries
/// over to the quantized path. Taps past kc and columns past nr are written
/// as 0 (the packed weights are zero there, so they contribute nothing).
/// Pure function of its arguments, like im2col_pack_panel.
void im2col_pack_panel_u8(const Conv2dGeom& geom, const float* image,
                          int64_t kk, int64_t kc, int64_t j0, int nr,
                          float inv_scale, int32_t zero_point, uint8_t* panel);

}  // namespace tbnet
