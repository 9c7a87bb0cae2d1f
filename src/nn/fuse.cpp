#include "nn/fuse.h"

#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/depthwise.h"

namespace tbnet::nn {

int fold_batchnorm_inference(Sequential& seq) {
  int folds = 0;
  for (int i = 0; i < seq.size(); ++i) {
    if (auto* inner = dynamic_cast<Sequential*>(&seq.layer(i))) {
      folds += fold_batchnorm_inference(*inner);
      continue;
    }
    if (i + 1 >= seq.size()) continue;
    auto* conv = dynamic_cast<Conv2d*>(&seq.layer(i));
    auto* dw = dynamic_cast<DepthwiseConv2d*>(&seq.layer(i));
    const int64_t channels = conv != nullptr ? conv->out_channels()
                             : dw != nullptr ? dw->channels()
                                             : -1;
    if (channels < 0) continue;
    auto* bn = dynamic_cast<BatchNorm2d*>(&seq.layer(i + 1));
    if (bn == nullptr || bn->channels() != channels) continue;
    std::vector<float> scale(static_cast<size_t>(channels));
    std::vector<float> shift(static_cast<size_t>(channels));
    bn->inference_scale_shift(scale.data(), shift.data());
    if (conv != nullptr) {
      conv->fuse_scale_shift(scale.data(), shift.data());
    } else {
      dw->fuse_scale_shift(scale.data(), shift.data());
    }
    seq.remove_layer(i + 1);
    ++folds;
  }
  return folds;
}

}  // namespace tbnet::nn
