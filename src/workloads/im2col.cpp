#include "workloads/im2col.h"

#include <random>

namespace indexmac::workloads {

FeatureMap random_feature_map(unsigned channels, unsigned height, unsigned width,
                              std::uint32_t seed) {
  FeatureMap map(channels, height, width);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (float& v : map.data) v = dist(rng);
  return map;
}

sparse::DenseMatrix<float> im2col(const FeatureMap& input, const ConvLayer& layer) {
  IMAC_CHECK(input.channels == layer.in_channels && input.height == layer.in_h &&
                 input.width == layer.in_w,
             "feature map does not match the layer geometry");
  const unsigned oh = layer.out_h();
  const unsigned ow = layer.out_w();
  sparse::DenseMatrix<float> b(layer.gemm().k, layer.gemm().cols_b);
  for (unsigned c = 0; c < layer.in_channels; ++c)
    for (unsigned i = 0; i < layer.kernel_h; ++i)
      for (unsigned j = 0; j < layer.kernel_w; ++j) {
        const std::size_t row = (static_cast<std::size_t>(c) * layer.kernel_h + i) * layer.kernel_w + j;
        for (unsigned y = 0; y < oh; ++y)
          for (unsigned x = 0; x < ow; ++x) {
            const int sy = static_cast<int>(y * layer.stride + i) - static_cast<int>(layer.pad_h);
            const int sx = static_cast<int>(x * layer.stride + j) - static_cast<int>(layer.pad_w);
            b.at(row, static_cast<std::size_t>(y) * ow + x) = input.padded(c, sy, sx);
          }
      }
  return b;
}

FeatureMap conv_reference(const FeatureMap& input, const ConvLayer& layer,
                          const sparse::DenseMatrix<float>& weights) {
  IMAC_CHECK(weights.rows() == layer.out_channels && weights.cols() == layer.gemm().k,
             "weight matrix does not match the layer");
  const unsigned oh = layer.out_h();
  const unsigned ow = layer.out_w();
  FeatureMap out(layer.out_channels, oh, ow);
  for (unsigned o = 0; o < layer.out_channels; ++o)
    for (unsigned y = 0; y < oh; ++y)
      for (unsigned x = 0; x < ow; ++x) {
        float acc = 0.0f;
        for (unsigned c = 0; c < layer.in_channels; ++c)
          for (unsigned i = 0; i < layer.kernel_h; ++i)
            for (unsigned j = 0; j < layer.kernel_w; ++j) {
              const std::size_t widx =
                  (static_cast<std::size_t>(c) * layer.kernel_h + i) * layer.kernel_w + j;
              const int sy = static_cast<int>(y * layer.stride + i) - static_cast<int>(layer.pad_h);
              const int sx = static_cast<int>(x * layer.stride + j) - static_cast<int>(layer.pad_w);
              acc += weights.at(o, widx) * input.padded(c, sy, sx);
            }
        out.at(o, y, x) = acc;
      }
  return out;
}

FeatureMap gemm_result_to_map(const sparse::DenseMatrix<float>& c, const ConvLayer& layer) {
  const unsigned oh = layer.out_h();
  const unsigned ow = layer.out_w();
  IMAC_CHECK(c.rows() == layer.out_channels && c.cols() == static_cast<std::size_t>(oh) * ow,
             "GEMM result does not match the layer output geometry");
  FeatureMap out(layer.out_channels, oh, ow);
  for (unsigned o = 0; o < layer.out_channels; ++o)
    for (unsigned y = 0; y < oh; ++y)
      for (unsigned x = 0; x < ow; ++x)
        out.at(o, y, x) = c.at(o, static_cast<std::size_t>(y) * ow + x);
  return out;
}

}  // namespace indexmac::workloads
