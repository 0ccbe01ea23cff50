// End-to-end convolution: real feature maps lowered with im2col, weights
// pruned to N:M, the whole thing executed by the simulated vindexmac
// kernel, compared against a direct convolution. This closes the loop the
// paper's Section IV describes ("convolutions ... are mapped to
// sparse-dense matrix multiplications").
#include <gtest/gtest.h>

#include "core/spmm_problem.h"
#include "fsim/machine.h"
#include "workloads/im2col.h"

namespace indexmac::workloads {
namespace {

TEST(Im2col, IdentityFor1x1Stride1) {
  // A 1x1 conv's im2col is the flattened input itself.
  const FeatureMap input = random_feature_map(3, 4, 5, 1);
  const ConvLayer layer{"c", 3, 8, 1, 1, 1, 0, 0, 4, 5};
  const auto b = im2col(input, layer);
  ASSERT_EQ(b.rows(), 3u);
  ASSERT_EQ(b.cols(), 20u);
  for (unsigned c = 0; c < 3; ++c)
    for (unsigned y = 0; y < 4; ++y)
      for (unsigned x = 0; x < 5; ++x)
        EXPECT_FLOAT_EQ(b.at(c, y * 5 + x), input.at(c, y, x));
}

TEST(Im2col, PaddingProducesZeros) {
  const FeatureMap input = random_feature_map(1, 3, 3, 2);
  const ConvLayer layer{"c", 1, 1, 3, 3, 1, 1, 1, 3, 3};
  const auto b = im2col(input, layer);
  // Output position (0,0), kernel tap (0,0) reads input(-1,-1) -> 0.
  EXPECT_FLOAT_EQ(b.at(0, 0), 0.0f);
  // Kernel tap (1,1) at output (0,0) reads input(0,0).
  EXPECT_FLOAT_EQ(b.at(4, 0), input.at(0, 0, 0));
}

TEST(Im2col, StrideSkipsPositions) {
  const FeatureMap input = random_feature_map(1, 6, 6, 3);
  const ConvLayer layer{"c", 1, 1, 1, 1, 2, 0, 0, 6, 6};
  const auto b = im2col(input, layer);
  ASSERT_EQ(b.cols(), 9u);  // 3x3 output
  EXPECT_FLOAT_EQ(b.at(0, 1), input.at(0, 0, 2));
  EXPECT_FLOAT_EQ(b.at(0, 3), input.at(0, 2, 0));
}

TEST(Im2col, GemmTimesIm2colEqualsDirectConvolution) {
  const ConvLayer layer{"c", 4, 6, 3, 3, 1, 1, 1, 8, 8};
  const FeatureMap input = random_feature_map(4, 8, 8, 4);
  const auto weights = sparse::random_matrix<float>(6, 36, 5, -1.0f, 1.0f);
  const auto direct = conv_reference(input, layer, weights);
  const auto gemm = sparse::matmul_reference(weights, im2col(input, layer));
  const FeatureMap via_gemm = gemm_result_to_map(gemm, layer);
  for (unsigned o = 0; o < 6; ++o)
    for (unsigned y = 0; y < 8; ++y)
      for (unsigned x = 0; x < 8; ++x)
        EXPECT_NEAR(via_gemm.at(o, y, x), direct.at(o, y, x), 1e-4);
}

struct ConvCase {
  ConvLayer layer;
  sparse::Sparsity sp;
};

class EndToEndConv : public ::testing::TestWithParam<ConvCase> {};

TEST_P(EndToEndConv, SimulatedVindexmacKernelComputesTheConvolution) {
  const ConvLayer& layer = GetParam().layer;
  const sparse::Sparsity sp = GetParam().sp;

  const FeatureMap input = random_feature_map(layer.in_channels, layer.in_h, layer.in_w, 7);
  const auto dense_weights =
      sparse::random_matrix<float>(layer.out_channels, layer.gemm().k, 8, -1.0f, 1.0f);
  const auto nm = sparse::NmMatrix<float>::prune_from_dense(dense_weights, sp);

  // Direct convolution with the *pruned* weights is the golden output.
  const FeatureMap golden = conv_reference(input, layer, nm.to_dense());

  // Simulated path: pack, emit, execute the vindexmac kernel.
  core::SpmmProblem problem{layer.gemm(), sp, nm, im2col(input, layer)};
  MainMemory mem;
  const auto run = core::prepare(
      problem, core::RunConfig{.algorithm = core::Algorithm::kIndexmac, .kernel = {.unroll = 4}},
      mem);
  Machine machine(run.program, mem);
  ASSERT_EQ(machine.run(200'000'000), StopReason::kEbreak);
  const FeatureMap out = gemm_result_to_map(core::read_c(run, mem), layer);

  for (unsigned o = 0; o < layer.out_channels; ++o)
    for (unsigned y = 0; y < layer.out_h(); ++y)
      for (unsigned x = 0; x < layer.out_w(); ++x)
        ASSERT_NEAR(out.at(o, y, x), golden.at(o, y, x), 5e-3)
            << layer.name << " @(" << o << "," << y << "," << x << ")";
}

INSTANTIATE_TEST_SUITE_P(
    LayerShapes, EndToEndConv,
    ::testing::Values(
        ConvCase{{"conv3x3", 8, 12, 3, 3, 1, 1, 1, 10, 10}, sparse::kSparsity24},
        ConvCase{{"conv1x1", 16, 12, 1, 1, 1, 0, 0, 7, 7}, sparse::kSparsity14},
        ConvCase{{"strided", 8, 10, 3, 3, 2, 1, 1, 9, 9}, sparse::kSparsity24},
        ConvCase{{"asym7x1", 8, 6, 7, 1, 1, 3, 0, 9, 9}, sparse::kSparsity14}),
    [](const auto& info) { return info.param.layer.name; });

}  // namespace
}  // namespace indexmac::workloads
