// Section IV-A ablation: dataflow comparison for Row-Wise-SpMM. The paper
// tested A-, B- and C-stationary dataflows and found B-stationary gave the
// best total execution time (and therefore used it for both kernels).
// Exact (non-sampled) simulations on representative early/late-layer-shaped
// GEMMs, scaled down to keep exact simulation tractable.
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace indexmac;
  using namespace indexmac::bench;
  using core::Algorithm;
  using core::RunConfig;
  using kernels::Dataflow;

  const timing::ProcessorConfig proc{};
  print_section("Ablation: Row-Wise-SpMM dataflow (Section IV-A)");
  std::printf("Paper: B-stationary yields the best Row-Wise-SpMM execution time, so all\n"
              "headline comparisons use it for both kernels.\n\n");

  struct Shape {
    const char* label;
    kernels::GemmDims dims;
  };
  // Early layers: few A rows, many B columns. Late layers: the opposite.
  // (Scaled-down layer shapes keep the exact simulations under ~15 s.)
  const Shape shapes[] = {
      {"early-layer shape", {16, 144, 392}},
      {"mid-layer shape", {32, 288, 98}},
      {"late-layer shape", {128, 576, 49}},
  };

  // Four exact simulations per (sparsity, shape) cell, all on that cell's
  // problem instance (seed 42).
  core::BatchRunner pool;
  std::vector<core::BatchJob> jobs;
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24}) {
    for (const Shape& shape : shapes) {
      auto add = [&](Algorithm alg, Dataflow df) {
        const RunConfig config{.algorithm = alg, .kernel = {.unroll = 4, .dataflow = df}};
        jobs.push_back(core::exact_job(shape.dims, sp, 42, config, proc));
      };
      add(Algorithm::kRowwiseSpmm, Dataflow::kAStationary);
      add(Algorithm::kRowwiseSpmm, Dataflow::kBStationary);
      add(Algorithm::kRowwiseSpmm, Dataflow::kCStationary);
      add(Algorithm::kIndexmac, Dataflow::kBStationary);
    }
  }
  print_pool_note(jobs.size(), pool);
  const auto results = core::run_batch(pool, jobs);

  std::size_t cursor = 0;
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24}) {
    TextTable table;
    table.set_header({"shape", "GEMM (RxKxN)", "A-stationary", "B-stationary", "C-stationary",
                      "Proposed (B-stat)"});
    for (const Shape& shape : shapes) {
      const auto a = results[cursor++].stats.cycles;
      const auto b = results[cursor++].stats.cycles;
      const auto c = results[cursor++].stats.cycles;
      const auto p = results[cursor++].stats.cycles;
      table.add_row({shape.label, dims_label(shape.dims), fmt_count(a), fmt_count(b),
                     fmt_count(c), fmt_count(p)});
    }
    std::printf("Sparsity %d:%d (cycles, lower is better)\n%s\n", sp.n, sp.m,
                table.to_string().c_str());
  }
  return 0;
}
