// Section III ablation: how many B rows (L) to preload. The paper fixes
// L=16; Section III derives the upper bound L <= M * VectorLength / N
// beyond which extra preloaded rows are never addressed. Smaller L preloads
// less but amortizes the preload over fewer non-zero slots per tile.
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace indexmac;
  using namespace indexmac::bench;
  using core::Algorithm;
  using core::RunConfig;

  const timing::ProcessorConfig proc{};
  print_section("Ablation: preloaded B-tile rows L (paper uses L=16)");

  const kernels::GemmDims dims{64, 576, 98};
  const unsigned tile_rows[] = {4u, 8u, 16u};

  // Per sparsity: the Row-Wise-SpMM reference plus one Proposed run per L,
  // all on that sparsity's problem instance (seed 11), in one batch.
  core::BatchRunner pool;
  std::vector<core::BatchJob> jobs;
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24}) {
    jobs.push_back(core::exact_job(
        dims, sp, 11, RunConfig{.algorithm = Algorithm::kRowwiseSpmm, .kernel = {.unroll = 4}},
        proc));
    for (const unsigned l : tile_rows)
      jobs.push_back(core::exact_job(dims, sp, 11,
                                     RunConfig{.algorithm = Algorithm::kIndexmac,
                                               .kernel = {.unroll = 4},
                                               .tile_rows = l},
                                     proc));
  }
  print_pool_note(jobs.size(), pool);
  const auto results = core::run_batch(pool, jobs);

  std::size_t cursor = 0;
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24}) {
    const auto& rowwise = results[cursor++];
    TextTable table;
    table.set_header({"L (B rows in VRF)", "Proposed cycles", "vs Row-Wise-SpMM"});
    for (const unsigned l : tile_rows) {
      const auto& r = results[cursor++];
      table.add_row({std::to_string(l), fmt_count(r.stats.cycles),
                     fmt_speedup(rowwise.cycles / r.cycles)});
    }
    std::printf("Sparsity %d:%d on GEMM %s (Row-Wise-SpMM: %s cycles)\n%s\n", sp.n, sp.m,
                dims_label(dims).c_str(), fmt_count(rowwise.stats.cycles).c_str(),
                table.to_string().c_str());
  }
  return 0;
}
