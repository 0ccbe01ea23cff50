// Follow-up-paper ablation: Algorithm 4 (packed-index + dual-row
// vindexmac variants, arXiv:2501.10189) against Algorithm 2
// ("Row-Wise-SpMM") and Algorithm 3 ("Proposed"), across unroll factors
// and both paper sparsities. Exact simulations; the v2 column shows the
// gain of eliminating the per-slot vmv.x.s round trips and halving the
// dependent-MAC chain.
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace indexmac;
  using namespace indexmac::bench;
  using core::Algorithm;
  using core::RunConfig;

  const timing::ProcessorConfig proc{};
  print_section(
      "Ablation: Algorithm 4 (packed-index + dual-row MACs) vs Algorithms 2 and 3");

  const kernels::GemmDims dims{64, 576, 98};
  const unsigned unrolls[] = {1u, 2u, 4u};
  const Algorithm algs[] = {Algorithm::kRowwiseSpmm, Algorithm::kIndexmac,
                            Algorithm::kIndexmac4};

  // Every (sparsity, unroll, algorithm) cell in one batch; each sparsity's
  // jobs measure one problem instance (seed 7).
  core::BatchRunner pool;
  std::vector<core::BatchJob> jobs;
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24}) {
    for (const unsigned unroll : unrolls)
      for (const Algorithm alg : algs)
        jobs.push_back(core::exact_job(
            dims, sp, 7, RunConfig{.algorithm = alg, .kernel = {.unroll = unroll}}, proc));
  }
  print_pool_note(jobs.size(), pool);
  const auto results = core::run_batch(pool, jobs);

  std::size_t cursor = 0;
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24}) {
    TextTable table;
    table.set_header({"unroll", "Alg2 cycles", "Alg3 cycles", "Alg4 cycles",
                      "Alg4 vs Alg2", "Alg4 vs Alg3"});
    for (const unsigned unroll : unrolls) {
      const auto& r2 = results[cursor++];
      const auto& r3 = results[cursor++];
      const auto& r4 = results[cursor++];
      table.add_row({std::to_string(unroll), fmt_count(r2.stats.cycles),
                     fmt_count(r3.stats.cycles), fmt_count(r4.stats.cycles),
                     fmt_speedup(r2.cycles / r4.cycles), fmt_speedup(r3.cycles / r4.cycles)});
    }
    std::printf("Sparsity %d:%d on GEMM %s\n%s\n", sp.n, sp.m, dims_label(dims).c_str(),
                table.to_string().c_str());
  }
  return 0;
}
