// Section IV-A ablation: loop unrolling. The paper applies 4-way unrolling
// (four output rows per iteration, following [17]) to both kernels and
// notes both benefit equally. Exact simulations across unroll factors.
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace indexmac;
  using namespace indexmac::bench;
  using core::Algorithm;
  using core::RunConfig;

  const timing::ProcessorConfig proc{};
  print_section("Ablation: loop unrolling (four output rows per iteration, as in [17])");

  const kernels::GemmDims dims{64, 576, 98};
  const unsigned unrolls[] = {1u, 2u, 4u};

  // Both kernels at every unroll factor, per sparsity, in one batch; each
  // sparsity's jobs measure one problem instance (seed 7).
  core::BatchRunner pool;
  std::vector<core::BatchJob> jobs;
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24}) {
    for (const unsigned unroll : unrolls) {
      jobs.push_back(core::exact_job(
          dims, sp, 7,
          RunConfig{.algorithm = Algorithm::kRowwiseSpmm, .kernel = {.unroll = unroll}}, proc));
      jobs.push_back(core::exact_job(
          dims, sp, 7, RunConfig{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = unroll}},
          proc));
    }
  }
  print_pool_note(jobs.size(), pool);
  const auto results = core::run_batch(pool, jobs);

  std::size_t cursor = 0;
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24}) {
    TextTable table;
    table.set_header({"unroll", "Row-Wise-SpMM cycles", "Proposed cycles", "speedup"});
    for (const unsigned unroll : unrolls) {
      const auto& r2 = results[cursor++];
      const auto& r3 = results[cursor++];
      table.add_row({std::to_string(unroll), fmt_count(r2.stats.cycles),
                     fmt_count(r3.stats.cycles), fmt_speedup(r2.cycles / r3.cycles)});
    }
    std::printf("Sparsity %d:%d on GEMM %s\n%s\n", sp.n, sp.m, dims_label(dims).c_str(),
                table.to_string().c_str());
  }
  return 0;
}
