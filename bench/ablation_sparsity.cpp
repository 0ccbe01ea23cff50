// Extension ablation: N:M sweep beyond the paper's 1:4 and 2:4 (adds 1:2
// and 2:8) on a representative layer shape, including the dense baseline
// (Algorithm 1) for context.
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace indexmac;
  using namespace indexmac::bench;
  using core::Algorithm;
  using core::RunConfig;

  const timing::ProcessorConfig proc{};
  print_section("Extension: sparsity-pattern sweep (paper evaluates 1:4 and 2:4)");

  const kernels::GemmDims dims{64, 576, 98};
  const sparse::Sparsity sweep[] = {sparse::Sparsity{1, 2}, sparse::Sparsity{1, 4},
                                    sparse::Sparsity{2, 4}, sparse::Sparsity{2, 8}};

  // One batch: the dense baseline plus both kernels at every pattern.
  core::BatchRunner pool;
  std::vector<core::BatchJob> jobs;
  jobs.push_back(core::exact_job(
      dims, sparse::Sparsity{4, 4}, 3,
      RunConfig{.algorithm = Algorithm::kDenseRowwise, .kernel = {.unroll = 1}}, proc));
  for (const auto sp : sweep) {
    jobs.push_back(core::exact_job(
        dims, sp, 3, RunConfig{.algorithm = Algorithm::kRowwiseSpmm, .kernel = {.unroll = 4}},
        proc));
    jobs.push_back(core::exact_job(
        dims, sp, 3, RunConfig{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 4}}, proc));
  }
  print_pool_note(jobs.size(), pool);
  const auto results = core::run_batch(pool, jobs);

  std::printf("Dense row-wise baseline (Algorithm 1) on %s: %s cycles\n\n",
              dims_label(dims).c_str(), fmt_count(results[0].stats.cycles).c_str());

  TextTable table;
  table.set_header({"sparsity", "Row-Wise-SpMM", "Proposed", "speedup", "accesses ratio"});
  std::size_t cursor = 1;
  for (const auto sp : sweep) {
    const auto& r2 = results[cursor++];
    const auto& r3 = results[cursor++];
    table.add_row({std::to_string(sp.n) + ":" + std::to_string(sp.m),
                   fmt_count(r2.stats.cycles), fmt_count(r3.stats.cycles),
                   fmt_speedup(r2.cycles / r3.cycles),
                   fmt_fixed(static_cast<double>(r3.data_accesses) /
                                 static_cast<double>(r2.data_accesses),
                             3)});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
