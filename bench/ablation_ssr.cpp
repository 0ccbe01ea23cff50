// Algorithm 5 ablation: the SSR streaming kernel (after the SSR/ISSR line
// of work, arXiv:2305.05559 and arXiv:2011.08070) against every other
// registered family. All five algorithms run the same exact simulation at
// unroll 1 — the one cell the dense baseline and the strictly-sequential
// streams both support — so the table isolates what the operand delivery
// mechanism (explicit loads vs packed strips vs address-generation
// streams) costs at identical MAC counts. The family list, labels and
// skip rules come from the AlgorithmRegistry, so a newly registered
// family appears here without editing this file.
#include <cstdio>

#include "bench_util.h"
#include "core/algorithm_registry.h"

int main() {
  using namespace indexmac;
  using namespace indexmac::bench;
  using core::AlgorithmDescriptor;
  using core::AlgorithmRegistry;
  using core::RunConfig;

  const timing::ProcessorConfig proc{};
  print_section("Ablation: Algorithm 5 (SSR streaming) vs all registered families");

  const kernels::GemmDims dims{64, 576, 98};
  const auto& families = AlgorithmRegistry::instance().all();

  core::BatchRunner pool;
  std::vector<core::BatchJob> jobs;
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24}) {
    for (const AlgorithmDescriptor& desc : families)
      jobs.push_back(core::exact_job(
          dims, sp, 7, RunConfig{.algorithm = desc.algorithm, .kernel = {.unroll = 1}}, proc));
  }
  print_pool_note(jobs.size(), pool);
  const auto results = core::run_batch(pool, jobs);

  std::size_t cursor = 0;
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24}) {
    // Baselines for the speedup columns: Algorithm 2 (the paper's
    // baseline) and Algorithm 5, so the last column reads "how much
    // faster/slower than streaming".
    const std::size_t base = cursor;
    double rowwise_cycles = 0, ssr_cycles = 0;
    for (std::size_t i = 0; i < families.size(); ++i) {
      if (families[i].id == "rowwise") rowwise_cycles = results[base + i].cycles;
      if (families[i].id == "ssr") ssr_cycles = results[base + i].cycles;
    }
    TextTable table;
    table.set_header({"algorithm", "name", "cycles", "accesses", "vs Alg2", "vs ssr"});
    for (const AlgorithmDescriptor& desc : families) {
      const auto& r = results[cursor++];
      table.add_row({desc.id, desc.display_name, fmt_count(r.stats.cycles),
                     std::to_string(r.data_accesses), fmt_speedup(rowwise_cycles / r.cycles),
                     fmt_speedup(ssr_cycles / r.cycles)});
    }
    std::printf("Sparsity %d:%d on GEMM %s, unroll 1\n%s\n", sp.n, sp.m,
                dims_label(dims).c_str(), table.to_string().c_str());
  }
  return 0;
}
