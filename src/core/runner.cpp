#include "core/runner.h"

#include <algorithm>

#include "common/error.h"
#include "core/algorithm_registry.h"
#include "kernels/kernels.h"

namespace indexmac::core {

using kernels::MarkerId;

ExactResult run_exact(const SpmmProblem& problem, const RunConfig& config,
                      const timing::ProcessorConfig& processor) {
  MainMemory mem;
  const PreparedRun run = prepare(problem, config, mem);
  timing::TimingSim sim(run.program, mem, processor);
  ExactResult out;
  out.stats = sim.run();
  return out;
}

namespace {

/// Per-phase averages recovered from the marker event stream of a
/// miniature run (see kernels::MarkerId for the event protocol). The first
/// row group of each k-tile is tracked separately: it absorbs the cold
/// B-row / engine-backlog cost that later groups of the same tile do not
/// pay, so it must not be averaged into the steady per-group cost.
struct PhaseCosts {
  struct StripType {
    double preload = 0;       ///< per-ktile preload/loop overhead
    double head_total = 0;    ///< total cost of the head groups of each k-tile
    double steady_group = 0;  ///< per-group cost past the head
  };
  StripType full;
  StripType tail;
  double head_groups = 0;  ///< how many leading groups the head covers
  double startup = 0;      ///< prologue before the first strip
};

/// Leading row groups per k-tile that absorb cold B-row misses (with 1:4
/// sparsity one group of four rows touches at most 16 of the tile's rows,
/// so cold misses can spill into the second group).
constexpr std::size_t kHeadGroups = 2;

PhaseCosts decompose(const std::vector<timing::MarkerEvent>& events, std::size_t full_visits,
                     std::size_t tail_visits, std::size_t ktiles, std::size_t groups_per_ktile) {
  IMAC_CHECK(!events.empty() && events.front().id == kernels::kMarkerKernelStart,
             "sampled run must start with a kernel-start marker");
  const std::size_t per_visit = ktiles * (1 + groups_per_ktile);
  const std::size_t expected = 2 + (full_visits + tail_visits) * per_visit;
  IMAC_CHECK(events.size() == expected,
             "marker stream has " + std::to_string(events.size()) + " events, expected " +
                 std::to_string(expected));

  PhaseCosts out;
  const std::size_t head = std::min(kHeadGroups, groups_per_ktile);
  out.head_groups = static_cast<double>(head);
  out.startup = static_cast<double>(events.front().cycle);
  std::size_t idx = 1;
  std::uint64_t prev_cycle = events.front().cycle;
  struct Sums {
    double preload = 0, head = 0, steady = 0;
    std::uint64_t preload_n = 0, head_n = 0, steady_n = 0;
  } sums[2];

  for (std::size_t visit = 0; visit < full_visits + tail_visits; ++visit) {
    Sums& s = sums[visit < full_visits ? 0 : 1];
    for (std::size_t t = 0; t < ktiles; ++t) {
      IMAC_CHECK(events[idx].id == kernels::kMarkerPreloadDone, "expected preload marker");
      s.preload += static_cast<double>(events[idx].cycle - prev_cycle);
      ++s.preload_n;
      prev_cycle = events[idx].cycle;
      ++idx;
      for (std::size_t g = 0; g < groups_per_ktile; ++g) {
        IMAC_CHECK(events[idx].id == kernels::kMarkerRowGroupDone, "expected row-group marker");
        const auto delta = static_cast<double>(events[idx].cycle - prev_cycle);
        if (g < head) {
          s.head += delta;
          ++s.head_n;
        } else {
          s.steady += delta;
          ++s.steady_n;
        }
        prev_cycle = events[idx].cycle;
        ++idx;
      }
    }
  }
  IMAC_CHECK(events[idx].id == kernels::kMarkerKernelEnd, "expected kernel-end marker");

  auto finish = [head](const Sums& s) {
    PhaseCosts::StripType t;
    if (s.preload_n > 0) t.preload = s.preload / static_cast<double>(s.preload_n);
    const double visits = s.head_n > 0 ? static_cast<double>(s.head_n) / head : 1.0;
    t.head_total = s.head / visits;
    t.steady_group =
        s.steady_n > 0 ? s.steady / static_cast<double>(s.steady_n) : t.head_total / head;
    return t;
  };
  out.full = finish(sums[0]);
  out.tail = finish(sums[1]);
  return out;
}

/// Full-size cost of one (strip, k-tile) visit given measured phase costs.
double visit_cost(const PhaseCosts::StripType& t, double head_groups, double groups_full_eq) {
  if (groups_full_eq <= head_groups)
    return t.preload + t.head_total * (groups_full_eq / head_groups);
  return t.preload + t.head_total + t.steady_group * (groups_full_eq - head_groups);
}

std::uint64_t analytic_accesses(const kernels::GemmDims& dims, sparse::Sparsity sp,
                                const RunConfig& config) {
  AddressAllocator alloc;
  const kernels::SpmmLayout layout = kernels::make_layout(dims, sp, config.tile_rows, alloc);
  const AlgorithmDescriptor& desc = AlgorithmRegistry::instance().by_algorithm(config.algorithm);
  IMAC_CHECK(desc.footprint != nullptr,
             "algorithm \"" + desc.id + "\" has no analytic footprint model");
  const kernels::KernelFootprint fp = desc.footprint(layout);
  // Scalar index-word loads (Algorithm 4) are memory accesses too: the
  // exact runs count them in MemStats, so the analytic total must match.
  return fp.vector_loads + fp.vector_stores + fp.scalar_loads;
}

}  // namespace

kernels::GemmDims sample_dims(const kernels::GemmDims& dims, unsigned unroll,
                              const SampleParams& params) {
  IMAC_CHECK(unroll >= 1, "sampled runs need an unroll factor of at least 1");
  // Rows are a multiple of the unroll factor, so the marker stream is
  // regular; k stays whole, so cache behaviour along k is real.
  const std::size_t full_strips = dims.cols_b / isa::kVlMax;
  const std::size_t sample_full =
      std::min<std::size_t>(full_strips, std::max(1u, params.sample_full_strips));
  kernels::GemmDims out = dims;
  out.rows_a = std::min<std::size_t>(round_up(dims.rows_a, unroll),
                                     round_up(std::max(params.sample_rows, unroll), unroll));
  out.cols_b = sample_full * isa::kVlMax + dims.cols_b % isa::kVlMax;
  return out;
}

SampledResult run_sampled(const kernels::GemmDims& dims, sparse::Sparsity sp,
                          const RunConfig& config, const timing::ProcessorConfig& processor,
                          const SampleParams& params) {
  IMAC_CHECK(config.kernel.dataflow == kernels::Dataflow::kBStationary,
             "run_sampled supports B-stationary kernels only");
  IMAC_CHECK(AlgorithmRegistry::instance().by_algorithm(config.algorithm).supports_sampled,
             "run_sampled supports the sparse kernels only");

  const unsigned unroll = config.kernel.unroll;
  const std::size_t full_strips = dims.cols_b / isa::kVlMax;
  const unsigned tail = static_cast<unsigned>(dims.cols_b % isa::kVlMax);
  const kernels::GemmDims mini = sample_dims(dims, unroll, params);
  const auto problem = SpmmProblem::shared(mini, sp, kSampleSeed);
  RunConfig sample_config = config;
  sample_config.kernel.emit_markers = true;

  MainMemory mem;
  const PreparedRun run = prepare(*problem, sample_config, mem);
  timing::TimingSim sim(run.program, mem, processor);
  SampledResult out;
  out.sample_stats = sim.run(params.max_instructions);

  const std::size_t groups = mini.rows_a / unroll;
  const PhaseCosts costs = decompose(sim.markers(), mini.cols_b / isa::kVlMax, tail != 0 ? 1 : 0,
                                     run.layout.num_ktiles, groups);

  // Extrapolate: per strip type, each k-tile pays its preload/loop overhead
  // plus the measured first-group cost once and the steady per-group cost
  // for the remaining rows_a/unroll - 1 group equivalents.
  const double groups_full_eq = static_cast<double>(dims.rows_a) / unroll;
  const double ktiles = static_cast<double>(run.layout.num_ktiles);
  double cycles = costs.startup;
  if (full_strips > 0)
    cycles += static_cast<double>(full_strips) * ktiles *
              visit_cost(costs.full, costs.head_groups, groups_full_eq);
  if (tail != 0) cycles += ktiles * visit_cost(costs.tail, costs.head_groups, groups_full_eq);
  out.cycles = cycles;
  const PhaseCosts::StripType& rep = full_strips > 0 ? costs.full : costs.tail;
  out.preload_cycles_per_ktile = rep.preload;
  out.rowgroup_cycles_per_row = rep.steady_group / unroll;

  // Memory accesses are structure-determined; report the exact count.
  out.data_accesses = analytic_accesses(dims, sp, config);
  return out;
}

}  // namespace indexmac::core
