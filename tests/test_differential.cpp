// Differential and fuzz tests across the simulation stack:
//  * decoder fuzzing — random words never crash; they decode or report
//    kIllegal, and everything that decodes re-encodes to an equivalent
//    instruction (field-level idempotence);
//  * random-program differential runs — the timing model commits exactly
//    the instruction stream the functional model retires, for arbitrary
//    generated programs (loops, branches, memory, vector ops);
//  * tracer consistency — the trace length matches retired instructions
//    and records the same architectural effects.
//  * timing-model golden — every TimingStats field and every marker event
//    of a fixed program set is pinned in tests/golden/timing_stats.csv, so
//    a model change that moves any counter (not just cycles) shows;
//  * sampled-vs-exact tolerance matrix — the sampled estimator stays
//    within its documented error bound across dataflows, unroll factors
//    and (shrunk) transformer GEMM shapes, and rejects exactly the
//    configurations it documents as unsupported.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include "asm/assembler.h"
#include "core/algorithm_registry.h"
#include "core/runner.h"
#include "core/spmm_problem.h"
#include "core/sweep.h"
#include "engine_programs.h"
#include "fsim/machine.h"
#include "fsim/threaded.h"
#include "fsim/tracer.h"
#include "isa/encoding.h"
#include "timing/timing_sim.h"
#include "timing/trace.h"
#include "timing_programs.h"
#include "trace_reference.h"
#include "workloads/workloads.h"

namespace indexmac {
namespace {

TEST(DecoderFuzz, RandomWordsNeverCrashAndRoundTrip) {
  std::mt19937 rng(2024);
  std::uniform_int_distribution<std::uint32_t> dist;
  int decoded = 0;
  for (int i = 0; i < 200'000; ++i) {
    const std::uint32_t word = dist(rng);
    std::string err;
    const isa::Instruction inst = isa::decode(word, &err);
    if (inst.op == isa::Op::kIllegal) {
      EXPECT_FALSE(err.empty());
      continue;
    }
    ++decoded;
    // Whatever decodes must re-encode to a word that decodes identically
    // (the re-encoded word may differ in don't-care bits).
    const std::uint32_t again = isa::encode(inst);
    EXPECT_EQ(isa::decode(again), inst) << std::hex << word;
  }
  EXPECT_GT(decoded, 100);  // the subset is dense enough to hit randomly
}

TEST(DecoderFuzz, AllZerosAndOnesAreIllegal) {
  EXPECT_EQ(isa::decode(0x00000000).op, isa::Op::kIllegal);
  EXPECT_EQ(isa::decode(0xffffffff).op, isa::Op::kIllegal);
}

/// Generates a random but well-formed program: a bounded loop skeleton
/// filled with random scalar ALU ops, memory ops into a scratch buffer,
/// and vector ops (vl set once), terminated by ebreak.
Program random_program(std::uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  Assembler a;
  constexpr std::int64_t kScratch = 0x40000;
  a.li(x(1), kScratch);
  a.li(x(2), 16);
  a.vsetvli_e32m1(x(0), x(2));
  a.li(x(31), pick(2, 6));  // outer loop count
  auto loop = a.new_label();
  a.bind(loop);
  const int body = pick(5, 40);
  for (int i = 0; i < body; ++i) {
    const XReg rd = x(static_cast<unsigned>(pick(3, 15)));
    const XReg rs1 = x(static_cast<unsigned>(pick(0, 15)));
    const XReg rs2 = x(static_cast<unsigned>(pick(0, 15)));
    switch (pick(0, 9)) {
      case 0: a.add(rd, rs1, rs2); break;
      case 1: a.sub(rd, rs1, rs2); break;
      case 2: a.mul(rd, rs1, rs2); break;
      case 3: a.andi(rd, rs1, pick(-16, 16)); break;
      case 4: a.slli(rd, rs1, static_cast<unsigned>(pick(0, 8))); break;
      case 5: {  // scalar store+load into scratch (bounded offset)
        const std::int32_t off = pick(0, 63) * 8;
        a.sd(rs1, x(1), off);
        a.ld(rd, x(1), off);
        break;
      }
      case 6: a.vle32(v(static_cast<unsigned>(pick(1, 7))), x(1)); break;
      case 7: a.vadd_vi(v(static_cast<unsigned>(pick(1, 7))),
                        v(static_cast<unsigned>(pick(1, 7))), pick(-15, 15)); break;
      case 8: a.vmv_x_s(rd, v(static_cast<unsigned>(pick(1, 7)))); break;
      case 9: {
        a.li(x(30), pick(8, 23));
        a.vindexmac_vx(v(static_cast<unsigned>(pick(1, 7))),
                       v(static_cast<unsigned>(pick(1, 7))), x(30));
        break;
      }
    }
  }
  a.addi(x(31), x(31), -1);
  a.bne(x(31), x(0), loop);
  a.vse32(v(1), x(1));
  a.ebreak();
  return a.finish();
}

class RandomProgramDifferential : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RandomProgramDifferential, TimingCommitsExactlyWhatFunctionalRetires) {
  const Program program = random_program(GetParam());

  MainMemory fmem;
  Machine machine(program, fmem);
  const StopReason stop = machine.run(5'000'000);
  ASSERT_EQ(stop, StopReason::kEbreak);

  MainMemory tmem;
  timing::TimingSim sim(program, tmem, timing::ProcessorConfig{});
  const timing::TimingStats& stats = sim.run();
  EXPECT_EQ(stats.instructions, machine.instructions_retired());
  EXPECT_GE(stats.cycles, stats.instructions / 8);  // cannot beat 8-wide commit
  EXPECT_GT(stats.cycles, 0u);

  // The timing model drives its own functional machine: final architectural
  // memory must agree with the standalone functional run.
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(tmem.read_u64(0x40000 + 8 * i), fmem.read_u64(0x40000 + 8 * i)) << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramDifferential,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u, 144u,
                                           233u, 377u, 610u, 987u, 1597u));

/// The sampled estimator's documented cross-validation bound (see
/// test_runner.cpp's SampledTracksExactOnModerateProblem).
constexpr double kSampledErrorBound = 0.12;

/// One transformer GEMM shrunk to exact-simulation size via the registry's
/// shrink helper; the cap choices keep strip tails and k-tiling non-trivial.
struct MatrixShape {
  const char* label;
  kernels::GemmDims dims;
};

std::vector<MatrixShape> transformer_matrix_shapes() {
  const workloads::ModelGraph& bert = workloads::model_graph("bert-base");
  const workloads::ModelGraph& vit = workloads::model_graph("vit-base");
  return {
      {"bert.qkv_proj", workloads::shrink(bert.layers[0].gemm, {24, 96, 48})},
      {"bert.mlp_down", workloads::shrink(bert.layers[3].gemm, {16, 128, 33})},
      {"vit.patch_embed", workloads::shrink(vit.layers[0].gemm, {32, 64, 41})},
  };
}

TEST(SampledVsExactMatrix, TransformerShapesAcrossDataflowsAndUnrolls) {
  using core::Algorithm;
  using core::RunConfig;
  const timing::ProcessorConfig proc{};
  const sparse::Sparsity sp = sparse::kSparsity24;

  std::uint32_t seed = 100;
  for (const MatrixShape& shape : transformer_matrix_shapes()) {
    const core::SpmmProblem problem = core::SpmmProblem::random(shape.dims, sp, seed++);
    for (const auto df : {kernels::Dataflow::kAStationary, kernels::Dataflow::kBStationary,
                          kernels::Dataflow::kCStationary})
      for (const unsigned unroll : {1u, 2u, 4u, 8u})
        for (const auto alg :
             {Algorithm::kRowwiseSpmm, Algorithm::kIndexmac, Algorithm::kIndexmac4}) {
          SCOPED_TRACE(std::string(shape.label) + " df=" +
                       std::to_string(static_cast<int>(df)) + " u" + std::to_string(unroll) +
                       " " + core::algorithm_name(alg));
          RunConfig config{.algorithm = alg, .kernel = {.unroll = unroll, .dataflow = df}};

          // The generators document unroll in [1,4] and Algorithms 3/4 as
          // B-stationary-only; those cells must reject, not mis-simulate.
          const bool kernel_supported =
              unroll <= 4 &&
              (alg == Algorithm::kRowwiseSpmm || df == kernels::Dataflow::kBStationary);
          // The sampled runner additionally documents B-stationary-only.
          const bool sampled_supported =
              kernel_supported && df == kernels::Dataflow::kBStationary;

          if (!kernel_supported) {
            EXPECT_THROW((void)core::run_exact(problem, config, proc), SimError);
            EXPECT_THROW((void)core::run_sampled(shape.dims, sp, config, proc), SimError);
            continue;
          }
          const auto exact = core::run_exact(problem, config, proc);
          EXPECT_GT(exact.stats.cycles, 0u);
          if (!sampled_supported) {
            EXPECT_THROW((void)core::run_sampled(shape.dims, sp, config, proc), SimError);
            continue;
          }
          const auto sampled = core::run_sampled(shape.dims, sp, config, proc);
          const double err =
              std::abs(sampled.cycles - static_cast<double>(exact.stats.cycles)) /
              static_cast<double>(exact.stats.cycles);
          EXPECT_LT(err, kSampledErrorBound)
              << "sampled=" << sampled.cycles << " exact=" << exact.stats.cycles;
          // Access counts are structure-determined: exact in both modes.
          EXPECT_EQ(sampled.data_accesses, exact.data_accesses());
        }
  }
}

TEST(SampledVsExactMatrix, BothSparsitiesOnTransformerShapes) {
  // The B-stationary tolerance cells again at 1:4 (the matrix above pins
  // 2:4): sparsity changes the A-stream geometry the extrapolation scales.
  using core::Algorithm;
  using core::RunConfig;
  const timing::ProcessorConfig proc{};
  std::uint32_t seed = 200;
  for (const MatrixShape& shape : transformer_matrix_shapes()) {
    const core::SpmmProblem problem =
        core::SpmmProblem::random(shape.dims, sparse::kSparsity14, seed++);
    for (const auto alg :
         {Algorithm::kRowwiseSpmm, Algorithm::kIndexmac, Algorithm::kIndexmac4}) {
      SCOPED_TRACE(std::string(shape.label) + " " + core::algorithm_name(alg));
      const RunConfig config{.algorithm = alg, .kernel = {.unroll = 4}};
      const auto exact = core::run_exact(problem, config, proc);
      const auto sampled = core::run_sampled(shape.dims, sparse::kSparsity14, config, proc);
      const double err = std::abs(sampled.cycles - static_cast<double>(exact.stats.cycles)) /
                         static_cast<double>(exact.stats.cycles);
      EXPECT_LT(err, kSampledErrorBound)
          << "sampled=" << sampled.cycles << " exact=" << exact.stats.cycles;
      EXPECT_EQ(sampled.data_accesses, exact.data_accesses());
    }
  }
}

/// Functional run of one prepared configuration; returns the C matrix.
sparse::DenseMatrix<float> run_functional(const core::SpmmProblem& problem,
                                          const core::RunConfig& config) {
  MainMemory mem;
  const core::PreparedRun run = core::prepare(problem, config, mem);
  Machine machine(run.program, mem);
  const StopReason stop = machine.run(200'000'000);
  EXPECT_EQ(stop, StopReason::kEbreak) << "kernel did not halt";
  return core::read_c(run, mem);
}

TEST(NonPaperSparsities, AllFiveAlgorithmsBitExactAcrossDataflows) {
  // Beyond the paper's 1:4 / 2:4: wider blocks (1:8, 3:8 — odd slot
  // counts) and M equal to the full tile (2:16). Every algorithm that
  // structurally supports the cell must reproduce spmm_reference
  // BIT-EXACTLY: the kernels accumulate non-zeros in the same k-ascending
  // order the reference uses, and padding slots contribute exact +0.0f.
  using core::Algorithm;
  using core::RunConfig;
  const kernels::GemmDims dims{9, 50, 33};  // ragged rows, k and columns
  std::uint32_t seed = 400;
  for (const sparse::Sparsity sp :
       {sparse::Sparsity{1, 8}, sparse::Sparsity{3, 8}, sparse::Sparsity{2, 16}}) {
    const core::SpmmProblem problem = core::SpmmProblem::random(dims, sp, seed++);
    const sparse::DenseMatrix<float> ref = problem.reference();
    for (const auto alg : {Algorithm::kDenseRowwise, Algorithm::kRowwiseSpmm,
                           Algorithm::kIndexmac, Algorithm::kIndexmac4, Algorithm::kSsr})
      for (const auto df : {kernels::Dataflow::kAStationary, kernels::Dataflow::kBStationary,
                            kernels::Dataflow::kCStationary}) {
        const bool supported =
            df == kernels::Dataflow::kBStationary || alg == Algorithm::kRowwiseSpmm;
        if (!supported) continue;  // Algs 1/3/4/5 are B-stationary by construction
        const unsigned unroll =
            alg == Algorithm::kDenseRowwise || alg == Algorithm::kSsr ? 1u : 4u;
        SCOPED_TRACE(std::string(core::algorithm_name(alg)) + " df=" +
                     std::to_string(static_cast<int>(df)) + " " + std::to_string(sp.n) + ":" +
                     std::to_string(sp.m));
        const RunConfig config{.algorithm = alg, .kernel = {.unroll = unroll, .dataflow = df}};
        const sparse::DenseMatrix<float> c = run_functional(problem, config);
        ASSERT_EQ(c.rows(), ref.rows());
        ASSERT_EQ(c.cols(), ref.cols());
        for (std::size_t i = 0; i < ref.rows(); ++i)
          for (std::size_t j = 0; j < ref.cols(); ++j)
            ASSERT_EQ(c.at(i, j), ref.at(i, j)) << "(" << i << "," << j << ")";
      }
  }
}

TEST(NonPaperSparsities, Algorithm4MatchesAlgorithm3BitExactly) {
  // The packed-index/dual-row kernel must produce the exact bits of the
  // Algorithm 3 kernel (same MAC order, different instruction forms).
  using core::Algorithm;
  const kernels::GemmDims dims{11, 48, 31};
  std::uint32_t seed = 500;
  for (const sparse::Sparsity sp :
       {sparse::kSparsity14, sparse::kSparsity24, sparse::Sparsity{1, 8},
        sparse::Sparsity{3, 8}, sparse::Sparsity{2, 16}}) {
    const core::SpmmProblem problem = core::SpmmProblem::random(dims, sp, seed++);
    for (const unsigned unroll : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::to_string(sp.n) + ":" + std::to_string(sp.m) + " u" +
                   std::to_string(unroll));
      const auto c3 = run_functional(
          problem, core::RunConfig{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = unroll}});
      const auto c4 = run_functional(
          problem,
          core::RunConfig{.algorithm = Algorithm::kIndexmac4, .kernel = {.unroll = unroll}});
      for (std::size_t i = 0; i < c3.rows(); ++i)
        for (std::size_t j = 0; j < c3.cols(); ++j)
          ASSERT_EQ(c3.at(i, j), c4.at(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(NonPaperSparsities, SsrMatchesAlgorithm3BitExactly) {
  // The streaming kernel packs A exactly like Algorithm 3 (IndexMode
  // kVrfIndex) and replays the same [ktile][row][slot] MAC order through
  // the streams, so its C bits must equal the vindexmac kernel's.
  using core::Algorithm;
  const kernels::GemmDims dims{11, 48, 31};
  std::uint32_t seed = 600;
  for (const sparse::Sparsity sp :
       {sparse::kSparsity14, sparse::kSparsity24, sparse::Sparsity{1, 8},
        sparse::Sparsity{3, 8}, sparse::Sparsity{2, 16}}) {
    SCOPED_TRACE(std::to_string(sp.n) + ":" + std::to_string(sp.m));
    const core::SpmmProblem problem = core::SpmmProblem::random(dims, sp, seed++);
    const auto c3 = run_functional(
        problem, core::RunConfig{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 1}});
    const auto c5 = run_functional(
        problem, core::RunConfig{.algorithm = Algorithm::kSsr, .kernel = {.unroll = 1}});
    for (std::size_t i = 0; i < c3.rows(); ++i)
      for (std::size_t j = 0; j < c3.cols(); ++j)
        ASSERT_EQ(c3.at(i, j), c5.at(i, j)) << "(" << i << "," << j << ")";
  }
}

TEST(SampledVsExactMatrix, SsrSampledTracksExactAndPredictsAccesses) {
  // The SSR family is sampled-capable: the extrapolated cycles stay within
  // the documented bound and the analytic footprint (predict_ssr_footprint)
  // reproduces the exact run's access count including the per-strip
  // stream-line fetches.
  using core::Algorithm;
  const timing::ProcessorConfig proc{};
  std::uint32_t seed = 700;
  for (const MatrixShape& shape : transformer_matrix_shapes())
    for (const sparse::Sparsity sp : {sparse::kSparsity14, sparse::kSparsity24}) {
      SCOPED_TRACE(std::string(shape.label) + " " + std::to_string(sp.n) + ":" +
                   std::to_string(sp.m));
      const core::SpmmProblem problem = core::SpmmProblem::random(shape.dims, sp, seed++);
      const core::RunConfig config{.algorithm = Algorithm::kSsr, .kernel = {.unroll = 1}};
      const auto exact = core::run_exact(problem, config, proc);
      const auto sampled = core::run_sampled(shape.dims, sp, config, proc);
      const double err = std::abs(sampled.cycles - static_cast<double>(exact.stats.cycles)) /
                         static_cast<double>(exact.stats.cycles);
      EXPECT_LT(err, kSampledErrorBound)
          << "sampled=" << sampled.cycles << " exact=" << exact.stats.cycles;
      EXPECT_EQ(sampled.data_accesses, exact.data_accesses());
    }
}

TEST(Tracer, RecordsEveryRetiredInstruction) {
  Assembler a;
  a.li(x(1), 3);
  auto loop = a.new_label();
  a.bind(loop);
  a.addi(x(1), x(1), -1);
  a.bne(x(1), x(0), loop);
  a.ebreak();
  Program p = a.finish();
  MainMemory mem;
  Machine machine(p, mem);
  Tracer tracer(machine);
  std::ostringstream out;
  const StopReason stop = tracer.run(out);
  EXPECT_EQ(stop, StopReason::kEbreak);
  // One line per retired instruction.
  std::size_t lines = 0;
  for (char c : out.str())
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, machine.instructions_retired());
  EXPECT_NE(out.str().find("bne"), std::string::npos);
  EXPECT_NE(out.str().find("# x1=0x2"), std::string::npos);  // first decrement
}

TEST(Tracer, ReportsVectorWritesAndScalarValues) {
  Assembler a;
  a.li(x(2), 16);
  a.vsetvli_e32m1(x(0), x(2));
  a.vmv_v_i(v(3), 7);
  a.vmv_x_s(x(5), v(3));
  a.ebreak();
  Program p = a.finish();
  MainMemory mem;
  Machine machine(p, mem);
  Tracer tracer(machine);
  std::ostringstream out;
  (void)tracer.run(out);
  EXPECT_NE(out.str().find("# v3 updated (vl=16)"), std::string::npos);
  EXPECT_NE(out.str().find("# x5=0x7"), std::string::npos);
}

TEST(DispatchStalls, RoundTripsShowUpAsScalarOperandStalls) {
  // A vmv.x.s -> vindexmac chain stalls vector dispatch on the scalar
  // operand; the breakdown must attribute cycles there.
  Assembler a;
  a.li(x(2), 16);
  a.vsetvli_e32m1(x(0), x(2));
  for (int i = 0; i < 32; ++i) {
    a.vmv_x_s(x(5), v(8));
    a.vindexmac_vx(v(1), v(2), x(5));
  }
  a.ebreak();
  Program p = a.finish();
  MainMemory mem;
  timing::TimingSim sim(p, mem, timing::ProcessorConfig{});
  const auto& stats = sim.run();
  EXPECT_GT(stats.dispatch_stalls.scalar_operand, 100u);
  EXPECT_GT(stats.dispatch_stalls.total(), stats.dispatch_stalls.queue_full);
}

TEST(DispatchStalls, IndependentVectorOpsMostlyBandwidthBound) {
  Assembler a;
  a.li(x(2), 16);
  a.vsetvli_e32m1(x(0), x(2));
  for (int i = 0; i < 64; ++i) a.vadd_vi(v(1 + (i % 8)), v(9), 1);
  a.ebreak();
  Program p = a.finish();
  MainMemory mem;
  timing::TimingSim sim(p, mem, timing::ProcessorConfig{});
  const auto& stats = sim.run();
  // Only the initial vsetvli shadow may register as a scalar-operand wait.
  EXPECT_LE(stats.dispatch_stalls.scalar_operand, 4u);
}

// ---------------------------------------------------------------------------
// Block trace against the oracle, in lockstep: the block-granular trace on
// the threaded engine (whole blocks, fused chains included, with recorded
// pre-execution values) must hand out, field for field, the DynInst stream
// that trace_reference.h derives from Machine::step's pre-state, and land
// on the same final state. These tests hold it to that across all five
// registry algorithms, the random-program generator's seeds, the chain
// corners (bail replay, narrow vl, a fused chain right before a taken
// branch) and every point of the golden tiny sweep.

::testing::AssertionResult arch_states_equal(const ArchState& a, const ArchState& b) {
  if (a.pc != b.pc)
    return ::testing::AssertionFailure() << "pc 0x" << std::hex << a.pc << " vs 0x" << b.pc;
  if (a.vl != b.vl) return ::testing::AssertionFailure() << "vl";
  for (unsigned r = 0; r < isa::kNumXRegs; ++r)
    if (a.x[r] != b.x[r]) return ::testing::AssertionFailure() << "x" << r;
  for (unsigned r = 0; r < isa::kNumFRegs; ++r)
    if (a.f[r] != b.f[r]) return ::testing::AssertionFailure() << "f" << r;
  for (unsigned r = 0; r < isa::kNumVRegs; ++r)
    for (unsigned e = 0; e < isa::kVlMax; ++e)
      if (a.v[r][e] != b.v[r][e])
        return ::testing::AssertionFailure() << "v" << r << "[" << e << "]";
  return ::testing::AssertionSuccess();
}

TEST(EngineLockstep, AllFiveAlgorithmsIdenticalTraceStreams) {
  // Every registry algorithm, every supported dataflow and unroll: the
  // block trace must match the oracle's DynInst stream (including SSR
  // stream addresses, gather addresses and ssr_ctl_mask) and land on the
  // same architectural state and C matrix.
  using core::Algorithm;
  using core::RunConfig;
  const kernels::GemmDims dims{9, 50, 33};
  std::uint32_t seed = 700;
  const core::SpmmProblem problem =
      core::SpmmProblem::random(dims, sparse::kSparsity24, seed);
  for (const auto alg : {Algorithm::kDenseRowwise, Algorithm::kRowwiseSpmm,
                         Algorithm::kIndexmac, Algorithm::kIndexmac4, Algorithm::kSsr})
    for (const auto df : {kernels::Dataflow::kAStationary, kernels::Dataflow::kBStationary,
                          kernels::Dataflow::kCStationary}) {
      const bool supported =
          df == kernels::Dataflow::kBStationary || alg == Algorithm::kRowwiseSpmm;
      if (!supported) continue;
      const bool fixed_unroll = alg == Algorithm::kDenseRowwise || alg == Algorithm::kSsr;
      for (const unsigned unroll : {1u, 2u, 4u}) {
        if (fixed_unroll && unroll != 1u) continue;
        SCOPED_TRACE(std::string(core::algorithm_name(alg)) + " df=" +
                     std::to_string(static_cast<int>(df)) + " u" + std::to_string(unroll));
        const RunConfig config{.algorithm = alg, .kernel = {.unroll = unroll, .dataflow = df}};

        MainMemory imem;
        const core::PreparedRun irun = core::prepare(problem, config, imem);
        Machine interp(irun.program, imem);

        MainMemory tmem;
        const core::PreparedRun trun = core::prepare(problem, config, tmem);
        Machine threaded_machine(trun.program, tmem);
        timing::TraceSource tsrc(threaded_machine);

        const std::uint64_t n = trace_reference::drain_against(tsrc, interp);
        ASSERT_GT(n, 0u);
        EXPECT_EQ(threaded_machine.instructions_retired(), interp.instructions_retired());
        EXPECT_TRUE(arch_states_equal(threaded_machine.state(), interp.state()));

        const sparse::DenseMatrix<float> ci = core::read_c(irun, imem);
        const sparse::DenseMatrix<float> ct = core::read_c(trun, tmem);
        for (std::size_t i = 0; i < ci.rows(); ++i)
          for (std::size_t j = 0; j < ci.cols(); ++j)
            ASSERT_EQ(ci.at(i, j), ct.at(i, j)) << "(" << i << "," << j << ")";
      }
    }
}

TEST(EngineLockstep, ChainCornerProgramsIdenticalTraceStreams) {
  // Each program takes a different record path through a traced block: the
  // chain-bail replay (a MAC row naming a slid register), the narrow-vl
  // replay from the chain's first op, and a fused lane-MAC chain whose
  // block exits through a taken branch.
  struct Case {
    const char* name;
    Program program;
    bool bails;  ///< the chain takes the per-op replay, not the fused path
  };
  const Case cases[] = {
      {"slid-row bail", engine_programs::slid_row_bail_program(), true},
      {"vl < 16 chain", engine_programs::narrow_vl_chain_program(), true},
      {"chain before taken branch", engine_programs::chain_then_branch_program(9), false},
  };
  for (const auto& [name, program, bails] : cases) {
    SCOPED_TRACE(name);
    MainMemory imem;
    Machine interp(program, imem);

    MainMemory tmem;
    Machine threaded_machine(program, tmem);
    ThreadedEngine engine(threaded_machine);
    timing::TraceSource tsrc(threaded_machine, &engine);

    const std::uint64_t n = trace_reference::drain_against(tsrc, interp);
    EXPECT_EQ(n, interp.instructions_retired());
    EXPECT_TRUE(arch_states_equal(threaded_machine.state(), interp.state()));
    EXPECT_EQ(engine.stats().fallback_steps, 0u);
    EXPECT_EQ(engine.stats().chain_bails > 0, bails);
    EXPECT_EQ(engine.stats().superblock_macs > 0, !bails);
  }
}

TEST(EngineLockstep, RandomProgramsIdenticalTraceStreamsAndMemory) {
  // The random-program generator's seeds (loops, branches, scalar/vector
  // mixes, scratch-memory stores) drained through the block trace: the
  // per-instruction stream must match the oracle, and the final state and
  // scratch memory the interpreter's, bit for bit.
  for (const std::uint32_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u, 144u, 233u,
                                   377u, 610u, 987u, 1597u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Program program = random_program(seed);

    MainMemory fmem;
    Machine interp(program, fmem);

    MainMemory tmem;
    Machine threaded_machine(program, tmem);
    timing::TraceSource tsrc(threaded_machine);

    const std::uint64_t n = trace_reference::drain_against(tsrc, interp);
    EXPECT_EQ(n, interp.instructions_retired());
    EXPECT_TRUE(arch_states_equal(threaded_machine.state(), interp.state()));
    for (int i = 0; i < 64; ++i)
      EXPECT_EQ(tmem.read_u64(0x40000 + 8 * i), fmem.read_u64(0x40000 + 8 * i)) << i;
  }
}

TEST(EngineLockstep, TinySweepGoldenPointsMatchReference) {
  // Every point of the golden tiny sweep (its workloads, sparsities and
  // unrolls, in exact mode), under every registry algorithm: the block
  // trace the timing model consumes must match the oracle instruction by
  // instruction, over the whole run.
  core::SweepSpec spec =
      core::parse_sweep_spec_file(std::string(INDEXMAC_GOLDEN_DIR) + "/tiny_sweep.json");
  ASSERT_EQ(spec.mode, core::SweepMode::kExact);
  spec.algorithms.clear();
  for (const core::AlgorithmDescriptor& d : core::AlgorithmRegistry::instance().all())
    spec.algorithms.push_back(d.algorithm);
  std::set<core::Algorithm> covered;
  for (const core::SweepPoint& point : core::expand_sweep(spec)) {
    const core::BatchJob job = core::point_job(spec, point);
    SCOPED_TRACE(point.cache_key(spec));
    const core::SpmmProblem problem = core::SpmmProblem::random(job.dims, job.sp, job.seed);

    MainMemory rmem;
    const core::PreparedRun rrun = core::prepare(problem, job.config, rmem);
    Machine reference(rrun.program, rmem);

    MainMemory tmem;
    const core::PreparedRun trun = core::prepare(problem, job.config, tmem);
    Machine traced(trun.program, tmem);
    timing::TraceSource trace(traced);

    const std::uint64_t n = trace_reference::drain_against(trace, reference);
    ASSERT_EQ(n, reference.instructions_retired());
    ASSERT_TRUE(arch_states_equal(traced.state(), reference.state()));
    covered.insert(point.config.algorithm);
  }
  EXPECT_EQ(covered.size(), spec.algorithms.size());
}


// ---------------------------------------------------------------------------
// Timing-model golden: every field the model produces. The sweep goldens pin
// only cycles and data accesses, so a model rewrite that moved a stall
// counter or a marker's commit cycle would pass them; this file pins all of
// TimingStats and each marker event's (id, cycle, instructions, memory
// counters) over the engine corner programs, every golden tiny-sweep point
// under every registry algorithm (marker-instrumented too where the
// algorithm supports sampling) and a few seeded random programs.

std::string mem_csv(const MemStats& m) {
  return std::to_string(m.scalar_reads) + "," + std::to_string(m.scalar_writes) + "," +
         std::to_string(m.vector_reads) + "," + std::to_string(m.vector_writes) + "," +
         std::to_string(m.ifetch_lines) + "," + std::to_string(m.dram_lines);
}

/// Times `program` over `mem` and renders its stats row and marker rows.
std::string timing_rows(const std::string& name, const Program& program, MainMemory& mem) {
  timing::TimingSim sim(program, mem, timing::ProcessorConfig{});
  const timing::TimingStats& s = sim.run();
  const timing::VectorDispatchStalls& st = s.dispatch_stalls;
  std::string out = "stats," + name;
  for (const std::uint64_t v :
       {s.cycles, s.instructions, s.scalar_instructions, s.vector_instructions, s.vector_loads,
        s.vector_stores, s.vector_macs, s.vector_to_scalar_moves, s.branch_mispredicts,
        st.scalar_operand, st.branch_shadow, st.queue_full, st.bandwidth})
    out += "," + std::to_string(v);
  out += "," + mem_csv(s.mem) + "\n";
  std::size_t i = 0;
  for (const timing::MarkerEvent& e : sim.markers())
    out += "marker," + name + "#" + std::to_string(i++) + "," + std::to_string(e.id) + "," +
           std::to_string(e.cycle) + "," + std::to_string(e.instructions) + "," +
           mem_csv(e.mem) + "\n";
  return out;
}

std::string timing_golden_csv() {
  std::string out =
      "# timing model output per program (regenerate: run this test and copy the file it "
      "names on a mismatch)\n"
      "# stats,program,cycles,instructions,scalar_instructions,vector_instructions,"
      "vector_loads,vector_stores,vector_macs,vector_to_scalar_moves,branch_mispredicts,"
      "stall_scalar_operand,stall_branch_shadow,stall_queue_full,stall_bandwidth,"
      "mem_scalar_reads,mem_scalar_writes,mem_vector_reads,mem_vector_writes,"
      "mem_ifetch_lines,mem_dram_lines\n"
      "# marker,program#index,id,cycle,instructions,mem_scalar_reads,mem_scalar_writes,"
      "mem_vector_reads,mem_vector_writes,mem_ifetch_lines,mem_dram_lines\n";
  const auto plain = [&](const std::string& name, const Program& program) {
    MainMemory mem;
    out += timing_rows(name, program, mem);
  };
  Assembler chain;
  engine_programs::emit_chain_kernel(chain, 24);
  plain("engine.chain_kernel", chain.finish());
  plain("engine.slid_row_bail", engine_programs::slid_row_bail_program());
  plain("engine.narrow_vl_chain", engine_programs::narrow_vl_chain_program());
  plain("engine.chain_then_branch", engine_programs::chain_then_branch_program(9));
  for (const std::uint32_t seed : {1u, 2u, 3u, 5u, 8u})
    plain("random." + std::to_string(seed), random_program(seed));

  core::SweepSpec spec =
      core::parse_sweep_spec_file(std::string(INDEXMAC_GOLDEN_DIR) + "/tiny_sweep.json");
  spec.algorithms.clear();
  for (const core::AlgorithmDescriptor& d : core::AlgorithmRegistry::instance().all())
    spec.algorithms.push_back(d.algorithm);
  for (const core::SweepPoint& point : core::expand_sweep(spec)) {
    const core::BatchJob job = core::point_job(spec, point);
    const core::SpmmProblem problem = core::SpmmProblem::random(job.dims, job.sp, job.seed);
    const core::AlgorithmDescriptor& desc =
        core::AlgorithmRegistry::instance().by_algorithm(job.config.algorithm);
    const std::string name = point.workload + "." + std::to_string(job.sp.n) + "of" +
                             std::to_string(job.sp.m) + "." + desc.id + ".u" +
                             std::to_string(job.config.kernel.unroll);
    for (const bool markers : {false, true}) {
      if (markers && !desc.supports_sampled) continue;
      core::RunConfig config = job.config;
      config.kernel.emit_markers = markers;
      MainMemory mem;
      const core::PreparedRun run = core::prepare(problem, config, mem);
      out += timing_rows(name + (markers ? ".markers" : ""), run.program, mem);
    }
  }

  // Repeated units whose state or inputs differ in one respect at a time
  // (tests/timing_programs.h), and shrunk multi-strip layers, where the
  // same kernel blocks recur strip after strip.
  plain("repeat.store_forward", timing_programs::store_forward_program());
  plain("repeat.branchy", timing_programs::branchy_program());
  plain("repeat.ssr_reuse", timing_programs::ssr_reuse_program());
  plain("repeat.gather", timing_programs::gather_program());
  plain("repeat.pressure", timing_programs::pressure_program());
  plain("repeat.dram_stream", timing_programs::dram_stream_program());
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u})
    plain("repeat.looped_random." + std::to_string(seed),
          timing_programs::looped_random_program(seed));
  {
    using timing_programs::Late;
    const std::pair<const char*, Late> lates[] = {
        {"x", Late::kX},         {"f", Late::kF},
        {"v", Late::kV},         {"vsetvli", Late::kVsetvli},
        {"issue", Late::kIssue}, {"store_data", Late::kStoreData},
        {"vector_loads", Late::kVectorLoads}, {"vector_stores", Late::kVectorStores}};
    for (const auto& [name, late] : lates)
      plain(std::string("repeat.late_") + name, timing_programs::late_value_program(late));
  }
  // Programs whose repeats differ in one part of the memo's key alone, where
  // that part binds the timing: dropping the part from the key changes
  // their rows. By seed: 11 the fetch state (and its "behind" threshold),
  // 58 the commit port's fill, 101 the ROB slots and the last commit, 116
  // the issue ports' fills, 135 the engine's next issue, 139 the vector
  // queue slots and the last vector send, 359 the LSQ slots; then the last
  // branch resolve and the last vsetvli, and the store ring's data-ready
  // cycles.
  const std::pair<std::uint32_t, int> segments[] = {
      {11, 5600}, {58, 2080}, {101, 2000}, {116, 1900}, {135, 2030}, {139, 2520}, {359, 1930}};
  for (const auto& [seed, iters] : segments)
    plain("repeat.segments." + std::to_string(seed),
          timing_programs::segment_loop_program(seed, iters));
  plain("repeat.swapped_branch", timing_programs::swapped_late_program(false, 4, 4, 2480, false));
  plain("repeat.swapped_vsetvli", timing_programs::swapped_late_program(true, 6, 4, 2160, true));
  plain("repeat.late_store", timing_programs::late_store_program(4, 2580));
  // Each layer is sized to run past the model's 2^18-instruction memo warm-up.
  const std::pair<const char*, kernels::GemmDims> layers[] = {{"rowwise", {128, 256, 80}},
                                                               {"indexmac", {128, 256, 96}},
                                                               {"indexmac4", {256, 256, 96}},
                                                               {"ssr", {384, 256, 96}}};
  for (const auto& [id, dims] : layers) {
    for (const sparse::Sparsity sp : {sparse::kSparsity14, sparse::kSparsity24}) {
      const core::SpmmProblem problem = core::SpmmProblem::random(dims, sp, 7);
      core::RunConfig config;
      config.algorithm = core::AlgorithmRegistry::instance().by_id(id).algorithm;
      config.kernel.unroll = config.algorithm == core::Algorithm::kSsr ? 1 : 4;  // SSR: u1 only
      MainMemory mem;
      const core::PreparedRun run = core::prepare(problem, config, mem);
      out += timing_rows("layer." + std::to_string(dims.rows_a) + "x" + std::to_string(dims.k) +
                             "x" + std::to_string(dims.cols_b) + "." + std::to_string(sp.n) +
                             "of" + std::to_string(sp.m) + "." + id + ".u" +
                             std::to_string(config.kernel.unroll),
                         run.program, mem);
    }
  }
  return out;
}

// The golden pins what the memo must reproduce; this pins that it engages:
// a looped program replays units past the warm-up, and a short one keys
// nothing.
TEST(TimingMemo, ReplaysRepeatedUnitsPastTheWarmUp) {
  const Program looped = timing_programs::pressure_program();
  MainMemory mem;
  timing::TimingSim sim(looped, mem, timing::ProcessorConfig{});
  const timing::TimingStats& stats = sim.run();
  const timing::MemoStats& memo = sim.memo_stats();
  EXPECT_GT(memo.units_replayed, 0u);
  EXPECT_GT(memo.instructions_replayed, stats.instructions / 5);
  EXPECT_LE(memo.units_replayed + memo.units_retimed, memo.units_keyed);

  const Program short_program = random_program(1);
  MainMemory small_mem;
  timing::TimingSim small(short_program, small_mem, timing::ProcessorConfig{});
  (void)small.run();
  EXPECT_EQ(small.memo_stats().units_keyed, 0u);
}

TEST(TimingGolden, EveryStatsFieldAndMarkerEventMatchesGolden) {
  const std::string path = std::string(INDEXMAC_GOLDEN_DIR) + "/timing_stats.csv";
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.good()) << "cannot open " << path;
  const std::string expected((std::istreambuf_iterator<char>(file)),
                             std::istreambuf_iterator<char>());
  const std::string actual = timing_golden_csv();
  if (actual != expected) {
    const std::filesystem::path out =
        std::filesystem::path(::testing::TempDir()) / "timing_stats.csv";
    std::ofstream(out, std::ios::binary) << actual;
    ADD_FAILURE() << "timing model output drifted from " << path << "; the new output is in "
                  << out.string() << " (copy it over only for an intended model change)";
  }
}

}  // namespace
}  // namespace indexmac
