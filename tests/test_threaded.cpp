// ThreadedEngine correctness: the engine's contract is that every
// observable effect (architectural state, memory, retired counts, marker
// hooks, stop reasons, SimError text) is bit-identical to Machine::step.
// These tests drive both executors over the same programs — including the
// corners that force the engine off its fast path (vl < VLMAX at a fused
// chain, a MAC whose runtime row names a slid register, SSR stream ops,
// out-of-range pcs) — and require exact equality every time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asm/assembler.h"
#include "common/error.h"
#include "core/spmm_problem.h"
#include "engine_programs.h"
#include "fsim/machine.h"
#include "fsim/threaded.h"

namespace indexmac {
namespace {

bool states_equal(const ArchState& a, const ArchState& b) {
  if (a.pc != b.pc || a.vl != b.vl) return false;
  for (unsigned i = 0; i < isa::kNumXRegs; ++i)
    if (a.x[i] != b.x[i]) return false;
  for (unsigned i = 0; i < isa::kNumFRegs; ++i)
    if (a.f[i] != b.f[i]) return false;
  for (unsigned i = 0; i < isa::kNumVRegs; ++i)
    for (unsigned j = 0; j < isa::kVlMax; ++j)
      if (a.v[i][j] != b.v[i][j]) return false;
  return true;
}

/// Runs `program` to completion on both executors (fresh memory each) and
/// requires identical stop reason, retired count and architectural state.
/// Returns the threaded engine's stats for fast-path assertions.
ThreadedEngine::Stats run_both(const Program& program,
                               std::uint64_t max_steps = 1'000'000) {
  MainMemory mem_a, mem_b;
  Machine interp(program, mem_a);
  Machine mach(program, mem_b);
  ThreadedEngine engine(mach);
  const StopReason stop_a = interp.run(max_steps);
  const StopReason stop_b = engine.run(max_steps);
  EXPECT_EQ(stop_a, stop_b);
  EXPECT_EQ(interp.instructions_retired(), mach.instructions_retired());
  EXPECT_TRUE(states_equal(interp.state(), mach.state()));
  return engine.stats();
}

TEST(Threaded, ScalarProgramBitExact) {
  Assembler a;
  const Assembler::Label loop = a.new_label();
  a.li(x(1), 0);
  a.li(x(2), 100);
  a.li(x(5), 0x2000);
  a.bind(loop);
  a.sw(x(1), x(5), 0);
  a.lw(x(3), x(5), 0);
  a.add(x(4), x(4), x(3));
  a.addi(x(1), x(1), 1);
  a.blt(x(1), x(2), loop);
  a.ebreak();
  const Program p = a.finish();
  const ThreadedEngine::Stats stats = run_both(p);
  EXPECT_GT(stats.block_runs, 0u);
  EXPECT_EQ(stats.fallback_steps, 0u);
}

// Satellite regression: a jump below the program base must raise the same
// SimError from both executors. (Machine::step once computed pc - base_
// as an unsigned offset; a pc below base wrapped huge, and the error text
// depended on which of the range/alignment checks the wrapped value hit.)
TEST(Threaded, PcBelowBaseRaisesIdenticalErrorBothEngines) {
  Assembler a;
  a.li(x(1), 0x10);  // below the 0x1000 load base
  a.jalr(x(0), x(1), 0);
  a.ebreak();
  const Program p = a.finish();

  std::string err_interp;
  std::uint64_t retired_interp = 0;
  {
    MainMemory mem;
    Machine m(p, mem);
    try {
      (void)m.run(100);
      FAIL() << "interpreter did not raise on pc below base";
    } catch (const SimError& e) {
      err_interp = e.what();
    }
    retired_interp = m.instructions_retired();
  }

  std::string err_threaded;
  {
    MainMemory mem;
    Machine m(p, mem);
    ThreadedEngine engine(m);
    try {
      (void)engine.run(100);
      FAIL() << "threaded engine did not raise on pc below base";
    } catch (const SimError& e) {
      err_threaded = e.what();
    }
    EXPECT_EQ(m.instructions_retired(), retired_interp);
  }

  EXPECT_EQ(err_interp, err_threaded);
  EXPECT_NE(err_interp.find("left the program"), std::string::npos) << err_interp;
}

TEST(Threaded, MisalignedPcRaisesIdenticalErrorBothEngines) {
  Assembler a;
  a.li(x(1), 0x1002);  // inside the program but not 4-aligned
  a.jalr(x(0), x(1), 0);
  a.ebreak();
  const Program p = a.finish();

  const auto run_expect_throw = [&](bool threaded) {
    MainMemory mem;
    Machine m(p, mem);
    try {
      if (threaded) {
        ThreadedEngine engine(m);
        (void)engine.run(100);
      } else {
        (void)m.run(100);
      }
    } catch (const SimError& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "no SimError raised (threaded=" << threaded << ")";
    return std::string();
  };
  EXPECT_EQ(run_expect_throw(false), run_expect_throw(true));
}

TEST(Threaded, MarkerHookFiresIdentically) {
  Assembler a;
  a.marker(7);
  a.li(x(1), 5);
  a.marker(11);
  a.marker(13);
  a.ebreak();
  const Program p = a.finish();

  std::vector<int> ids_interp, ids_threaded;
  {
    MainMemory mem;
    Machine m(p, mem);
    m.set_marker_hook([&](int id) { ids_interp.push_back(id); });
    (void)m.run();
  }
  {
    MainMemory mem;
    Machine m(p, mem);
    ThreadedEngine engine(m);
    // Set after engine construction: the engine must observe the hook
    // through the Machine, not a snapshot taken at build time.
    m.set_marker_hook([&](int id) { ids_threaded.push_back(id); });
    (void)engine.run();
  }
  EXPECT_EQ(ids_interp, (std::vector<int>{7, 11, 13}));
  EXPECT_EQ(ids_interp, ids_threaded);
}

TEST(Threaded, FusedChainBitExact) {
  Assembler a;
  engine_programs::emit_chain_kernel(a, 12);
  const Program p = a.finish();
  const ThreadedEngine::Stats stats = run_both(p);
  EXPECT_EQ(stats.fallback_steps, 0u);
}

TEST(Threaded, ChainBailsWhenMacNamesSlidRegister) {
  const ThreadedEngine::Stats stats = run_both(engine_programs::slid_row_bail_program());
  EXPECT_GE(stats.chain_bails, 1u);
}

TEST(Threaded, ChainBailsWhenVlBelowMax) {
  const ThreadedEngine::Stats stats = run_both(engine_programs::narrow_vl_chain_program());
  EXPECT_GE(stats.chain_bails, 1u);
}

TEST(Threaded, FusedChainBeforeTakenBranch) {
  const ThreadedEngine::Stats stats = run_both(engine_programs::chain_then_branch_program(9));
  EXPECT_EQ(stats.superblock_macs, 9u);
  EXPECT_EQ(stats.chain_bails, 0u);
}

/// One instruction on the engine: a one-instruction budget, which the
/// engine reports spent as kMaxSteps unless the instruction halted.
StopReason run_one(ThreadedEngine& engine) {
  const StopReason r = engine.run(1);
  return r == StopReason::kMaxSteps ? StopReason::kRunning : r;
}

TEST(Threaded, SingleInstructionRunsMatchInterpreterLockstep) {
  Assembler a;
  engine_programs::emit_chain_kernel(a, 5);
  const Program p = a.finish();

  MainMemory mem_a, mem_b;
  Machine interp(p, mem_a);
  Machine mach(p, mem_b);
  ThreadedEngine engine(mach);
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    const StopReason sa = interp.step();
    const StopReason sb = run_one(engine);
    ASSERT_EQ(sa, sb) << "stop divergence at instruction " << i;
    ASSERT_EQ(interp.instructions_retired(), mach.instructions_retired()) << "at " << i;
    ASSERT_TRUE(states_equal(interp.state(), mach.state()))
        << "state divergence at instruction " << i;
    if (sa != StopReason::kRunning) return;
  }
  FAIL() << "program did not halt";
}

TEST(Threaded, InterleavingEngineAndMachineStepIsSafe) {
  Assembler a;
  engine_programs::emit_chain_kernel(a, 5);
  const Program p = a.finish();

  MainMemory mem_a, mem_b;
  Machine interp(p, mem_a);
  Machine mach(p, mem_b);
  ThreadedEngine engine(mach);
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    const StopReason sa = interp.step();
    // Alternate the executor: the engine is a view over the Machine, so
    // mixing the two must not desynchronize anything.
    const StopReason sb = (i % 2 == 0) ? run_one(engine) : mach.step();
    ASSERT_EQ(sa, sb);
    ASSERT_EQ(interp.instructions_retired(), mach.instructions_retired()) << "at " << i;
    ASSERT_TRUE(states_equal(interp.state(), mach.state())) << "at instruction " << i;
    if (sa != StopReason::kRunning) return;
  }
  FAIL() << "program did not halt";
}

TEST(Threaded, MaxStepsBudgetIsInstructionExact) {
  Assembler a;
  engine_programs::emit_chain_kernel(a, 50);
  const Program p = a.finish();
  // Budgets that stop before the program, mid-block and mid-chain.
  for (const std::uint64_t budget : {1ull, 2ull, 13ull, 14ull, 60ull, 61ull, 100ull}) {
    MainMemory mem_a, mem_b;
    Machine interp(p, mem_a);
    Machine mach(p, mem_b);
    ThreadedEngine engine(mach);
    const StopReason sa = interp.run(budget);
    const StopReason sb = engine.run(budget);
    EXPECT_EQ(sa, sb) << "budget " << budget;
    EXPECT_EQ(interp.instructions_retired(), mach.instructions_retired())
        << "budget " << budget;
    EXPECT_TRUE(states_equal(interp.state(), mach.state())) << "budget " << budget;
  }
}

TEST(Threaded, SsrStreamProgramFallsBackBitExact) {
  // SSR ops are outside the threaded fast path by design: the engine must
  // delegate them to Machine::step and still match bit-for-bit.
  const kernels::GemmDims dims{8, 32, 17};
  const core::SpmmProblem problem = core::SpmmProblem::random(dims, sparse::kSparsity14, 3);
  const core::RunConfig config{.algorithm = core::Algorithm::kSsr, .kernel = {.unroll = 1}};

  MainMemory mem_a, mem_b;
  const core::PreparedRun run_a = core::prepare(problem, config, mem_a);
  const core::PreparedRun run_b = core::prepare(problem, config, mem_b);
  Machine interp(run_a.program, mem_a);
  Machine mach(run_b.program, mem_b);
  ThreadedEngine engine(mach);
  EXPECT_EQ(interp.run(10'000'000), engine.run(10'000'000));
  EXPECT_EQ(interp.instructions_retired(), mach.instructions_retired());
  EXPECT_TRUE(states_equal(interp.state(), mach.state()));
  EXPECT_GT(engine.stats().fallback_steps, 0u);

  const auto c_a = core::read_c(run_a, mem_a);
  const auto c_b = core::read_c(run_b, mem_b);
  for (std::size_t i = 0; i < c_a.rows(); ++i)
    for (std::size_t j = 0; j < c_a.cols(); ++j)
      ASSERT_EQ(c_a.at(i, j), c_b.at(i, j)) << "C(" << i << "," << j << ")";
}

TEST(Threaded, AlgorithmKernelsUseSuperblocks) {
  // The three hot kernels must actually hit the fused fast path — a silent
  // regression to per-op dispatch would still be bit-exact, so the stats
  // are the only guard on the engine's reason to exist.
  const kernels::GemmDims dims{16, 64, 32};
  const core::SpmmProblem problem = core::SpmmProblem::random(dims, sparse::kSparsity14, 5);
  for (const auto alg : {core::Algorithm::kRowwiseSpmm, core::Algorithm::kIndexmac,
                         core::Algorithm::kIndexmac4}) {
    MainMemory mem;
    const core::PreparedRun run = core::prepare(
        problem, core::RunConfig{.algorithm = alg, .kernel = {}}, mem);
    Machine mach(run.program, mem);
    ThreadedEngine engine(mach);
    EXPECT_EQ(engine.run(100'000'000), StopReason::kEbreak);
    EXPECT_GT(engine.stats().superblock_macs, 0u) << core::algorithm_name(alg);
    EXPECT_EQ(engine.stats().fallback_steps, 0u) << core::algorithm_name(alg);
  }
}

}  // namespace
}  // namespace indexmac
