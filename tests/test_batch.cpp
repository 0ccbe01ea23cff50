// BatchRunner: parallel sweeps must be indistinguishable from serial runs —
// identical per-job stats, submission-order results at any thread count,
// and robust to jobs that throw.
#include "core/batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.h"

namespace {

using namespace indexmac;
using core::Algorithm;
using core::BatchJob;
using core::BatchResult;
using core::BatchRunner;
using core::RunConfig;

void expect_same_stats(const BatchResult& a, const BatchResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);  // bit-identical, no tolerance
  EXPECT_EQ(a.data_accesses, b.data_accesses);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.instructions, b.stats.instructions);
  EXPECT_EQ(a.stats.scalar_instructions, b.stats.scalar_instructions);
  EXPECT_EQ(a.stats.vector_instructions, b.stats.vector_instructions);
  EXPECT_EQ(a.stats.vector_loads, b.stats.vector_loads);
  EXPECT_EQ(a.stats.vector_stores, b.stats.vector_stores);
  EXPECT_EQ(a.stats.vector_macs, b.stats.vector_macs);
  EXPECT_EQ(a.stats.vector_to_scalar_moves, b.stats.vector_to_scalar_moves);
  EXPECT_EQ(a.stats.branch_mispredicts, b.stats.branch_mispredicts);
  EXPECT_EQ(a.stats.dispatch_stalls.total(), b.stats.dispatch_stalls.total());
  EXPECT_EQ(a.stats.mem.data_accesses(), b.stats.mem.data_accesses());
}

/// A mixed sweep: both algorithms, both run modes, several shapes/seeds.
std::vector<BatchJob> mixed_sweep() {
  const timing::ProcessorConfig proc{};
  std::vector<BatchJob> jobs;
  const RunConfig rowwise{.algorithm = Algorithm::kRowwiseSpmm, .kernel = {.unroll = 4}};
  const RunConfig proposed{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 4}};
  unsigned seed = 1;
  for (const auto sp : {sparse::kSparsity14, sparse::kSparsity24}) {
    for (const auto& dims :
         {kernels::GemmDims{16, 64, 32}, kernels::GemmDims{32, 48, 16}}) {
      for (const RunConfig& config : {rowwise, proposed})
        jobs.push_back(core::exact_job(dims, sp, seed++, config, proc));
    }
    jobs.push_back(core::sampled_job({64, 128, 48}, sp, proposed, proc,
                                     {.sample_rows = 8, .sample_full_strips = 2}));
  }
  return jobs;
}

TEST(BatchRunner, MatchesSerialExecutionBitExactly) {
  const auto jobs = mixed_sweep();

  std::vector<BatchResult> serial;
  serial.reserve(jobs.size());
  for (const BatchJob& job : jobs) serial.push_back(core::run_job(job));

  const auto parallel = core::run_batch(jobs, 4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    expect_same_stats(parallel[i], serial[i]);
  }
}

TEST(BatchRunner, ResultOrderMatchesSubmissionOrderAtAnyThreadCount) {
  const auto jobs = mixed_sweep();
  const auto baseline = core::run_batch(jobs, 1);
  for (const unsigned threads : {2u, 3u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto results = core::run_batch(jobs, threads);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      expect_same_stats(results[i], baseline[i]);
    }
  }
}

TEST(BatchRunner, SharedProblemJobsMatchDirectRuns) {
  const timing::ProcessorConfig proc{};
  const kernels::GemmDims dims{16, 64, 32};
  const auto problem = core::SpmmProblem::random(dims, sparse::kSparsity24, 42);
  const RunConfig rowwise{.algorithm = Algorithm::kRowwiseSpmm, .kernel = {.unroll = 2}};
  const RunConfig proposed{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 2}};

  const auto results =
      core::run_batch({core::exact_job(dims, sparse::kSparsity24, 42, rowwise, proc),
                       core::exact_job(dims, sparse::kSparsity24, 42, proposed, proc)},
                      2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stats.cycles, core::run_exact(problem, rowwise, proc).stats.cycles);
  EXPECT_EQ(results[1].stats.cycles, core::run_exact(problem, proposed, proc).stats.cycles);
  EXPECT_GT(results[0].cycles, results[1].cycles);  // the paper's headline result
}

TEST(BatchRunner, ThrowingTaskDoesNotDeadlockThePool) {
  BatchRunner pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);

  // The pool must still accept and complete work on every worker.
  std::atomic<int> completed{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(pool.submit([i, &completed] {
      ++completed;
      return i;
    }));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
  EXPECT_EQ(completed.load(), 8);
}

TEST(BatchRunner, ThrowingJobReportsFirstErrorAfterAllJobsFinish) {
  const timing::ProcessorConfig proc{};
  std::vector<BatchJob> jobs = mixed_sweep();
  // unroll=5 is rejected by the kernel generators
  jobs.insert(jobs.begin() + 1,
              core::exact_job({16, 64, 32}, sparse::kSparsity14, 1,
                              RunConfig{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 5}},
                              proc));

  EXPECT_THROW((void)core::run_batch(jobs, 4), SimError);

  // A failed batch must leave the pool reusable (fresh pool semantics are
  // covered above; here reuse one across a failing and a clean batch).
  BatchRunner pool(4);
  EXPECT_THROW((void)core::run_batch(pool, jobs), SimError);
  const auto good = core::run_batch(pool, mixed_sweep());
  EXPECT_EQ(good.size(), mixed_sweep().size());
}

TEST(BatchRunner, DefaultThreadCountHonorsEnvironment) {
  EXPECT_GE(BatchRunner::default_thread_count(), 1u);
  ASSERT_EQ(setenv("INDEXMAC_THREADS", "3", 1), 0);
  EXPECT_EQ(BatchRunner::default_thread_count(), 3u);
  ASSERT_EQ(setenv("INDEXMAC_THREADS", "1", 1), 0);
  EXPECT_EQ(BatchRunner::default_thread_count(), 1u);
  const auto max = std::to_string(BatchRunner::kMaxThreads);
  ASSERT_EQ(setenv("INDEXMAC_THREADS", max.c_str(), 1), 0);
  EXPECT_EQ(BatchRunner::default_thread_count(), BatchRunner::kMaxThreads);
  ASSERT_EQ(unsetenv("INDEXMAC_THREADS"), 0);
}

TEST(BatchRunner, DefaultThreadCountRejectsMalformedEnvironment) {
  // A bad INDEXMAC_THREADS must fail loudly, never clamp or fall back:
  // zero/negative, garbage, partial parses, and absurd widths.
  const char* bad[] = {"0",          "-2",    "abc", "3abc",       "",
                       "2147483648", "99999", "1e3", "4294967297", " "};
  for (const char* value : bad) {
    SCOPED_TRACE(std::string("INDEXMAC_THREADS=\"") + value + "\"");
    ASSERT_EQ(setenv("INDEXMAC_THREADS", value, 1), 0);
    EXPECT_THROW((void)BatchRunner::default_thread_count(), SimError);
  }
  ASSERT_EQ(unsetenv("INDEXMAC_THREADS"), 0);
  EXPECT_GE(BatchRunner::default_thread_count(), 1u);  // clean fallback restored
}

TEST(BatchRunner, ParseThreadCountMirrorsEnvValidation) {
  // The CLI --threads flag and INDEXMAC_THREADS share one rule set:
  // the whole string must parse as an integer in [1, kMaxThreads].
  EXPECT_EQ(BatchRunner::parse_thread_count("1"), 1u);
  EXPECT_EQ(BatchRunner::parse_thread_count("16"), 16u);
  EXPECT_EQ(BatchRunner::parse_thread_count(std::to_string(BatchRunner::kMaxThreads)),
            BatchRunner::kMaxThreads);
  const char* bad[] = {"0",          "-2",    "abc", "3abc",       "",
                       "2147483648", "99999", "1e3", "4294967297", " "};
  for (const char* value : bad) {
    SCOPED_TRACE(std::string("--threads \"") + value + "\"");
    EXPECT_THROW((void)BatchRunner::parse_thread_count(value), SimError);
  }
}

TEST(BatchRunner, ThreadOverrideWinsOverEnvironment) {
  // The CLI flag routes through set_thread_override, which must beat the
  // environment variable and restore cleanly when cleared.
  ASSERT_EQ(setenv("INDEXMAC_THREADS", "3", 1), 0);
  BatchRunner::set_thread_override(2);
  EXPECT_EQ(BatchRunner::default_thread_count(), 2u);
  BatchRunner::set_thread_override(0);  // cleared: env applies again
  EXPECT_EQ(BatchRunner::default_thread_count(), 3u);
  // With the override set, even a malformed environment is never consulted.
  ASSERT_EQ(setenv("INDEXMAC_THREADS", "garbage", 1), 0);
  BatchRunner::set_thread_override(5);
  EXPECT_EQ(BatchRunner::default_thread_count(), 5u);
  BatchRunner::set_thread_override(0);
  ASSERT_EQ(unsetenv("INDEXMAC_THREADS"), 0);
}

// SpmmProblem::shared interns live operand sets: the pool's workers read
// one immutable problem per (dims, sparsity, seed) while any job holds it.

void expect_same_operands(const core::SpmmProblem& got, const core::SpmmProblem& want) {
  ASSERT_EQ(got.a.rows(), want.a.rows());
  ASSERT_EQ(got.a.blocks_per_row(), want.a.blocks_per_row());
  ASSERT_EQ(got.a.sparsity(), want.a.sparsity());
  for (std::size_t r = 0; r < want.a.rows(); ++r)
    for (std::size_t blk = 0; blk < want.a.blocks_per_row(); ++blk)
      for (unsigned slot = 0; slot < want.sp.n; ++slot) {
        ASSERT_EQ(got.a.value_at(r, blk, slot), want.a.value_at(r, blk, slot));
        ASSERT_EQ(got.a.index_at(r, blk, slot), want.a.index_at(r, blk, slot));
      }
  EXPECT_TRUE(got.b == want.b);
}

TEST(SpmmProblemShared, OneObjectPerLiveKey) {
  const kernels::GemmDims dims{16, 64, 32};
  const auto first = core::SpmmProblem::shared(dims, sparse::kSparsity24, 42);
  const auto second = core::SpmmProblem::shared(dims, sparse::kSparsity24, 42);
  EXPECT_EQ(first.get(), second.get());
  expect_same_operands(*first, core::SpmmProblem::random(dims, sparse::kSparsity24, 42));

  // Each key component selects its own operand set.
  const auto other_seed = core::SpmmProblem::shared(dims, sparse::kSparsity24, 43);
  const auto other_sp = core::SpmmProblem::shared(dims, sparse::kSparsity14, 42);
  const auto other_rows = core::SpmmProblem::shared({32, 64, 32}, sparse::kSparsity24, 42);
  const auto other_k = core::SpmmProblem::shared({16, 128, 32}, sparse::kSparsity24, 42);
  const auto other_cols = core::SpmmProblem::shared({16, 64, 48}, sparse::kSparsity24, 42);
  for (const auto& other : {other_seed, other_sp, other_rows, other_k, other_cols})
    EXPECT_NE(other.get(), first.get());
  EXPECT_EQ(other_sp->sp, sparse::kSparsity14);
  EXPECT_EQ(other_cols->dims.cols_b, 48u);
  expect_same_operands(*other_seed, core::SpmmProblem::random(dims, sparse::kSparsity24, 43));
}

TEST(SpmmProblemShared, EntryLivesExactlyAsLongAsAHandle) {
  const kernels::GemmDims dims{16, 48, 16};
  std::weak_ptr<const core::SpmmProblem> weak;
  {
    auto first = core::SpmmProblem::shared(dims, sparse::kSparsity14, 5);
    const auto second = core::SpmmProblem::shared(dims, sparse::kSparsity14, 5);
    weak = first;
    first.reset();
    EXPECT_FALSE(weak.expired());  // `second` still holds it
  }
  EXPECT_TRUE(weak.expired());
  // The key regenerates the same bytes after its entry died.
  expect_same_operands(*core::SpmmProblem::shared(dims, sparse::kSparsity14, 5),
                       core::SpmmProblem::random(dims, sparse::kSparsity14, 5));
}

TEST(SpmmProblemShared, RacingFirstCallsGetOneObject) {
  // A key no other test uses, so all eight threads race on a new entry.
  const kernels::GemmDims dims{64, 96, 48};
  constexpr std::size_t kThreads = 8;
  std::barrier start(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::shared_ptr<const core::SpmmProblem>> handles(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      handles[i] = core::SpmmProblem::shared(dims, sparse::kSparsity24, 2024);
    });
  for (std::thread& t : threads) t.join();
  for (const auto& handle : handles) EXPECT_EQ(handle.get(), handles[0].get());
  expect_same_operands(*handles[0], core::SpmmProblem::random(dims, sparse::kSparsity24, 2024));
}

TEST(SpmmProblemShared, GeneratorErrorReachesEveryCallerAndLeavesKeyUsable) {
  // N = 0 is rejected by the N:M container, so the generator throws.
  const kernels::GemmDims dims{8, 16, 16};
  const sparse::Sparsity invalid{0, 4};
  EXPECT_THROW((void)core::SpmmProblem::random(dims, invalid, 1), SimError);

  // Racing callers each see the error; none hangs on the failed entry.
  constexpr std::size_t kThreads = 4;
  std::barrier start(static_cast<std::ptrdiff_t>(kThreads));
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back([&] {
      start.arrive_and_wait();
      try {
        (void)core::SpmmProblem::shared(dims, invalid, 1);
      } catch (const SimError&) {
        ++errors;
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), static_cast<int>(kThreads));

  // A later call runs the generator again rather than finding a poisoned
  // entry: the same error, not a null handle or a hang.
  EXPECT_THROW((void)core::SpmmProblem::shared(dims, invalid, 1), SimError);
  EXPECT_NE(core::SpmmProblem::shared(dims, sparse::kSparsity14, 1), nullptr);
}

}  // namespace
