// BatchRunner: parallel sweeps must be indistinguishable from serial runs —
// identical per-job stats, results in the caller's order at any thread
// count whatever the dispatch order, and robust to jobs that throw.
#include "core/batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
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
    // A usage error, so a bad --threads exits 2 like any other bad flag.
    EXPECT_THROW((void)BatchRunner::parse_thread_count(value), UsageError);
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

// Dispatch order: run_batch starts the largest simulations first and keeps
// jobs that share an operand set together. On a one-worker pool a job's
// on_result fires before the next job starts, so the callback order is
// the start order.

/// Runs `jobs` on one worker and returns the caller indices in start order.
std::vector<std::size_t> start_order(const std::vector<BatchJob>& jobs) {
  BatchRunner pool(1);
  std::vector<std::size_t> order;
  (void)core::run_batch(pool, jobs, [&](std::size_t i, const BatchResult&) { order.push_back(i); });
  return order;
}

/// SpmmProblem::shared's key for the operands a job runs on.
std::tuple<std::size_t, std::size_t, std::size_t, unsigned, unsigned, std::uint32_t> operand_key(
    const BatchJob& job) {
  const bool exact = job.mode == BatchJob::Mode::kExact;
  const kernels::GemmDims d =
      exact ? job.dims : core::sample_dims(job.dims, job.config.kernel.unroll, job.sample);
  return {d.rows_a, d.k, d.cols_b, job.sp.n, job.sp.m, exact ? job.seed : core::kSampleSeed};
}

TEST(BatchDispatch, OneWorkerStartsJobsInNonIncreasingEstimateOrder) {
  const timing::ProcessorConfig proc{};
  const RunConfig proposed{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 4}};
  const RunConfig dense{.algorithm = Algorithm::kDenseRowwise, .kernel = {.unroll = 1}};
  // Smallest first in the caller's order, every job on its own operands.
  const std::vector<BatchJob> jobs = {
      core::exact_job({16, 32, 16}, sparse::kSparsity14, 1, proposed, proc),
      core::exact_job({16, 32, 16}, sparse::kSparsity24, 2, proposed, proc),
      core::exact_job({16, 32, 16}, sparse::kSparsity14, 3, dense, proc),
      core::sampled_job({64, 96, 200}, sparse::kSparsity14, proposed, proc),
      core::exact_job({32, 64, 48}, sparse::kSparsity24, 4, proposed, proc),
  };
  EXPECT_EQ(core::estimated_macs(jobs[0]), 16u * 32 * 16 / 4);
  EXPECT_EQ(core::estimated_macs(jobs[2]), 16u * 32 * 16);  // dense operands: no n/m
  EXPECT_EQ(core::estimated_macs(jobs[3]), 16u * 96 * 56 / 4);  // the 16 x 96 x 56 miniature

  const std::vector<std::size_t> order = start_order(jobs);
  ASSERT_EQ(order.size(), jobs.size());
  EXPECT_EQ(order, (std::vector<std::size_t>{4, 3, 2, 1, 0}));
  for (std::size_t j = 1; j < order.size(); ++j)
    EXPECT_GE(core::estimated_macs(jobs[order[j - 1]]), core::estimated_macs(jobs[order[j]]));
}

TEST(BatchDispatch, JobsSharingOperandsStartConsecutively) {
  const timing::ProcessorConfig proc{};
  std::vector<BatchJob> jobs;
  // Interleave three exact operand sets and the sampled miniatures of two
  // layers: with rows_a >= 16 unroll 1/2/4 share one miniature, with
  // rows_a = 6 unroll 4 rounds the rows up to 8 and gets its own.
  for (const unsigned unroll : {1u, 2u, 4u}) {
    const RunConfig rowwise{.algorithm = Algorithm::kRowwiseSpmm, .kernel = {.unroll = unroll}};
    const RunConfig proposed{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = unroll}};
    for (const std::uint32_t seed : {7u, 8u, 9u})
      jobs.push_back(core::exact_job({16, 32, 16}, sparse::kSparsity24, seed, proposed, proc));
    jobs.push_back(core::sampled_job({64, 64, 40}, sparse::kSparsity14, rowwise, proc));
    jobs.push_back(core::sampled_job({6, 64, 40}, sparse::kSparsity14, proposed, proc));
  }

  const std::vector<std::size_t> order = start_order(jobs);
  ASSERT_EQ(order.size(), jobs.size());
  std::map<decltype(operand_key(jobs[0])), std::vector<std::size_t>> positions;
  for (std::size_t pos = 0; pos < order.size(); ++pos)
    positions[operand_key(jobs[order[pos]])].push_back(pos);
  EXPECT_EQ(positions.size(), 6u);  // three seeds, two miniatures of layer 6 x 64 x 40, one of 64
  for (const auto& [key, at] : positions)
    EXPECT_EQ(at.back() - at.front() + 1, at.size()) << "a group was split";
}

TEST(BatchDispatch, ResultsAndCallbacksStayKeyedToTheCallersIndex) {
  // mixed_sweep is not in estimate order, so dispatch reorders it.
  const std::vector<BatchJob> jobs = mixed_sweep();
  std::vector<BatchResult> serial;
  for (const BatchJob& job : jobs) serial.push_back(core::run_job(job));

  std::mutex mutex;
  std::vector<BatchResult> journaled(jobs.size());
  std::vector<int> calls(jobs.size(), 0);
  BatchRunner pool(3);
  const auto results = core::run_batch(pool, jobs, [&](std::size_t i, const BatchResult& r) {
    const std::lock_guard<std::mutex> lock(mutex);
    journaled[i] = r;
    ++calls[i];
  });
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(calls[i], 1);
    expect_same_stats(results[i], serial[i]);
    expect_same_stats(journaled[i], serial[i]);
  }
}

TEST(BatchDispatch, EarlyThrowingJobFailsAloneAndTheLowestIndexErrorWins) {
  const timing::ProcessorConfig proc{};
  const RunConfig proposed{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 4}};
  const RunConfig bad_unroll{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 5}};
  RunConfig a_stationary = proposed;
  a_stationary.kernel.dataflow = kernels::Dataflow::kAStationary;
  std::vector<BatchJob> jobs = {
      core::exact_job({16, 32, 16}, sparse::kSparsity14, 1, proposed, proc),
      // Index 1 sorts last; index 3 is the largest job, so it starts first.
      core::exact_job({16, 16, 16}, sparse::kSparsity14, 2, bad_unroll, proc),
      core::exact_job({16, 48, 16}, sparse::kSparsity14, 3, proposed, proc),
      core::sampled_job({256, 256, 256}, sparse::kSparsity24, a_stationary, proc),
  };

  // Alone, the early job's error reaches the caller and every other job
  // still runs and journals.
  std::vector<BatchJob> one_bad = jobs;
  one_bad.erase(one_bad.begin() + 1);
  std::vector<std::size_t> journaled;
  BatchRunner pool(1);
  try {
    (void)core::run_batch(pool, one_bad,
                          [&](std::size_t i, const BatchResult&) { journaled.push_back(i); });
    ADD_FAILURE() << "the a-stationary sampled job must throw";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("B-stationary"), std::string::npos) << e.what();
  }
  EXPECT_EQ(journaled, (std::vector<std::size_t>{1, 0}));

  // With two failures the lowest index wins, although it ran last.
  try {
    (void)core::run_batch(pool, jobs);
    ADD_FAILURE() << "the batch must throw";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("unroll"), std::string::npos) << e.what();
  }
}

TEST(BatchDispatch, SampleDimsIsTheMiniatureRunSampledSimulates) {
  const core::SampleParams params{};  // 16 rows, 3 full strips
  struct Case {
    kernels::GemmDims dims;
    unsigned unroll;
    kernels::GemmDims want;
  };
  const Case cases[] = {
      // rows_a < 16: the full rows, rounded up to the unroll
      {{6, 64, 40}, 1, {6, 64, 40}},
      {{6, 64, 40}, 2, {6, 64, 40}},
      {{6, 64, 40}, 4, {8, 64, 40}},
      // rows_a >= 16: 16 rows at every unroll; 3 full strips plus the tail
      {{100, 64, 200}, 1, {16, 64, 56}},
      {{100, 64, 200}, 2, {16, 64, 56}},
      {{100, 64, 200}, 4, {16, 64, 56}},
      // fewer full strips than the sample keeps, and a tail alone
      {{32, 64, 49}, 4, {16, 64, 49}},
      {{32, 64, 10}, 2, {16, 64, 10}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.dims.rows_a) + "x" + std::to_string(c.dims.cols_b) + " u" +
                 std::to_string(c.unroll));
    const kernels::GemmDims got = core::sample_dims(c.dims, c.unroll, params);
    EXPECT_EQ(got.rows_a, c.want.rows_a);
    EXPECT_EQ(got.k, c.want.k);
    EXPECT_EQ(got.cols_b, c.want.cols_b);
  }
  EXPECT_EQ(core::sample_dims({6, 64, 40}, 4, {.sample_rows = 2}).rows_a, 4u);
  EXPECT_THROW((void)core::sample_dims({6, 64, 40}, 0, params), SimError);

  // run_sampled's miniature run is an exact run of exactly these dims.
  const timing::ProcessorConfig proc{};
  const RunConfig proposed{.algorithm = Algorithm::kIndexmac, .kernel = {.unroll = 2}};
  const kernels::GemmDims dims{6, 64, 40};
  RunConfig marked = proposed;
  marked.kernel.emit_markers = true;
  const auto mini = core::SpmmProblem::shared(core::sample_dims(dims, 2, params),
                                              sparse::kSparsity14, core::kSampleSeed);
  const auto sampled = core::run_sampled(dims, sparse::kSparsity14, proposed, proc, params);
  EXPECT_EQ(sampled.sample_stats.cycles, core::run_exact(*mini, marked, proc).stats.cycles);
  EXPECT_EQ(sampled.sample_stats.instructions,
            core::run_exact(*mini, marked, proc).stats.instructions);
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
