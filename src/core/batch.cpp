#include "core/batch.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "core/algorithm_registry.h"

namespace indexmac::core {

namespace {
/// CLI-supplied default pool width; 0 = no override (see set_thread_override).
std::atomic<unsigned> g_thread_override{0};
}  // namespace

BatchRunner::BatchRunner(unsigned threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

BatchRunner::~BatchRunner() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

unsigned BatchRunner::parse_thread_count(const std::string& text, std::string_view name) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  const bool parsed_fully = end != text.c_str() && *end == '\0' && errno == 0;
  IMAC_CHECK(parsed_fully && parsed >= 1 && parsed <= static_cast<long>(kMaxThreads),
             std::string(name) + " must be an integer in [1, " + std::to_string(kMaxThreads) +
                 "], got \"" + text + "\"");
  return static_cast<unsigned>(parsed);
}

void BatchRunner::set_thread_override(unsigned threads) {
  g_thread_override.store(threads, std::memory_order_relaxed);
}

unsigned BatchRunner::default_thread_count() {
  if (const unsigned override = g_thread_override.load(std::memory_order_relaxed); override != 0)
    return override;
  // A malformed value throws: a silently-ignored typo would run a
  // benchmark at an unintended width and corrupt every wall-clock
  // comparison made with it.
  if (const char* env = std::getenv("INDEXMAC_THREADS"))
    return parse_thread_count(env, "INDEXMAC_THREADS");
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void BatchRunner::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    IMAC_CHECK(!stopping_, "BatchRunner: submit after shutdown");
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void BatchRunner::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // packaged_task routes any exception into the job's future, so a
    // throwing job cannot take the worker (or the pool) down.
    job();
  }
}

BatchJob sampled_job(const kernels::GemmDims& dims, sparse::Sparsity sp, const RunConfig& config,
                     const timing::ProcessorConfig& processor, const SampleParams& sample) {
  BatchJob job;
  job.mode = BatchJob::Mode::kSampled;
  job.dims = dims;
  job.sp = sp;
  job.config = config;
  job.processor = processor;
  job.sample = sample;
  return job;
}

BatchJob exact_job(const kernels::GemmDims& dims, sparse::Sparsity sp, std::uint32_t seed,
                   const RunConfig& config, const timing::ProcessorConfig& processor) {
  BatchJob job;
  job.mode = BatchJob::Mode::kExact;
  job.dims = dims;
  job.sp = sp;
  job.config = config;
  job.processor = processor;
  job.seed = seed;
  return job;
}

namespace {

/// The problem a job simulates: its own dims and seed when exact,
/// run_sampled's miniature when sampled.
struct Simulated {
  kernels::GemmDims dims;
  std::uint32_t seed = 1;
};

Simulated simulated(const BatchJob& job) {
  if (job.mode == BatchJob::Mode::kExact) return {job.dims, job.seed};
  // An unroll of 0 fails inside the job itself; estimating must not throw.
  return {sample_dims(job.dims, std::max(1u, job.config.kernel.unroll), job.sample), kSampleSeed};
}

/// Longest-processing-time-first over operand groups. Jobs that share an
/// SpmmProblem::shared key form one group and are dispatched back to back,
/// so siblings overlap and generate their operands once. Groups go in
/// descending order of their largest job, jobs within a group in
/// descending estimate; ties keep the caller's order. The order depends on
/// the jobs alone, never on the pool width.
std::vector<std::size_t> dispatch_order(const std::vector<BatchJob>& jobs) {
  using OperandKey = std::tuple<std::size_t, std::size_t, std::size_t, unsigned, unsigned,
                                std::uint32_t>;
  struct Rank {
    std::uint64_t macs = 0;
    std::size_t group = 0;  ///< index of the group's first job
    std::uint64_t group_macs = 0;
  };
  std::vector<Rank> ranks(jobs.size());
  std::map<OperandKey, std::size_t> group_of;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const BatchJob& job = jobs[i];
    const Simulated sim = simulated(job);
    ranks[i].macs = estimated_macs(job);
    const OperandKey key{sim.dims.rows_a, sim.dims.k, sim.dims.cols_b, job.sp.n, job.sp.m,
                         sim.seed};
    ranks[i].group = group_of.try_emplace(key, i).first->second;
    Rank& lead = ranks[ranks[i].group];
    lead.group_macs = std::max(lead.group_macs, ranks[i].macs);
  }
  for (Rank& r : ranks) r.group_macs = ranks[r.group].group_macs;

  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Rank& x = ranks[a];
    const Rank& y = ranks[b];
    if (x.group_macs != y.group_macs) return x.group_macs > y.group_macs;
    if (x.group != y.group) return x.group < y.group;
    if (x.macs != y.macs) return x.macs > y.macs;
    return a < b;
  });
  return order;
}

}  // namespace

std::uint64_t estimated_macs(const BatchJob& job) {
  const kernels::GemmDims dims = simulated(job).dims;
  const std::uint64_t dense = std::uint64_t{dims.rows_a} * dims.k * dims.cols_b;
  if (AlgorithmRegistry::instance().by_algorithm(job.config.algorithm).dense_operands ||
      job.sp.m == 0)
    return dense;
  return dense * job.sp.n / job.sp.m;
}

BatchResult run_job(const BatchJob& job) {
  BatchResult out;
  switch (job.mode) {
    case BatchJob::Mode::kExact: {
      // Fetched inside the job and held while it runs, so batched and
      // serial execution see byte-identical inputs and siblings running
      // at the same time share one generated set.
      const auto problem = SpmmProblem::shared(job.dims, job.sp, job.seed);
      const ExactResult r = run_exact(*problem, job.config, job.processor);
      out.cycles = static_cast<double>(r.stats.cycles);
      out.data_accesses = r.data_accesses();
      out.stats = r.stats;
      break;
    }
    case BatchJob::Mode::kSampled: {
      const SampledResult r = run_sampled(job.dims, job.sp, job.config, job.processor, job.sample);
      out.cycles = r.cycles;
      out.data_accesses = r.data_accesses;
      out.stats = r.sample_stats;
      break;
    }
  }
  return out;
}

std::vector<BatchResult> run_batch(
    BatchRunner& runner, const std::vector<BatchJob>& jobs,
    const std::function<void(std::size_t, const BatchResult&)>& on_result,
    const std::atomic<bool>* cancel) {
  // Dispatched largest-first, but futures[i] stays keyed to jobs[i].
  std::vector<std::future<BatchResult>> futures(jobs.size());
  for (const std::size_t i : dispatch_order(jobs)) {
    // on_result runs on the worker, immediately after its job: journaling
    // must not be head-of-line blocked behind the collection loop, or a
    // kill while a low-index job (say, one huge GEMM) simulates would lose
    // every job that already finished. `on_result` and its targets outlive
    // the blocking collection loop below by construction.
    const BatchJob& job = jobs[i];
    futures[i] = runner.submit([job, i, &on_result, cancel] {
      // The cancel check lives on the worker, not the submit loop: a
      // signal that lands mid-batch skips everything still queued while
      // jobs already executing finish and journal normally.
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
        throw BatchCancelled("batch cancelled before this job started");
      BatchResult result = run_job(job);
      if (on_result) on_result(i, result);
      return result;
    });
  }

  std::vector<BatchResult> results(jobs.size());
  std::exception_ptr first_error;  // of the lowest-index failed job
  bool cancelled = false;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      results[i] = futures[i].get();
    } catch (const BatchCancelled&) {
      cancelled = true;
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  // A real job failure outranks the interrupt: it names a bug the user
  // must see, while BatchCancelled only restates what they requested.
  if (first_error) std::rethrow_exception(first_error);
  if (cancelled)
    throw BatchCancelled("batch cancelled: jobs not yet started were skipped (completed "
                         "results were delivered through on_result)");
  return results;
}

std::vector<BatchResult> run_batch(BatchRunner& runner, const std::vector<BatchJob>& jobs) {
  return run_batch(runner, jobs, {});
}

std::vector<BatchResult> run_batch(const std::vector<BatchJob>& jobs, unsigned threads) {
  BatchRunner runner(threads);
  return run_batch(runner, jobs);
}

}  // namespace indexmac::core
