// sweep_bench: runs one sweep workload through the library's public
// core:: API and prints its raw measurements as one JSON document on
// stdout; perfbench/run.py turns them into the named metrics. Progress and
// failures go to stderr.
//
//   sweep_bench --workload registry-sampled|mobilenet-exact --seed N
//                    --seconds S --trace 0|1 --golden DIR --work DIR
//                    [--setup-only]
//
// --trace 0 repeats the whole sweep, each time with a fresh pool, result
// store and cache, for about S seconds (at least once), and records every
// repetition's wall and CPU time and the host probe's reading during it
// (host_probe.h). --trace 1 runs the sweep once with a span
// around every job and every journal write, then replays every simulated
// job stage by stage on fresh memory. Every span is taken around a call
// into a public library function; nothing inside the library is
// instrumented. --setup-only times set-up (registry build, spec parse,
// expansion, pool spawn, store open) from process start and exits.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bitutil.h"
#include "common/error.h"
#include "common/json.h"
#include "core/algorithm_registry.h"
#include "core/batch.h"
#include "core/result_store.h"
#include "core/rollup.h"
#include "core/runner.h"
#include "core/spmm_problem.h"
#include "core/sweep.h"
#include "fsim/machine.h"
#include "fsim/threaded.h"
#include "host_probe.h"
#include "kernels/kernels.h"
#include "kernels/layout.h"
#include "sparse/packing.h"
#include "timing/timing_sim.h"
#include "timing/trace.h"
#include "workloads/workloads.h"

namespace {

using namespace indexmac;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

/// Widest pool the workloads use: at most four workers, never more than
/// the host has hardware threads.
constexpr unsigned kMaxPoolWidth = 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

double cpu_seconds() {
  const rusage ru = self_usage();
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

unsigned pool_width() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, kMaxPoolWidth);
}

std::uint64_t fnv1a(const std::string& data, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  IMAC_CHECK(in.good(), "cannot open " + path.string());
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

JsonValue num(double v) { return JsonValue(v); }

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  fs::path golden;
  fs::path work;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    IMAC_CHECK(i + 1 < argc, "flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = static_cast<std::uint32_t>(std::stoul(value));
    else if (flag == "--seconds") opt.seconds = std::stod(value);
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--golden") opt.golden = value;
    else if (flag == "--work") opt.work = value;
    else raise("unknown flag " + flag);
  }
  IMAC_CHECK(!opt.workload.empty() && !opt.golden.empty() && !opt.work.empty(),
             "--workload, --golden and --work are required");
  return opt;
}

// --- workloads ------------------------------------------------------------

/// The sweep specs a workload runs, in order; the first is its primary
/// sweep. registry-sampled is every registered suite at its default
/// sparsities on the interpreter; mobilenet-exact is MobileNetV1 in exact
/// mode on the threaded engine plus the same grid sampled, as the accuracy
/// reference pair.
std::vector<std::string> workload_specs(const std::string& workload, std::uint32_t seed) {
  const std::string s = std::to_string(seed);
  if (workload == "registry-sampled") {
    std::string suites;
    for (const std::string& name : workloads::suite_names())
      suites += (suites.empty() ? "\"" : ", \"") + name + "\"";
    return {R"({"name": "registry-sampled", "workloads": [)" + suites +
            R"(], "algorithms": ["rowwise", "indexmac", "indexmac4", "ssr"], )"
            R"("unroll": [1, 2, 4], "mode": "sampled", "engine": "interp", "seed": )" +
            s + "}"};
  }
  if (workload == "mobilenet-exact") {
    const std::string grid =
        R"("workloads": ["mobilenetv1"], "sparsities": ["1:4", "2:4"], )"
        R"("algorithms": ["rowwise", "indexmac", "indexmac4"], "unroll": [4], )"
        R"("engine": "threaded", "seed": )" +
        s + "}";
    return {R"({"name": "mobilenet-exact", "mode": "exact", )" + grid,
            R"({"name": "mobilenet-sampled", "mode": "sampled", )" + grid};
  }
  raise("unknown workload \"" + workload + "\" (known: registry-sampled, mobilenet-exact)");
}

/// Everything a sweep needs before its first point is submitted. Members
/// are destroyed in reverse order: the cache before the store it writes
/// through, the pool last.
struct Prepared {
  std::vector<core::SweepSpec> specs;
  std::vector<std::vector<core::SweepPoint>> points;
  std::unique_ptr<core::BatchRunner> pool;
  std::unique_ptr<core::ResultStore> store;
  std::unique_ptr<core::SweepCache> cache;

  [[nodiscard]] std::size_t point_count() const {
    std::size_t n = 0;
    for (const auto& p : points) n += p.size();
    return n;
  }
};

/// Set-up as `imac_run sweep --store DIR` performs it, on a fresh store.
Prepared set_up(const Options& opt, const fs::path& store_dir) {
  fs::remove_all(store_dir);
  Prepared p;
  for (const std::string& text : workload_specs(opt.workload, opt.seed)) {
    p.specs.push_back(core::parse_sweep_spec(text));
    p.points.push_back(core::expand_sweep(p.specs.back()));
  }
  p.pool = std::make_unique<core::BatchRunner>(pool_width());
  p.store = std::make_unique<core::ResultStore>(store_dir.string());
  p.cache = std::make_unique<core::SweepCache>();
  p.cache->attach_store(*p.store, /*preload=*/false);
  return p;
}

/// The bytes `imac_run sweep --rollup` writes, CSV then JSON.
std::string render(const core::SweepReport& report, const core::RollupReport& rollup) {
  return core::report_to_csv(report) + core::rollup_to_csv(rollup) +
         core::report_to_json_with_rollup(report, rollup);
}

JsonValue rollup_rows(const core::RollupReport& rollup) {
  JsonValue rows = JsonValue::make_array();
  for (const core::RollupRow& r : rollup.rows) {
    JsonValue row = JsonValue::make_object();
    row.set("suite", JsonValue(r.suite));
    row.set("sparsity", JsonValue(workloads::sparsity_label(r.sp)));
    row.set("algorithm",
            JsonValue(core::AlgorithmRegistry::instance().by_algorithm(r.algorithm).id));
    row.set("unroll", num(r.unroll));
    row.set("mode", JsonValue(std::string(core::sweep_mode_name(r.mode))));
    row.set("cycles", num(r.cycles));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Sums the simulated-event counters the per-layer metrics report.
struct ModelTotals {
  std::uint64_t runs = 0, cycles = 0, instructions = 0, vector_macs = 0, v2s_moves = 0,
                dram_lines = 0, scalar_operand = 0, branch_shadow = 0, queue_full = 0,
                bandwidth = 0;

  void add(const timing::TimingStats& s) {
    ++runs;
    cycles += s.cycles;
    instructions += s.instructions;
    vector_macs += s.vector_macs;
    v2s_moves += s.vector_to_scalar_moves;
    dram_lines += s.mem.dram_lines;
    scalar_operand += s.dispatch_stalls.scalar_operand;
    branch_shadow += s.dispatch_stalls.branch_shadow;
    queue_full += s.dispatch_stalls.queue_full;
    bandwidth += s.dispatch_stalls.bandwidth;
  }

  [[nodiscard]] JsonValue json() const {
    JsonValue o = JsonValue::make_object();
    o.set("runs", num(static_cast<double>(runs)));
    o.set("cycles", num(static_cast<double>(cycles)));
    o.set("instructions", num(static_cast<double>(instructions)));
    o.set("vector_macs", num(static_cast<double>(vector_macs)));
    o.set("v2s_moves", num(static_cast<double>(v2s_moves)));
    o.set("dram_lines", num(static_cast<double>(dram_lines)));
    o.set("stall.scalar_operand", num(static_cast<double>(scalar_operand)));
    o.set("stall.branch_shadow", num(static_cast<double>(branch_shadow)));
    o.set("stall.queue_full", num(static_cast<double>(queue_full)));
    o.set("stall.bandwidth", num(static_cast<double>(bandwidth)));
    return o;
  }
};

bool same_stats(const timing::TimingStats& a, const timing::TimingStats& b) {
  const auto& ds = a.dispatch_stalls;
  const auto& dt = b.dispatch_stalls;
  return a.cycles == b.cycles && a.instructions == b.instructions &&
         a.scalar_instructions == b.scalar_instructions &&
         a.vector_instructions == b.vector_instructions && a.vector_loads == b.vector_loads &&
         a.vector_stores == b.vector_stores && a.vector_macs == b.vector_macs &&
         a.vector_to_scalar_moves == b.vector_to_scalar_moves &&
         a.branch_mispredicts == b.branch_mispredicts &&
         ds.scalar_operand == dt.scalar_operand && ds.branch_shadow == dt.branch_shadow &&
         ds.queue_full == dt.queue_full && ds.bandwidth == dt.bandwidth &&
         a.mem.scalar_reads == b.mem.scalar_reads && a.mem.scalar_writes == b.mem.scalar_writes &&
         a.mem.vector_reads == b.mem.vector_reads && a.mem.vector_writes == b.mem.vector_writes &&
         a.mem.ifetch_lines == b.mem.ifetch_lines && a.mem.dram_lines == b.mem.dram_lines;
}

bool bit_equal(const sparse::DenseMatrix<float>& a, const sparse::DenseMatrix<float>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(float)) == 0;
}

// --- output checks --------------------------------------------------------

struct Checks {
  JsonValue list = JsonValue::make_array();
  std::uint64_t failed_points = 0;

  void add(const std::string& name, bool ok, std::uint64_t points, const std::string& detail) {
    JsonValue c = JsonValue::make_object();
    c.set("name", JsonValue(name));
    c.set("ok", JsonValue(ok));
    c.set("detail", JsonValue(detail));
    list.push_back(std::move(c));
    if (!ok) {
      failed_points += points;
      std::fprintf(stderr, "perfbench: check %s FAILED: %s\n", name.c_str(), detail.c_str());
    }
  }
};

/// Byte-compares the `tiny` golden sweep, run on `engine`, with the
/// checked-in reports. Returns its exact-mode rollup (the registry
/// workload's accuracy reference) and its point count.
core::RollupReport golden_check(const Options& opt, ExecEngine engine, Checks& checks,
                                std::uint64_t& points) {
  core::SweepSpec spec = core::parse_sweep_spec_file((opt.golden / "tiny_sweep.json").string());
  spec.engine = engine;
  core::BatchRunner pool(pool_width());
  const core::SweepReport report = core::run_sweep(spec, pool);
  points = report.rows.size();
  const bool csv_ok = core::report_to_csv(report) == read_file(opt.golden / "tiny_sweep.csv");
  const bool json_ok =
      core::report_to_json(report) == read_file(opt.golden / "tiny_sweep_report.json");
  checks.add("golden_tiny", csv_ok && json_ok, points,
             std::string("engine ") + exec_engine_name(engine) + ": csv " +
                 (csv_ok ? "identical" : "DIFFERS") + ", json " +
                 (json_ok ? "identical" : "DIFFERS"));
  return core::compute_rollup(report);
}

/// The --resume path: closes the sweep's store, replays its journal into a
/// fresh cache, re-renders every sweep from it and byte-compares the result
/// with `expected`.
void resume_check(Prepared& p, const fs::path& store_dir, std::size_t unique_jobs,
                  const std::string& expected, Checks& checks) {
  p.cache.reset();
  p.store.reset();
  core::ResultStore store(store_dir.string());
  core::SweepCache cache;
  cache.attach_store(store, /*preload=*/true);
  std::string bytes;
  for (std::size_t s = 0; s < p.specs.size(); ++s) {
    const core::SweepReport report = core::run_sweep(p.specs[s], p.points[s], *p.pool, &cache);
    bytes += render(report, core::compute_rollup(report));
  }
  const bool ok = store.loaded() == unique_jobs && store.appended() == 0 && bytes == expected;
  checks.add("resume_rerender", ok, p.point_count(),
             std::to_string(store.loaded()) + " journaled of " + std::to_string(unique_jobs) +
                 ", " + std::to_string(store.appended()) + " re-simulated, report " +
                 (bytes == expected ? "identical" : "DIFFERS"));
}

/// Records what both run kinds report about the simulated output: its
/// digest, the primary sweep's simulated counts, and the exact/sampled
/// rollup pair behind the accuracy figures. registry-sampled's only exact
/// reference is the tiny golden sweep; mobilenet-exact carries its own.
void record_outputs(JsonValue& doc, const Options& opt, const std::string& bytes,
                    const ModelTotals& model, const core::RollupReport& tiny_exact,
                    const core::RollupReport (&rollups)[2]) {
  doc.set("sim_digest", JsonValue(hex64(fnv1a(bytes))));
  doc.set("model", model.json());
  const bool registry = opt.workload == "registry-sampled";
  JsonValue pair = JsonValue::make_object();
  pair.set("exact", rollup_rows(registry ? tiny_exact : rollups[0]));
  pair.set("sampled", rollup_rows(registry ? rollups[0] : rollups[1]));
  doc.set("rollups", std::move(pair));
}

// --- untraced end-to-end run ----------------------------------------------

JsonValue run_untraced(const Options& opt, JsonValue& doc, Checks& checks,
                       const core::RollupReport& tiny_exact) {
  JsonValue reps = JsonValue::make_array();
  const fs::path store_dir = opt.work / "store";
  std::string first_bytes;
  std::uint64_t attempted = 0;
  ModelTotals model;
  core::RollupReport rollups[2];
  std::size_t unique_jobs = 0;
  std::unique_ptr<Prepared> last;
  const perfbench::HostProbe probe;
  doc.set("probe_threads", num(static_cast<double>(probe.threads())));
  const Clock::time_point begin = Clock::now();
  double last_wall = 0;
  bool failed = false;
  do {
    last.reset();
    auto p = std::make_unique<Prepared>(set_up(opt, store_dir));
    const std::size_t points = p->point_count();
    attempted += points;

    std::string bytes;
    const double cpu0 = cpu_seconds() - probe.cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    try {
      for (std::size_t s = 0; s < p->specs.size(); ++s) {
        const core::SweepReport report = core::run_sweep(p->specs[s], p->points[s], *p->pool,
                                                         p->cache.get());
        rollups[s] = core::compute_rollup(report);
        bytes += render(report, rollups[s]);
      }
    } catch (const std::exception& e) {
      checks.add("sweep", false, points, e.what());
      failed = true;
      break;
    }
    const Clock::time_point t1 = Clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    const double cpu = cpu_seconds() - probe.cpu_seconds() - cpu0;
    const perfbench::HostProbe::Window host = probe.window(t0, t1);
    last_wall = wall;

    // Simulated instructions of every unique measurement, from the cache.
    std::set<std::string> seen;
    std::uint64_t instructions = 0;
    model = ModelTotals{};
    for (std::size_t s = 0; s < p->specs.size(); ++s)
      for (const std::string& key : core::grid_keys(p->specs[s], p->points[s])) {
        if (!seen.insert(key).second) continue;
        const timing::TimingStats& stats = p->cache->find(key)->stats;
        instructions += stats.instructions;
        if (s == 0) model.add(stats);
      }
    unique_jobs = seen.size();

    if (first_bytes.empty())
      first_bytes = bytes;
    else if (bytes != first_bytes)
      checks.add("repeat_identical", false, points, "report bytes differ between repetitions");

    JsonValue rep = JsonValue::make_object();
    rep.set("wall_s", num(wall));
    rep.set("cpu_s", num(cpu));
    rep.set("points", num(static_cast<double>(points)));
    rep.set("instructions", num(static_cast<double>(instructions)));
    rep.set("peak_rss_kb", num(static_cast<double>(self_usage().ru_maxrss)));
    rep.set("probe_burst_s", num(host.mean_burst_s));
    rep.set("probe_samples", num(static_cast<double>(host.samples)));
    reps.push_back(std::move(rep));
    std::fprintf(stderr, "perfbench: sweep repetition %zu: %zu points in %.3f s\n",
                 reps.as_array().size(), points, wall);
    last = std::move(p);
    // Start another sweep only when it should end within the budget.
  } while (seconds_since(begin) + last_wall <= opt.seconds);

  if (!failed) {
    resume_check(*last, store_dir, unique_jobs, first_bytes, checks);
    record_outputs(doc, opt, first_bytes, model, tiny_exact, rollups);
  }
  fs::remove_all(store_dir);
  doc.set("attempted_points", num(static_cast<double>(attempted)));
  return reps;
}

// --- traced run -----------------------------------------------------------

/// The problem a job actually simulates: run_exact's full problem, or
/// run_sampled's miniature (reduced rows and column strips at full k depth,
/// fixed seed, markers on), mirrored from core/runner.cpp.
struct Simulated {
  kernels::GemmDims dims;
  std::uint32_t seed = 1;
  core::RunConfig config;
  std::uint64_t max_instructions = 2'000'000'000;
};

Simulated simulated_problem(const core::BatchJob& job) {
  Simulated s{job.dims, job.seed, job.config};
  if (job.mode == core::BatchJob::Mode::kExact) return s;
  const unsigned unroll = job.config.kernel.unroll;
  const std::size_t full_strips = job.dims.cols_b / isa::kVlMax;
  const std::size_t tail = job.dims.cols_b % isa::kVlMax;
  const std::size_t sample_full =
      std::min<std::size_t>(full_strips, std::max(1u, job.sample.sample_full_strips));
  s.dims.rows_a = std::min<std::size_t>(
      round_up(job.dims.rows_a, unroll),
      round_up(std::max(job.sample.sample_rows, unroll), unroll));
  s.dims.cols_b = (full_strips == 0 ? 0 : sample_full * isa::kVlMax) + tail;
  s.seed = 12345;
  s.config.kernel.emit_markers = true;
  s.max_instructions = job.sample.max_instructions;
  return s;
}

/// One simulated job of the sweep, with its phase-1 spans.
struct JobRecord {
  std::string key;
  std::size_t spec = 0;
  core::BatchJob job;
  core::BatchResult result;
  double span_s = 0, put_s = 0;
  std::string error;
};

/// Stage-by-stage replay of one job on fresh memory.
struct Replica {
  double span = 0, gen = 0, pack = 0, emit = 0, prepare = 0, fsim = 0, trace = 0, tsim = 0;
  std::uint64_t instructions = 0;
  std::string gen_key;
  bool stats_match = false, c_match = false;
};

double lap(Clock::time_point& t) {
  const Clock::time_point now = Clock::now();
  const double s = std::chrono::duration<double>(now - t).count();
  t = now;
  return s;
}

Replica replay(const core::BatchJob& job, const core::BatchResult& point) {
  Replica r;
  const Simulated sim = simulated_problem(job);
  const core::AlgorithmDescriptor& desc =
      core::AlgorithmRegistry::instance().by_algorithm(sim.config.algorithm);
  IMAC_CHECK(!desc.dense_operands, "the benchmark workloads use sparse kernel families only");
  const bool threaded = sim.config.engine == ExecEngine::kThreaded;
  r.gen_key = std::to_string(sim.dims.rows_a) + "x" + std::to_string(sim.dims.k) + "x" +
              std::to_string(sim.dims.cols_b) + "|" + workloads::sparsity_label(job.sp) + "|" +
              std::to_string(sim.seed);

  // The point's own call, timed as its span.
  Clock::time_point t = Clock::now();
  const core::BatchResult again = core::run_job(job);
  r.span = lap(t);

  const core::SpmmProblem problem = core::SpmmProblem::random(sim.dims, job.sp, sim.seed);
  r.gen = lap(t);

  // prepare's two children, called the way prepare calls them.
  AddressAllocator alloc;
  const kernels::SpmmLayout layout =
      kernels::make_layout(sim.dims, job.sp, sim.config.tile_rows, alloc);
  t = Clock::now();
  const auto packed = sparse::pack_a(
      problem.a, sparse::PackConfig{
                     .tile_rows = sim.config.tile_rows,
                     .mode = desc.index_mode,
                     .b_pitch_bytes = static_cast<std::uint32_t>(layout.b_pitch_elems * 4),
                     .base_vreg = kernels::b_tile_base_vreg(sim.config.tile_rows),
                 });
  r.pack = lap(t);
  const Program emitted = desc.emit({.layout = layout, .options = sim.config.kernel});
  r.emit = lap(t);
  IMAC_CHECK(packed.num_ktiles == layout.num_ktiles && emitted.size() > 0,
             "replayed pack/emit disagree with the layout");

  {  // functional block run to ebreak, no trace
    MainMemory mem;
    t = Clock::now();
    const core::PreparedRun run = core::prepare(problem, sim.config, mem);
    r.prepare = lap(t);
    Machine machine(run.program, mem);
    StopReason stop = StopReason::kRunning;
    if (threaded) {
      ThreadedEngine engine(machine);
      stop = engine.run(sim.max_instructions);
    } else {
      stop = machine.run(sim.max_instructions);
    }
    r.fsim = lap(t);
    IMAC_CHECK(stop == StopReason::kEbreak, "replica did not halt");
    r.instructions = machine.instructions_retired();
    r.c_match = bit_equal(core::read_c(run, mem), problem.reference());
  }
  std::uint64_t traced = 0;
  {  // the trace the timing model consumes, drained without the model
    MainMemory mem;
    const core::PreparedRun run = core::prepare(problem, sim.config, mem);
    Machine machine(run.program, mem);
    t = Clock::now();
    const std::unique_ptr<ThreadedEngine> engine =
        threaded ? std::make_unique<ThreadedEngine>(machine) : nullptr;
    timing::TraceSource source(machine, engine.get());
    timing::DynInst d;
    while (source.next(d)) ++traced;
    r.trace = lap(t);
  }
  timing::TimingStats stats;
  {  // the full timing run
    MainMemory mem;
    const core::PreparedRun run = core::prepare(problem, sim.config, mem);
    t = Clock::now();
    timing::TimingSim timing_sim(run.program, mem, job.processor, sim.config.engine);
    stats = timing_sim.run(sim.max_instructions);
    r.tsim = lap(t);
  }
  r.stats_match = same_stats(stats, point.stats) && same_stats(again.stats, point.stats) &&
                  traced == stats.instructions && r.instructions == stats.instructions;
  return r;
}

JsonValue numbers(const std::vector<double>& v) {
  JsonValue a = JsonValue::make_array();
  for (const double x : v) a.push_back(num(x));
  return a;
}

JsonValue run_traced(const Options& opt, JsonValue& doc, Checks& checks,
                     const core::RollupReport& tiny_exact) {
  const fs::path store_dir = opt.work / "store";
  Prepared p = set_up(opt, store_dir);
  const std::size_t workers = p.pool->thread_count();

  // Phase 1: the sweep itself, one span per job and per journal write.
  std::vector<JobRecord> jobs;
  std::set<std::string> seen;
  for (std::size_t s = 0; s < p.specs.size(); ++s) {
    const std::vector<std::string> keys = core::grid_keys(p.specs[s], p.points[s]);
    for (std::size_t i = 0; i < keys.size(); ++i)
      if (seen.insert(keys[i]).second) {
        JobRecord& rec = jobs.emplace_back();
        rec.key = keys[i];
        rec.spec = s;
        rec.job = core::point_job(p.specs[s], p.points[s][i]);
      }
  }
  double wall = 0, report_s = 0;
  std::string bytes;
  std::map<std::string, core::StoredResult> merged;
  core::RollupReport rollups[2];
  std::uint64_t failed_jobs = 0;
  for (std::size_t s = 0; s < p.specs.size(); ++s) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::pair<JobRecord*, std::future<void>>> futures;
    for (JobRecord& rec : jobs) {
      if (rec.spec != s) continue;
      futures.emplace_back(&rec, p.pool->submit([&rec, &p] {
        const Clock::time_point a = Clock::now();
        rec.result = core::run_job(rec.job);
        const Clock::time_point b = Clock::now();
        p.store->put(rec.key, {rec.result.cycles, rec.result.data_accesses});
        rec.span_s = std::chrono::duration<double>(b - a).count();
        rec.put_s = seconds_since(b);
      }));
    }
    for (auto& [rec, future] : futures) {
      try {
        future.get();
        merged.emplace(rec->key,
                       core::StoredResult{rec->result.cycles, rec->result.data_accesses});
      } catch (const std::exception& e) {
        rec->error = e.what();
        ++failed_jobs;
      }
    }
    wall += seconds_since(t0);
    if (failed_jobs != 0) continue;
    const core::SweepReport report = core::assemble_report(p.specs[s], merged);
    const Clock::time_point r0 = Clock::now();
    rollups[s] = core::compute_rollup(report);
    bytes += render(report, rollups[s]);
    report_s += seconds_since(r0);
  }
  checks.add("points_ran", failed_jobs == 0, failed_jobs,
             std::to_string(failed_jobs) + " of " + std::to_string(jobs.size()) +
                 " simulated jobs threw");
  p.cache.reset();
  p.store.reset();

  const Clock::time_point replay0 = Clock::now();
  const std::size_t replayed = core::ResultStore(store_dir.string()).size();
  const double replay_s = seconds_since(replay0);
  const auto journal_bytes = fs::file_size(store_dir / core::ResultStore::kJournalName);
  checks.add("journal_replay", replayed == jobs.size() - failed_jobs, 0,
             std::to_string(replayed) + " records replayed");

  // Phase 2: every simulated job replayed stage by stage on the same pool.
  std::vector<std::future<Replica>> replica_futures;
  for (const JobRecord& rec : jobs)
    if (rec.error.empty())
      replica_futures.push_back(
          p.pool->submit([&rec] { return replay(rec.job, rec.result); }));
  JsonValue replicas = JsonValue::make_array();
  std::uint64_t stats_mismatch = 0, c_mismatch = 0, replica_errors = 0;
  std::size_t f = 0;
  for (const JobRecord& rec : jobs) {
    if (!rec.error.empty()) continue;
    Replica r;
    try {
      r = replica_futures[f++].get();
    } catch (const std::exception& e) {
      ++replica_errors;
      std::fprintf(stderr, "perfbench: replica of %s threw: %s\n", rec.key.c_str(), e.what());
      continue;
    }
    stats_mismatch += r.stats_match ? 0 : 1;
    c_mismatch += r.c_match ? 0 : 1;
    JsonValue o = JsonValue::make_object();
    const bool exact = rec.job.mode == core::BatchJob::Mode::kExact;
    o.set("mode", JsonValue(std::string(exact ? "exact" : "sampled")));
    o.set("span", num(r.span));
    o.set("gen", num(r.gen));
    o.set("pack", num(r.pack));
    o.set("emit", num(r.emit));
    o.set("prepare", num(r.prepare));
    o.set("fsim", num(r.fsim));
    o.set("trace", num(r.trace));
    o.set("tsim", num(r.tsim));
    o.set("instructions", num(static_cast<double>(r.instructions)));
    o.set("gen_key", JsonValue(r.gen_key));
    replicas.push_back(std::move(o));
  }
  checks.add("replica_stats", stats_mismatch + replica_errors == 0,
             stats_mismatch + replica_errors,
             std::to_string(stats_mismatch) + " replicas with different TimingStats, " +
                 std::to_string(replica_errors) + " threw");
  checks.add("replica_c", c_mismatch == 0, c_mismatch,
             std::to_string(c_mismatch) + " replicas whose C differs from the reference");

  ModelTotals model;
  std::vector<double> job_s, put_s;
  double busy_s = 0;
  for (const JobRecord& rec : jobs) {
    if (!rec.error.empty()) continue;
    busy_s += rec.span_s + rec.put_s;
    put_s.push_back(rec.put_s);
    if (rec.spec != 0) continue;
    job_s.push_back(rec.span_s);
    model.add(rec.result.stats);
  }
  JsonValue t = JsonValue::make_object();
  t.set("wall_s", num(wall));
  t.set("workers", num(workers));
  t.set("busy_s", num(busy_s));
  t.set("job_s", numbers(job_s));
  t.set("put_s", numbers(put_s));
  t.set("report_s", num(report_s));
  t.set("replay_s", num(replay_s));
  t.set("journal_bytes", num(static_cast<double>(journal_bytes)));
  t.set("replicas", std::move(replicas));
  fs::remove_all(store_dir);

  record_outputs(doc, opt, bytes, model, tiny_exact, rollups);
  doc.set("attempted_points", num(static_cast<double>(p.point_count())));
  return t;
}

int run(const Options& opt, Clock::time_point process_start) {
  if (opt.setup_only) {
    const fs::path dir = opt.work / "setup";
    double setup_s = 0;
    {
      const Prepared p = set_up(opt, dir);
      setup_s = seconds_since(process_start);
    }
    fs::remove_all(dir);
    JsonValue doc = JsonValue::make_object();
    doc.set("setup_s", num(setup_s));
    std::printf("%s\n", doc.dump().c_str());
    return 0;
  }

  JsonValue doc = JsonValue::make_object();
  doc.set("workload", JsonValue(opt.workload));
  doc.set("seed", num(opt.seed));
  doc.set("trace", JsonValue(opt.trace));
  doc.set("build_type", JsonValue(std::string(PERFBENCH_BUILD_TYPE)));
  doc.set("compiler", JsonValue(std::string(PERFBENCH_COMPILER)));
  doc.set("ndebug", JsonValue(kNdebug));
  doc.set("nproc", num(std::thread::hardware_concurrency()));
  doc.set("pool_width", num(pool_width()));

  const std::vector<std::string> specs = workload_specs(opt.workload, opt.seed);
  const ExecEngine engine = core::parse_sweep_spec(specs.front()).engine;
  doc.set("engine", JsonValue(std::string(exec_engine_name(engine))));

  Checks checks;
  std::uint64_t golden_points = 0;
  const core::RollupReport tiny_exact = golden_check(opt, engine, checks, golden_points);
  if (opt.trace) doc.set("traced", run_traced(opt, doc, checks, tiny_exact));
  else doc.set("reps", run_untraced(opt, doc, checks, tiny_exact));
  doc.set("golden_points", num(static_cast<double>(golden_points)));
  doc.set("failed_points", num(static_cast<double>(checks.failed_points)));
  doc.set("checks", std::move(checks.list));
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  if (!kNdebug) {
    std::fprintf(stderr,
                 "sweep_bench: refusing to measure a build without NDEBUG "
                 "(build type \"%s\"); configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  try {
    return run(parse_args(argc, argv), process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_bench: %s\n", e.what());
    return 1;
  }
}
