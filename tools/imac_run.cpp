// imac-run: the simulator's command-line front end. Each subcommand is one
// row of kCommands at the bottom of this file; tools/cli.h parses argv
// against the row and renders its --help.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "asm/text_assembler.h"
#include "cli.h"
#include "common/error.h"
#include "common/format.h"
#include "core/algorithm_registry.h"
#include "core/batch.h"
#include "core/result_store.h"
#include "core/rollup.h"
#include "core/sweep.h"
#include "debug/gdb_server.h"
#include "fsim/engine.h"
#include "fsim/machine.h"
#include "fsim/threaded.h"
#include "fsim/tracer.h"
#include "serve/worker.h"
#include "timing/timing_sim.h"
#include "workloads/model_import.h"
#include "workloads/workloads.h"

namespace {

namespace cli = indexmac::cli;

/// SIGINT/SIGTERM flag for the graceful-shutdown paths (sweep, worker).
/// An atomic store is the only thing the handler does — async-signal-safe.
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

void install_stop_handlers() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

/// --threads N, shared by run and sweep.
constexpr cli::Flag kThreadsFlag{
    "--threads", "N",
    "worker-pool width for batched work, 1 to 1024: the same rule as the "
    "INDEXMAC_THREADS environment variable, over which it wins"};

void apply_threads(const cli::Args& args) {
  using indexmac::core::BatchRunner;
  if (const char* threads = args.get("--threads"))
    BatchRunner::set_thread_override(BatchRunner::parse_thread_count(threads, "--threads"));
}

void dump_registers(const indexmac::ArchState& state) {
  std::printf("\nregisters:\n");
  for (unsigned r = 0; r < 32; r += 4) {
    for (unsigned i = r; i < r + 4; ++i)
      std::printf("  x%-2u=%-16llx", i, static_cast<unsigned long long>(state.x[i]));
    std::printf("\n");
  }
  std::printf("  vl=%u\n", state.vl);
}

/// The engine --engine names (parse_exec_engine raises listing the names).
indexmac::ExecEngine engine_flag(const cli::Args& args) {
  const char* engine = args.get("--engine");
  return engine == nullptr ? indexmac::ExecEngine::kInterp : indexmac::parse_exec_engine(engine);
}

/// The one .s operand of run and gdb, assembled.
indexmac::AssembledText assemble_operand(const cli::Args& args) {
  if (args.operands().empty()) throw indexmac::UsageError("a .s program file is required");
  return indexmac::assemble_text(indexmac::read_text_file(args.operands()[0]));
}

int cmd_run(const cli::Args& args) {
  using namespace indexmac;
  const bool timing = args.has("--timing");
  const bool trace = args.has("--trace");
  const std::uint64_t max_steps = args.uint("--max-steps", 100'000'000);
  const ExecEngine engine = engine_flag(args);
  apply_threads(args);
  // The Tracer drives Machine::step itself; silently ignoring --engine
  // would misreport what executed.
  if (trace && engine == ExecEngine::kThreaded)
    throw UsageError("--trace requires --engine interp");
  // The timed run prints statistics, not an instruction trace; silently
  // ignoring --trace would hide that nothing was traced.
  if (trace && timing) throw UsageError("--trace cannot be combined with --timing");

  const AssembledText assembled = assemble_operand(args);
  std::printf("assembled %zu instructions at 0x%llx\n", assembled.program.size(),
              static_cast<unsigned long long>(assembled.program.base()));

  MainMemory mem;
  if (timing) {
    timing::TimingSim sim(assembled.program, mem, timing::ProcessorConfig{});
    const timing::TimingStats& stats = sim.run(max_steps);
    std::printf("cycles: %llu  instructions: %llu  IPC: %.2f\n",
                static_cast<unsigned long long>(stats.cycles),
                static_cast<unsigned long long>(stats.instructions), stats.ipc());
    std::printf("vector: %llu instrs (%llu loads, %llu stores, %llu MACs, %llu moves)\n",
                static_cast<unsigned long long>(stats.vector_instructions),
                static_cast<unsigned long long>(stats.vector_loads),
                static_cast<unsigned long long>(stats.vector_stores),
                static_cast<unsigned long long>(stats.vector_macs),
                static_cast<unsigned long long>(stats.vector_to_scalar_moves));
    std::printf("memory: %llu data accesses, %llu DRAM lines\n",
                static_cast<unsigned long long>(stats.mem.data_accesses()),
                static_cast<unsigned long long>(stats.mem.dram_lines));
    std::printf("dispatch stalls: operand %llu, branch %llu, queue %llu, bandwidth %llu\n",
                static_cast<unsigned long long>(stats.dispatch_stalls.scalar_operand),
                static_cast<unsigned long long>(stats.dispatch_stalls.branch_shadow),
                static_cast<unsigned long long>(stats.dispatch_stalls.queue_full),
                static_cast<unsigned long long>(stats.dispatch_stalls.bandwidth));
  } else {
    Machine machine(assembled.program, mem);
    StopReason stop;
    if (trace) {
      Tracer tracer(machine);
      stop = tracer.run(std::cout, max_steps);
    } else if (engine == ExecEngine::kThreaded) {
      ThreadedEngine threaded(machine);
      stop = threaded.run(max_steps);
    } else {
      stop = machine.run(max_steps);
    }
    const char* why = stop == StopReason::kEbreak   ? "ebreak"
                      : stop == StopReason::kEcall  ? "ecall"
                                                    : "max-steps";
    std::printf("stopped: %s after %llu instructions\n", why,
                static_cast<unsigned long long>(machine.instructions_retired()));
    if (args.has("--dump-regs")) dump_registers(machine.state());
  }
  return 0;
}

/// Writes a rendered report to --out or stdout; returns the exit code.
int write_report(const std::string& rendered, const char* out_path, std::size_t rows) {
  indexmac::write_text_file(out_path == nullptr ? "" : out_path, rendered);
  if (out_path != nullptr) std::fprintf(stderr, "wrote %zu rows to %s\n", rows, out_path);
  return 0;
}

/// Registers every --import checkpoint. Specs name the model, so this
/// must run before the spec parses (parse_sweep_spec rejects unknown suite
/// names).
void import_checkpoints(const cli::Args& args) {
  using namespace indexmac;
  for (const char* dir : args.all("--import")) {
    workloads::register_model(workloads::import_model(dir));
    std::fprintf(stderr, "imported %s\n", dir);
  }
}

/// The --spec every sweep-shaped subcommand requires.
const char* required_spec(const cli::Args& args) {
  const char* spec_path = args.get("--spec");
  if (spec_path == nullptr) throw indexmac::UsageError("--spec is required");
  return spec_path;
}

int cmd_sweep(const cli::Args& args) {
  using namespace indexmac;
  const char* store_dir = args.get("--store");
  const bool resume = args.has("--resume");
  const bool fsync_each = args.has("--fsync");
  const bool json = cli::json_format(args);
  apply_threads(args);
  const char* spec_path = required_spec(args);
  if (resume && store_dir == nullptr) throw UsageError("--resume requires --store DIR");
  if (fsync_each && store_dir == nullptr) throw UsageError("--fsync requires --store DIR");

  import_checkpoints(args);
  const core::SweepSpec spec = core::parse_sweep_spec_file(spec_path);
  std::vector<core::SweepPoint> points = core::expand_sweep(spec);
  const std::size_t full_grid = points.size();
  if (const char* shard_text = args.get("--shard")) {
    const core::ShardSpec shard = core::parse_shard(shard_text);
    points = core::filter_shard(spec, points, shard);
    std::fprintf(stderr, "shard %u/%u owns %zu of %zu points\n", shard.index, shard.count,
                 points.size(), full_grid);
  }

  // The store (when given) backs the sweep cache: every completed point is
  // journaled as it finishes, and --resume additionally serves journaled
  // points without re-simulation.
  std::unique_ptr<core::ResultStore> store;
  core::SweepCache cache;
  if (store_dir != nullptr) {
    store = std::make_unique<core::ResultStore>(
        store_dir, fsync_each ? core::Durability::kFsyncEach : core::Durability::kFlush);
    cache.attach_store(*store, resume);
    if (store->dropped_bytes() > 0)
      std::fprintf(stderr, "store %s: recovered (dropped %llu corrupt tail bytes)\n",
                   store->journal_path().c_str(),
                   static_cast<unsigned long long>(store->dropped_bytes()));
    std::fprintf(stderr, "store %s: %llu journaled results%s\n", store->journal_path().c_str(),
                 static_cast<unsigned long long>(store->loaded()),
                 resume ? " (resuming)" : "");
  }

  core::BatchRunner pool;
  std::fprintf(stderr, "sweep %s: %zu points on %u threads\n", spec.name.c_str(), points.size(),
               pool.thread_count());
  install_stop_handlers();
  try {
    const core::SweepReport report = core::run_sweep(spec, points, pool, &cache, &g_stop);
    if (store != nullptr)
      std::fprintf(stderr, "store: %llu new simulations journaled (%llu already on disk)\n",
                   static_cast<unsigned long long>(store->appended()),
                   static_cast<unsigned long long>(store->loaded()));
    std::string rendered;
    if (args.has("--rollup")) {
      const core::RollupReport totals = core::compute_rollup(report);
      rendered = json ? core::report_to_json_with_rollup(report, totals)
                      : core::report_to_csv(report) + core::rollup_to_csv(totals);
    } else {
      rendered = json ? core::report_to_json(report) : core::report_to_csv(report);
    }
    return write_report(rendered, args.get("--out"), report.rows.size());
  } catch (const core::BatchCancelled&) {
    // Graceful interrupt: in-flight points finished and (with --store)
    // journaled before we got here; queued points were skipped. No report
    // is written — a partial grid must never render as a complete one.
    if (store != nullptr) {
      std::fprintf(stderr,
                   "sweep %s: interrupted; %llu completed points journaled to %s\n"
                   "resumable: rerun with --resume to simulate only the missing points\n",
                   spec.name.c_str(), static_cast<unsigned long long>(store->appended()),
                   store->journal_path().c_str());
    } else {
      std::fprintf(stderr,
                   "sweep %s: interrupted; completed points were DISCARDED (no --store)\n"
                   "hint: rerun with --store DIR to make interrupted sweeps resumable\n",
                   spec.name.c_str());
    }
    return 130;
  }
}

int cmd_gdb(const cli::Args& args) {
  using namespace indexmac;
  debug::GdbServerOptions opts;
  opts.port = static_cast<std::uint16_t>(
      args.uint("--port", 0, std::numeric_limits<std::uint16_t>::max()));
  opts.port_file = args.get("--port-file", "");
  opts.engine = engine_flag(args);
  opts.quiet = args.has("--quiet");
  const AssembledText assembled = assemble_operand(args);

  MainMemory mem;
  install_stop_handlers();
  opts.stop = &g_stop;
  return debug::run_gdb_server(assembled, mem, opts);
}

int cmd_worker(const cli::Args& args) {
  using namespace indexmac;
  serve::WorkerOptions opts;
  if (const char* host = args.get("--host")) opts.host = host;
  if (const char* name = args.get("--name")) opts.name = name;
  opts.port = static_cast<std::uint16_t>(
      args.uint("--port", 0, std::numeric_limits<std::uint16_t>::max()));
  opts.heartbeat_ms = args.uint("--heartbeat-ms", opts.heartbeat_ms);
  opts.poll_ms = args.uint("--poll-ms", opts.poll_ms);
  opts.backoff_base_ms = args.uint("--backoff-base-ms", opts.backoff_base_ms);
  opts.backoff_cap_ms = args.uint("--backoff-cap-ms", opts.backoff_cap_ms);
  opts.give_up_ms = args.uint("--give-up-ms", opts.give_up_ms);
  opts.quiet = args.has("--quiet");
  const auto chaos_hook = [&](const char* flag, long& after) {
    if (args.has(flag))
      after = static_cast<long>(args.uint(flag, 0, std::numeric_limits<long>::max()));
  };
  chaos_hook("--chaos-kill-after", opts.chaos.kill_after);
  chaos_hook("--chaos-drop-after", opts.chaos.drop_after);
  chaos_hook("--chaos-stall-after", opts.chaos.stall_after);
  opts.chaos.stall_ms = args.uint("--chaos-stall-ms", opts.chaos.stall_ms);
  const char* port_file = args.get("--port-file");
  if ((opts.port == 0) == (port_file == nullptr))
    throw UsageError("exactly one of --port/--port-file is required");
  if (port_file != nullptr) {
    // The daemon writes its (possibly kernel-assigned) port here right
    // after binding; wait for it so harnesses can start both in parallel.
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(opts.give_up_ms);
    for (;;) {
      std::ifstream pf(port_file);
      unsigned long port = 0;
      if (pf >> port && port > 0 && port <= 65535) {
        opts.port = static_cast<std::uint16_t>(port);
        break;
      }
      if (std::chrono::steady_clock::now() > give_up) {
        std::fprintf(stderr, "imac_run worker: no usable port in %s after --give-up-ms\n",
                     port_file);
        return 3;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  install_stop_handlers();
  opts.stop = &g_stop;
  return serve::run_worker(opts);
}

int cmd_merge(const cli::Args& args) {
  using namespace indexmac;
  const std::vector<const char*> store_dirs = args.all("--store");
  const bool json = cli::json_format(args);
  const char* spec_path = required_spec(args);
  if (store_dirs.empty() && args.operands().empty())
    throw UsageError("nothing to merge (give --store DIR and/or shard CSVs)");

  import_checkpoints(args);
  const core::SweepSpec spec = core::parse_sweep_spec_file(spec_path);
  std::map<std::string, core::StoredResult> merged;
  for (const char* dir : store_dirs) {
    const core::ResultStore store(dir);
    core::accumulate_results(store, merged);
    std::fprintf(stderr, "merged store %s: %zu results\n", store.journal_path().c_str(),
                 store.size());
  }
  for (const char* path : args.operands()) {
    const core::SweepReport shard = core::parse_csv_report(read_text_file(path));
    core::accumulate_results(spec, shard, merged);
    std::fprintf(stderr, "merged report %s: %zu rows\n", path, shard.rows.size());
  }

  const core::SweepReport report = core::assemble_report(spec, merged);
  const std::string rendered = json ? core::report_to_json(report) : core::report_to_csv(report);
  return write_report(rendered, args.get("--out"), report.rows.size());
}

/// Machine-readable suite facts: the fields tooling keys sweeps off
/// (satellite of the model-IR refactor). One object per suite, or layer
/// detail (kind, geometry, sparsity profile) when a suite is named.
indexmac::JsonValue suite_json(const indexmac::workloads::ModelGraph& graph,
                               bool with_layers) {
  using namespace indexmac;
  JsonValue o = JsonValue::make_object();
  o.set("name", JsonValue(graph.name));
  o.set("display_name", JsonValue(graph.display_name));
  o.set("description", JsonValue(graph.description));
  o.set("layers", JsonValue(static_cast<double>(graph.layer_count())));
  o.set("workloads", JsonValue(static_cast<double>(graph.layers.size())));
  o.set("total_macs", JsonValue(static_cast<double>(graph.total_macs())));
  JsonValue sparsities = JsonValue::make_array();
  for (const auto sp : graph.default_sparsities)
    sparsities.push_back(JsonValue(workloads::sparsity_label(sp)));
  o.set("sparsities", std::move(sparsities));
  o.set("measured", JsonValue(graph.measured));
  if (!with_layers) return o;
  JsonValue layers = JsonValue::make_array();
  for (const workloads::LayerRecord& layer : graph.layers) {
    JsonValue l = JsonValue::make_object();
    l.set("name", JsonValue(layer.name));
    l.set("kind", JsonValue(std::string(workloads::layer_kind_id(layer.kind))));
    l.set("rows", JsonValue(static_cast<double>(layer.gemm.rows_a)));
    l.set("k", JsonValue(static_cast<double>(layer.gemm.k)));
    l.set("cols", JsonValue(static_cast<double>(layer.gemm.cols_b)));
    l.set("repeat", JsonValue(static_cast<double>(layer.repeat)));
    l.set("macs", JsonValue(static_cast<double>(layer.macs())));
    l.set("sparsity", JsonValue(workloads::sparsity_label(layer.sparsity.pattern)));
    l.set("measured", JsonValue(layer.sparsity.measured));
    l.set("density", JsonValue(layer.sparsity.density));
    l.set("nm_conformity", JsonValue(layer.sparsity.nm_conformity));
    l.set("row_imbalance", JsonValue(layer.sparsity.row_imbalance));
    layers.push_back(std::move(l));
  }
  o.set("layer_records", std::move(layers));
  return o;
}

int cmd_list_workloads(const cli::Args& args) {
  using namespace indexmac;
  const char* suite_name = args.operands().empty() ? nullptr : args.operands()[0];
  if (args.has("--json")) {
    if (suite_name != nullptr) {
      std::printf("%s\n", suite_json(workloads::model_graph(suite_name), true).dump().c_str());
      return 0;
    }
    JsonValue doc = JsonValue::make_array();
    for (const std::string& name : workloads::suite_names())
      doc.push_back(suite_json(workloads::model_graph(name), false));
    std::printf("%s\n", doc.dump().c_str());
    return 0;
  }
  if (suite_name != nullptr) {
    const workloads::ModelGraph& graph = workloads::model_graph(suite_name);
    std::printf("%s: %s\n\n", graph.name.c_str(), graph.description.c_str());
    TextTable table;
    table.set_header({"workload", "GEMM (RxKxN)", "count", "MMACs"});
    for (const workloads::LayerRecord& layer : graph.layers)
      table.add_row({layer.name,
                     std::to_string(layer.gemm.rows_a) + "x" + std::to_string(layer.gemm.k) +
                         "x" + std::to_string(layer.gemm.cols_b),
                     std::to_string(layer.repeat),
                     fmt_fixed(static_cast<double>(layer.macs()) / 1e6, 1)});
    std::printf("%s", table.to_string().c_str());
    return 0;
  }
  TextTable table;
  table.set_header({"suite", "workloads", "layers", "GMACs", "sparsities", "description"});
  for (const std::string& name : workloads::suite_names()) {
    const workloads::ModelGraph& graph = workloads::model_graph(name);
    std::string sparsities;
    for (const auto sp : graph.default_sparsities) {
      if (!sparsities.empty()) sparsities += ' ';
      sparsities += workloads::sparsity_label(sp);
    }
    table.add_row({graph.name, std::to_string(graph.layers.size()),
                   std::to_string(graph.layer_count()),
                   fmt_fixed(static_cast<double>(graph.total_macs()) / 1e9, 2), sparsities,
                   graph.description});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_list_algorithms(const cli::Args& /*args*/) {
  using namespace indexmac;
  TextTable table;
  table.set_header({"id", "name", "role", "sampled", "description"});
  for (const core::AlgorithmDescriptor& d : core::AlgorithmRegistry::instance().all())
    table.add_row({d.id, d.display_name, core::pairing_role_name(d.pairing),
                   d.supports_sampled ? "yes" : "no", d.description});
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_import_model(const cli::Args& args) {
  using namespace indexmac;
  if (args.operands().empty()) throw UsageError("checkpoint directory is required");
  const char* dir = args.operands()[0];
  const workloads::ModelGraph graph = workloads::import_model(dir);
  if (args.has("--json")) {
    std::printf("%s\n", suite_json(graph, true).dump().c_str());
    return 0;
  }
  std::printf("%s (%s): %zu layers, %.2f GMACs\n\n", graph.name.c_str(),
              graph.display_name.c_str(), graph.layer_count(),
              static_cast<double>(graph.total_macs()) / 1e9);
  TextTable table;
  table.set_header({"layer", "kind", "GEMM (RxKxN)", "repeat", "pattern", "density",
                    "conformity", "imbalance"});
  for (const workloads::LayerRecord& layer : graph.layers)
    table.add_row({layer.name, workloads::layer_kind_id(layer.kind),
                   std::to_string(layer.gemm.rows_a) + "x" + std::to_string(layer.gemm.k) +
                       "x" + std::to_string(layer.gemm.cols_b),
                   std::to_string(layer.repeat),
                   workloads::sparsity_label(layer.sparsity.pattern),
                   fmt_fixed(layer.sparsity.density, 4),
                   fmt_fixed(layer.sparsity.nm_conformity, 4),
                   fmt_fixed(layer.sparsity.row_imbalance, 4)});
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nsweep it: imac_run sweep --import %s --spec spec.json with \"workloads\": "
      "[\"%s\"]\n",
      dir, graph.name.c_str());
  return 0;
}

/// The measurements of one report line, slotted by registry pairing role.
template <typename Row>
struct Pair {
  const Row* baseline = nullptr;
  const Row* proposed = nullptr;
  const Row* proposed_v2 = nullptr;
  const Row* any = nullptr;
};

/// Pairs baseline/proposed/proposed-v2 rows that share `key_of(row)`
/// (everything but the paired algorithm) into one line each, in
/// first-occurrence order. Standalone families (dense, ssr) get their id
/// folded into the key, so every one keeps its own line instead of
/// vanishing behind a pair.
template <typename Row, typename KeyFn, typename AlgorithmFn>
std::vector<Pair<Row>> pair_by_role(const std::vector<Row>& rows, KeyFn key_of,
                                    AlgorithmFn algorithm_of) {
  using namespace indexmac;
  std::vector<Pair<Row>> pairs;
  std::map<std::string, std::size_t> index;
  for (const Row& row : rows) {
    const core::AlgorithmDescriptor& desc =
        core::AlgorithmRegistry::instance().by_algorithm(algorithm_of(row));
    std::string key = key_of(row);
    if (desc.pairing == core::PairingRole::kStandalone) key += "|" + desc.id;
    const auto [it, inserted] = index.try_emplace(key, pairs.size());
    if (inserted) pairs.emplace_back();
    Pair<Row>& pair = pairs[it->second];
    pair.any = &row;
    switch (desc.pairing) {
      case core::PairingRole::kBaseline: pair.baseline = &row; break;
      case core::PairingRole::kProposed: pair.proposed = &row; break;
      case core::PairingRole::kProposedV2: pair.proposed_v2 = &row; break;
      case core::PairingRole::kStandalone: break;
    }
  }
  return pairs;
}

/// The --rollup report view: whole-network totals per (suite x sparsity x
/// config), algorithms paired into speedup columns like the per-point view.
int print_rollup_report(const indexmac::core::SweepReport& report) {
  using namespace indexmac;
  const core::RollupReport totals = core::compute_rollup(report);
  const auto pairs = pair_by_role(
      totals.rows,
      [](const core::RollupRow& row) {
        return row.suite + "|" + workloads::sparsity_label(row.sp) + "|u" +
               std::to_string(row.unroll) + "|df" +
               std::to_string(static_cast<int>(row.dataflow)) + "|L" +
               std::to_string(row.tile_rows) + "|" + core::sweep_mode_name(row.mode);
      },
      [](const core::RollupRow& row) { return row.algorithm; });

  std::printf("sweep %s: network rollup (%zu groups)\n\n", report.spec_name.c_str(),
              totals.rows.size());
  TextTable table;
  table.set_header({"suite", "sparsity", "unroll", "algorithm", "layers", "net cycles",
                    "net accesses", "energy (bytes)", "speedup"});
  for (const Pair<core::RollupRow>& pair : pairs) {
    const core::RollupRow& shown = pair.proposed != nullptr ? *pair.proposed : *pair.any;
    std::string speedup = "-";
    if (pair.baseline != nullptr && pair.proposed != nullptr)
      speedup = fmt_speedup(pair.baseline->cycles / pair.proposed->cycles);
    table.add_row({shown.suite, workloads::sparsity_label(shown.sp),
                   std::to_string(shown.unroll),
                   core::AlgorithmRegistry::instance().by_algorithm(shown.algorithm).id,
                   std::to_string(shown.layers), fmt_fixed(shown.cycles, 0),
                   fmt_count(shown.data_accesses), fmt_count(shown.energy_proxy_bytes()),
                   speedup});
    if (pair.proposed_v2 != nullptr) {
      const core::RollupRow* v2_base =
          pair.proposed != nullptr ? pair.proposed : pair.baseline;
      const core::RollupRow& v2 = *pair.proposed_v2;
      table.add_row({v2.suite, workloads::sparsity_label(v2.sp), std::to_string(v2.unroll),
                     core::AlgorithmRegistry::instance().by_algorithm(v2.algorithm).id,
                     std::to_string(v2.layers), fmt_fixed(v2.cycles, 0),
                     fmt_count(v2.data_accesses), fmt_count(v2.energy_proxy_bytes()),
                     v2_base != nullptr ? fmt_speedup(v2_base->cycles / v2.cycles) : "-"});
    }
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_report(const cli::Args& args) {
  using namespace indexmac;
  if (args.operands().empty()) throw UsageError("a sweep CSV file is required");
  const core::SweepReport report =
      core::parse_csv_report(read_text_file(args.operands()[0]));
  if (args.has("--rollup")) return print_rollup_report(report);

  const auto pairs = pair_by_role(
      report.rows,
      [](const core::SweepRow& row) {
        const core::SweepPoint& p = row.point;
        return p.suite + "|" + p.workload + "|" + workloads::sparsity_label(p.sp) + "|u" +
               std::to_string(p.config.kernel.unroll) + "|df" +
               std::to_string(static_cast<int>(p.config.kernel.dataflow)) + "|L" +
               std::to_string(p.config.tile_rows) + "|" + core::sweep_mode_name(p.mode) + "|" +
               std::to_string(p.dims.rows_a) + "x" + std::to_string(p.dims.k) + "x" +
               std::to_string(p.dims.cols_b);
      },
      [](const core::SweepRow& row) { return row.point.config.algorithm; });
  bool any_v2 = false;
  for (const Pair<core::SweepRow>& pair : pairs) any_v2 = any_v2 || pair.proposed_v2 != nullptr;

  std::printf("sweep %s (%zu rows)\n\n", report.spec_name.c_str(), report.rows.size());
  TextTable table;
  std::vector<std::string> header = {"suite",  "workload", "GEMM (RxKxN)",
                                     "sparsity", "dataflow", "unroll", "algorithm",
                                     "cycles", "accesses", "speedup"};
  if (any_v2) {
    header.push_back("v2 cycles");
    header.push_back("v2 speedup");
  }
  table.set_header(header);
  for (const Pair<core::SweepRow>& pair : pairs) {
    const core::SweepRow& base = *pair.any;
    const core::SweepPoint& p = base.point;
    std::string speedup = "-";
    std::string cycles;
    if (pair.baseline != nullptr && pair.proposed != nullptr) {
      speedup = fmt_speedup(pair.baseline->cycles / pair.proposed->cycles);
      cycles = fmt_fixed(pair.proposed->cycles, 0);
    } else {
      cycles = fmt_fixed(base.cycles, 0);
    }
    const core::SweepRow& shown =
        pair.proposed != nullptr ? *pair.proposed : *pair.any;
    std::vector<std::string> cells = {
        p.suite, p.workload,
        std::to_string(p.dims.rows_a) + "x" + std::to_string(p.dims.k) + "x" +
            std::to_string(p.dims.cols_b),
        workloads::sparsity_label(p.sp), kernels::dataflow_id(p.config.kernel.dataflow),
        std::to_string(p.config.kernel.unroll),
        core::AlgorithmRegistry::instance().by_algorithm(shown.point.config.algorithm).id,
        cycles, fmt_count(shown.data_accesses), speedup};
    if (any_v2) {
      // v2 speedup is measured against the strongest available baseline:
      // Algorithm 3 when present, else Algorithm 2.
      const core::SweepRow* v2_base =
          pair.proposed != nullptr ? pair.proposed : pair.baseline;
      cells.push_back(pair.proposed_v2 != nullptr ? fmt_fixed(pair.proposed_v2->cycles, 0) : "-");
      cells.push_back(pair.proposed_v2 != nullptr && v2_base != nullptr
                          ? fmt_speedup(v2_base->cycles / pair.proposed_v2->cycles)
                          : "-");
    }
    table.add_row(cells);
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}


const cli::Flag kRunFlags[] = {
    {"--timing", nullptr, "run on the cycle-level timing model"},
    {"--trace", nullptr, "print each executed instruction (functional mode; not with --timing)"},
    {"--max-steps", "N", "stop after N instructions (default 100000000)"},
    {"--dump-regs", nullptr, "print architectural registers on exit"},
    {"--engine", "E",
     "functional engine: \"interp\" (default) or \"threaded\" (predecoded threaded code; "
     "identical results, faster; --trace requires interp). No effect with --timing, which "
     "always runs on the threaded engine's block trace"},
    kThreadsFlag,
};

const cli::Flag kSweepFlags[] = {
    {"--spec", "FILE", "sweep spec JSON (required)"},
    {"--out", "FILE", "write the report here (default stdout)"},
    cli::kFormatFlag,
    kThreadsFlag,
    {"--store", "DIR",
     "journal every completed point to DIR/results.journal (append-only, CRC-checked; "
     "survives a killed run)"},
    {"--resume", nullptr,
     "with --store: serve already-journaled points from the store and simulate only what is "
     "missing"},
    {"--fsync", nullptr,
     "with --store: fsync the journal after every record (survives power loss, not just "
     "process death)"},
    {"--shard", "i/N",
     "run only shard i of N: points are partitioned by digest (fnv1a(key) % N == i-1), so N "
     "processes with disjoint shards cover the grid exactly once"},
    {"--import", "DIR",
     "register the checkpoint in DIR (see import-model) before parsing the spec, so specs "
     "can sweep it",
     true},
    {"--rollup", nullptr,
     "append whole-network totals to the report: a \"# rollup\" CSV section / \"rollup\" JSON "
     "key with count-weighted end-to-end cycles and a bytes-moved energy proxy per (suite x "
     "sparsity x config)"},
};

const cli::Flag kWorkerFlags[] = {
    {"--port", "N", "daemon port"},
    {"--port-file", "F",
     "read the port from F (as written by imac_serve --port-file), waiting for it to appear"},
    {"--host", "A", "daemon address (default 127.0.0.1)"},
    {"--name", "W", "this worker's name in the daemon's log lines (default worker)"},
    {"--heartbeat-ms", "N", "heartbeat cadence while simulating (default 1000)"},
    {"--poll-ms", "N",
     "delay before asking again after the daemon answers \"drain\" (default 200)"},
    {"--backoff-base-ms", "N", "first reconnect delay; later ones grow exponentially (default 50)"},
    {"--backoff-cap-ms", "N", "longest reconnect delay (default 2000)"},
    {"--give-up-ms", "N",
     "give up after N ms without a reachable daemon (default 120000); also bounds the "
     "--port-file wait"},
    {"--quiet", nullptr, "suppress the per-lease stderr notes"},
    {"--chaos-kill-after", "N", "fault injection for tests: SIGKILL self before sending result N"},
    {"--chaos-drop-after", "N",
     "fault injection for tests: drop the connection mid-record at result N"},
    {"--chaos-stall-after", "N",
     "fault injection for tests: after sending result N, stall without heartbeats for "
     "--chaos-stall-ms"},
    {"--chaos-stall-ms", "N", "length of that stall; make it longer than the lease deadline"},
};

const cli::Flag kMergeFlags[] = {
    {"--spec", "FILE", "sweep spec JSON the shards ran (required)"},
    {"--store", "DIR", "a shard's result store", true},
    {"--out", "FILE", "write the report here (default stdout)"},
    cli::kFormatFlag,
    {"--import", "DIR", "register the checkpoint in DIR, as sweep --import does", true},
};

const cli::Flag kGdbFlags[] = {
    {"--port", "N",
     "listen port (default 0 = kernel-assigned; the bound port is printed to stderr)"},
    {"--port-file", "F",
     "also write the bound port to F (harness handshake, same contract as imac_serve "
     "--port-file)"},
    {"--engine", "E", "execution engine: \"interp\" (default) or \"threaded\""},
    {"--quiet", nullptr, "suppress the listening/connected stderr notes"},
};

const cli::Flag kListWorkloadsFlags[] = {
    {"--json", nullptr,
     "emit a machine-readable listing (name, display name, layer count, total MACs, default "
     "sparsities) for tooling"},
};

const cli::Flag kImportModelFlags[] = {
    {"--json", nullptr, "emit the imported model and its per-layer sparsity as JSON"},
};

const cli::Flag kReportFlags[] = {
    {"--rollup", nullptr,
     "print whole-network totals instead: per (suite x sparsity x config), count-weighted "
     "end-to-end cycles, data accesses and the bytes-moved energy proxy (accesses x 64, a "
     "cache-line-granularity upper bound)"},
};

const cli::Command kCommands[] = {
    {"run", "assemble and execute a text-assembly program", "file.s", 1,
     "Assembles file.s (the library's RISC-V subset, including vindexmac.vx) and executes it; "
     "programs halt with ebreak.",
     kRunFlags, cmd_run},
    {"sweep", "run a declarative sweep spec and emit a CSV/JSON report", "", 0,
     "Runs the sweep described by --spec (see README: sweep specs) on a parallel BatchRunner "
     "pool and writes the report to stdout or --out.\n\n"
     "SIGINT/SIGTERM stop gracefully: queued points are skipped, in-flight points finish and "
     "journal, and the run exits 130 with a resume hint (rerun with --resume).",
     kSweepFlags, cmd_sweep},
    {"worker", "join an imac_serve daemon as a fault-tolerant sweep worker", "", 0,
     "Joins an imac_serve daemon as a sweep worker: leases grid points, measures them, "
     "streams results back, and reconnects with capped exponential backoff when the daemon "
     "goes away. Give exactly one of --port and --port-file.\n\n"
     "Exits 0 when the daemon reports the grid complete, 3 after --give-up-ms without a "
     "reachable daemon, 130 on SIGINT.",
     kWorkerFlags, cmd_worker},
    {"merge", "fuse shard stores/reports into the canonical report", "[shard.csv]...",
     cli::kMany,
     "Fuses shard stores and/or shard CSV reports into the canonical report of --spec, "
     "byte-identical to a single-process sweep. Conflicting or missing points abort with an "
     "error. Stores keep full double precision; shard CSVs round sampled-mode cycles to 2 "
     "decimals, so for sampled sweeps merge from stores (CSV inputs still give byte-exact CSV "
     "output, but not JSON, and must not overlap a store's points).",
     kMergeFlags, cmd_merge},
    {"gdb", "serve a GDB remote-debug session over a program", "file.s", 1,
     "Assembles file.s and serves ONE GDB remote-serial-protocol debug session on 127.0.0.1 "
     "(registers x0..x31/pc/f/v/vl, memory, software breakpoints, continue/step, Ctrl-C "
     "interrupt). Connect a RISC-V-aware gdb with `target remote :PORT`, or script it with "
     "tools/rsp_client.py. Breakpoints are pc-checks, never program patches: architectural "
     "results match an undebugged run exactly, and with --engine threaded only breakpointed "
     "blocks drop to interpreter stepping.\n\n"
     "monitor commands (gdb `monitor ...`): markers (pc of each marker instruction), symbols "
     "(label addresses), retired (instruction count), engine, fault (text of the last "
     "execution fault).\n\n"
     "Exits 0 when the debugger detaches, kills, or disconnects; 130 on SIGINT/SIGTERM.",
     kGdbFlags, cmd_gdb},
    {"list-workloads", "show registered workload suites (or one suite's layers)", "[suite]", 1,
     "Lists the registered workload suites, or one suite's layers.", kListWorkloadsFlags,
     cmd_list_workloads},
    {"list-algorithms", "show registered kernel families", "", 0,
     "Lists the registered kernel families: id (as used in sweep specs and CSV reports), "
     "display name, report pairing role, and whether sampled sweep mode supports the family.",
     {}, cmd_list_algorithms},
    {"import-model", "load a pruned checkpoint and print measured sparsity", "DIR", 1,
     "Loads the checkpoint in DIR (model.json manifest + IMACTNSR tensor blobs, f32/f16; see "
     "README: model import) and prints each layer's measured sparsity: nonzero density, N:M "
     "block conformity against the declared pattern, and ELLPACK row-imbalance. Sweep it with "
     "`sweep --import DIR` and a spec naming the model.",
     kImportModelFlags, cmd_import_model},
    {"report", "pretty-print a sweep CSV with paired speedup columns", "file.csv", 1,
     "Pretty-prints a sweep CSV; rows measured with both kernels are paired into a speedup "
     "column (standalone families keep their own rows).",
     kReportFlags, cmd_report},
};

// Requested help goes to stdout (exit 0); usage errors go to stderr (the
// summary only — `imac_run <sub> --help` has the details).
void usage(std::FILE* out) {
  std::fprintf(out, "usage: imac_run <subcommand> [args]\n\nsubcommands:\n");
  for (const cli::Command& command : kCommands)
    std::fprintf(out, "  %-16s %s\n", command.name, command.summary);
  std::fprintf(out,
               "\n"
               "`imac_run <subcommand> --help` shows that subcommand's flags;\n"
               "`imac_run --help` shows every subcommand's flags.\n"
               "  -h, --help     show this help and exit\n");
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Command* command = nullptr;
  std::string known;
  for (const cli::Command& row : kCommands) {
    if (argc >= 2 && std::strcmp(row.name, argv[1]) == 0) command = &row;
    known += known.empty() ? row.name : std::string(", ") + row.name;
  }
  // `imac_run <sub> --help` prints that subcommand's section; `--help`
  // anywhere else prints everything.
  if (cli::wants_help(argc, argv)) {
    if (command != nullptr) {
      cli::print_help(stdout, std::string("imac_run ") + command->name, *command);
      return 0;
    }
    usage(stdout);
    for (const cli::Command& row : kCommands) {
      std::printf("\n");
      cli::print_help(stdout, std::string("imac_run ") + row.name, row);
    }
    return 0;
  }
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  if (command == nullptr) {
    std::fprintf(stderr, "imac_run: unknown subcommand \"%s\" (known: %s)\n", argv[1],
                 known.c_str());
    return 2;
  }
  return cli::run(*command, std::string("imac_run ") + command->name, argc - 2, argv + 2);
}
