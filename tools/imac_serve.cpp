// imac_serve: the fault-tolerant distributed sweep orchestrator daemon.
// See src/serve/daemon.h for the orchestration model and
// src/serve/protocol.h for the wire format; workers are `imac_run worker`.
#include <atomic>
#include <csignal>
#include <limits>

#include "cli.h"
#include "common/error.h"
#include "serve/daemon.h"

namespace {

namespace cli = indexmac::cli;

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

int serve(const cli::Args& args) {
  using namespace indexmac;
  serve::ServeOptions opts;
  opts.spec_path = args.get("--spec", "");
  opts.store_dir = args.get("--store", "");
  opts.out_path = args.get("--out", "");
  opts.json = cli::json_format(args);
  opts.port = static_cast<std::uint16_t>(
      args.uint("--port", 0, std::numeric_limits<std::uint16_t>::max()));
  opts.port_file = args.get("--port-file", "");
  opts.scheduler.lease_ms = args.uint("--lease-ms", opts.scheduler.lease_ms);
  opts.scheduler.batch = static_cast<std::uint32_t>(
      args.uint("--batch", opts.scheduler.batch, std::numeric_limits<std::uint32_t>::max()));
  if (args.has("--fsync")) opts.durability = core::Durability::kFsyncEach;
  opts.progress_ms = args.uint("--progress-ms", opts.progress_ms);
  opts.grace_ms = args.uint("--grace-ms", opts.grace_ms);
  opts.wall_ms = args.uint("--wall-ms", opts.wall_ms);
  if (opts.spec_path.empty() || opts.store_dir.empty())
    throw UsageError("--spec and --store are required");
  if (opts.scheduler.batch == 0) throw UsageError("--batch must be at least 1");
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  opts.stop = &g_stop;
  return serve::run_daemon(opts);
}

const cli::Flag kServeFlags[] = {
    {"--spec", "FILE", "sweep spec JSON (required)"},
    {"--store", "DIR", "persistent result journal (required)"},
    {"--out", "FILE", "write the final report here (default stdout)"},
    cli::kFormatFlag,
    {"--port", "N", "listen port (default 0 = kernel-assigned)"},
    {"--port-file", "F", "write the bound port to F (harness handshake)"},
    {"--lease-ms", "N",
     "lease deadline: a lease with no heartbeat or result for N ms is re-queued (default "
     "5000)"},
    {"--batch", "N", "points granted per lease (default 4)"},
    {"--fsync", nullptr,
     "fsync the journal after every record (records survive power loss, not just process "
     "death)"},
    {"--progress-ms", "N", "progress/ETA stream interval (default 1000)"},
    {"--grace-ms", "N",
     "post-completion window answering \"complete\" to late workers (default 500)"},
    {"--wall-ms", "N", "abort (exit 3) after N ms; 0 = unlimited"},
};

const cli::Command kServe = {
    "imac_serve", "serve a sweep spec to imac_run workers", "", 0,
    "Serves one sweep spec to `imac_run worker` processes over TCP (127.0.0.1): workers "
    "lease grid points, results are journaled to DIR/results.journal BEFORE they are "
    "acknowledged, expired leases are re-leased to live workers, and when the grid is fully "
    "journaled the canonical report (byte-identical to `imac_run sweep` of the same spec) is "
    "written and the daemon exits 0. A spec already covered by the store is served straight "
    "from the journal (\"0 new simulations\") without opening a port.\n\n"
    "SIGINT/SIGTERM stop gracefully: no new leases, in-flight results still journal, then "
    "exit 130 with a resume hint (rerun with the same --store; already-journaled points are "
    "never re-simulated).",
    kServeFlags, serve};

}  // namespace

int main(int argc, char** argv) {
  if (cli::wants_help(argc, argv)) {
    cli::print_help(stdout, "imac_serve", kServe);
    return 0;
  }
  return cli::run(kServe, "imac_serve", argc - 1, argv + 1);
}
