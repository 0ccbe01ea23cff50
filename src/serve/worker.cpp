#include "serve/worker.h"

#include <csignal>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "common/bitutil.h"
#include "common/error.h"
#include "core/sweep.h"
#include "serve/net.h"
#include "serve/protocol.h"

namespace indexmac::serve {
namespace {

using core::SweepPoint;
using core::SweepSpec;

constexpr int kExchangeTimeoutMs = 10000;  ///< daemon replies immediately

bool stop_requested(const WorkerOptions& opts) {
  return opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed);
}

/// Interruptible sleep; false when the stop flag fired mid-sleep.
bool sleep_unless_stopped(const WorkerOptions& opts, std::uint64_t ms) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < until) {
    if (stop_requested(opts)) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return !stop_requested(opts);
}

/// One round-trip receive; a silent daemon is a transport fault (retryable),
/// not a hang.
JsonValue expect_message(Socket& socket, FrameBuffer& frames, int timeout_ms) {
  std::optional<JsonValue> msg = recv_message(socket, frames, timeout_ms);
  if (!msg) throw NetError("worker: daemon did not answer within the exchange timeout");
  return std::move(*msg);
}

/// The grid as this worker reproduced it from the welcome's spec text.
struct Grid {
  SweepSpec spec;
  std::vector<SweepPoint> points;
};

Grid accept_welcome(const WorkerOptions& opts, const JsonValue& msg) {
  IMAC_CHECK(message_type(msg) == "welcome",
             "worker: expected welcome, got \"" + message_type(msg) + "\"");
  const WelcomeFields w = parse_welcome(msg);
  Grid grid;
  grid.spec = core::parse_sweep_spec(w.spec_text);
  grid.points = core::expand_sweep(grid.spec);
  const std::uint64_t hash = core::grid_hash(core::grid_keys(grid.spec, grid.points));
  // Leases name points by bare expansion index; a count or hash mismatch
  // means this binary would measure different points than the daemon
  // journals. No retry can fix a version skew — fail loudly.
  IMAC_CHECK(grid.points.size() == w.points && hash == w.grid_hash,
             "worker: grid mismatch for spec " + w.spec_name + ": daemon has " +
                 std::to_string(w.points) + " points / hash " + u64_to_hex(w.grid_hash) +
                 ", this binary expands " + std::to_string(grid.points.size()) + " / " +
                 u64_to_hex(hash) + " (version skew between worker and daemon?)");
  if (!opts.quiet)
    std::fprintf(stderr, "worker %s: joined spec %s (%zu points)\n", opts.name.c_str(),
                 w.spec_name.c_str(), grid.points.size());
  return grid;
}

/// Measures one leased point, heartbeating while the simulation runs so a
/// slow point does not read as a dead worker.
core::BatchResult measure(const WorkerOptions& opts, const Grid& grid, Socket& socket,
                          std::uint64_t lease_id, std::uint32_t index) {
  const core::BatchJob job = core::point_job(grid.spec, grid.points[index]);
  std::future<core::BatchResult> future =
      std::async(std::launch::async, [&job] { return core::run_job(job); });
  while (future.wait_for(std::chrono::milliseconds(opts.heartbeat_ms)) !=
         std::future_status::ready)
    send_message(socket, make_heartbeat(lease_id));
  return future.get();
}

/// Sends one result, running any scripted chaos hook that targets it.
/// Throws NetError for the drop hook so the caller's reconnect path runs.
void send_result(const WorkerOptions& opts, ChaosOptions& chaos, Socket& socket,
                 std::uint64_t lease_id, std::uint32_t index, const core::BatchResult& r,
                 long result_index) {
  const JsonValue msg = make_result(lease_id, index, r.cycles, r.data_accesses);
  if (chaos.kill_after >= 0 && result_index >= chaos.kill_after) {
    // The scripted SIGKILL: no flush, no goodbye — exactly what a crashed
    // or OOM-killed worker looks like to the daemon.
    std::fprintf(stderr, "worker %s: chaos: SIGKILL self before result %ld\n",
                 opts.name.c_str(), result_index);
    ::kill(::getpid(), SIGKILL);
  }
  if (chaos.drop_after >= 0 && result_index >= chaos.drop_after) {
    chaos.drop_after = -1;  // fire once; the retry must make progress
    std::fprintf(stderr, "worker %s: chaos: dropping connection mid-record\n",
                 opts.name.c_str());
    const std::string frame = encode_frame(msg);
    socket.send_partial_and_close(frame.data(), frame.size() / 2);
    throw NetError("worker: chaos connection drop");
  }
  send_message(socket, msg);
  if (chaos.stall_after >= 0 && result_index >= chaos.stall_after) {
    chaos.stall_after = -1;
    std::fprintf(stderr, "worker %s: chaos: stalling %llums without heartbeats\n",
                 opts.name.c_str(), static_cast<unsigned long long>(chaos.stall_ms));
    (void)sleep_unless_stopped(opts, chaos.stall_ms);
  }
}

}  // namespace

int run_worker(const WorkerOptions& options) {
  IMAC_CHECK(options.port != 0, "worker: a daemon port is required");
  ChaosOptions chaos = options.chaos;
  long results_sent = 0;
  // Deterministic per-worker jitter: de-synchronizes a fleet's reconnect
  // storm without nondeterminism in tests.
  std::minstd_rand jitter_rng(static_cast<unsigned>(fnv1a(options.name) | 1u));
  unsigned attempt = 0;
  auto last_success = std::chrono::steady_clock::now();

  for (;;) {
    if (stop_requested(options)) return 130;
    Socket socket;
    FrameBuffer frames;
    try {
      socket = connect_ipv4(options.host, options.port);
      send_message(socket, make_hello(options.name));
      const Grid grid = accept_welcome(options, expect_message(socket, frames,
                                                              kExchangeTimeoutMs));
      attempt = 0;
      last_success = std::chrono::steady_clock::now();

      for (;;) {
        if (stop_requested(options)) return 130;
        send_message(socket, make_lease_request());
        const JsonValue reply = expect_message(socket, frames, kExchangeTimeoutMs);
        const std::string type = message_type(reply);
        if (type == "complete") {
          if (!options.quiet)
            std::fprintf(stderr, "worker %s: grid complete, %ld results sent\n",
                         options.name.c_str(), results_sent);
          return 0;
        }
        if (type == "drain") {
          if (!sleep_unless_stopped(options, options.poll_ms)) return 130;
          continue;
        }
        if (type == "error") raise("worker: daemon rejected us: " +
                                   reply.at("message").as_string());
        IMAC_CHECK(type == "lease", "worker: expected lease/drain/complete, got \"" + type +
                                        "\"");
        const LeaseFields lease = parse_lease(reply);
        for (const std::uint32_t index : lease.points) {
          IMAC_CHECK(index < grid.points.size(),
                     "worker: leased point " + std::to_string(index) + " is out of range");
          const core::BatchResult r = measure(options, grid, socket, lease.lease, index);
          send_result(options, chaos, socket, lease.lease, index, r, results_sent);
          ++results_sent;
          // The ack closes the journal-before-ack handshake: once it
          // arrives this point is durable daemon-side and never re-runs.
          const JsonValue ack = expect_message(socket, frames, kExchangeTimeoutMs);
          const std::string ack_type = message_type(ack);
          if (ack_type == "complete") {
            if (!options.quiet)
              std::fprintf(stderr, "worker %s: grid complete, %ld results sent\n",
                           options.name.c_str(), results_sent);
            return 0;
          }
          IMAC_CHECK(ack_type == "ack", "worker: expected ack, got \"" + ack_type + "\"");
        }
      }
    } catch (const NetError& e) {
      const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - last_success)
                              .count();
      if (static_cast<std::uint64_t>(waited) > options.give_up_ms) {
        std::fprintf(stderr, "worker %s: giving up after %llums without a daemon: %s\n",
                     options.name.c_str(), static_cast<unsigned long long>(waited), e.what());
        return 3;
      }
      const std::uint64_t backoff = std::min<std::uint64_t>(
          options.backoff_cap_ms,
          options.backoff_base_ms << std::min(attempt, 16u));
      const std::uint64_t delay = backoff + jitter_rng() % (backoff / 2 + 1);
      ++attempt;
      if (!options.quiet)
        std::fprintf(stderr, "worker %s: connection lost (%s); retrying in %llums\n",
                     options.name.c_str(), e.what(), static_cast<unsigned long long>(delay));
      if (!sleep_unless_stopped(options, delay)) return 130;
    }
  }
}

}  // namespace indexmac::serve
