#include "serve/daemon.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <vector>

#include "common/error.h"
#include "common/format.h"
#include "core/sweep.h"
#include "serve/net.h"
#include "serve/protocol.h"

namespace indexmac::serve {
namespace {

using core::ResultStore;
using core::StoredResult;
using core::SweepPoint;
using core::SweepSpec;

std::uint64_t now_ms_since(const std::chrono::steady_clock::time_point& start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

/// One connected worker socket plus its per-connection decode state.
struct Client {
  Socket socket;
  FrameBuffer frames;
  std::uint64_t id = 0;     ///< scheduler worker id (stable per connection)
  std::string name;         ///< from hello, for log lines
  bool greeted = false;
};

std::string fmt_eta(std::uint64_t ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%llus", static_cast<unsigned long long>(ms / 1000),
                static_cast<unsigned long long>((ms % 1000) / 100));
  return buf;
}

/// The whole orchestration state, so helpers share it without globals.
struct Daemon {
  const ServeOptions& opts;
  SweepSpec spec;
  std::string spec_text;
  std::vector<SweepPoint> points;
  std::vector<std::string> keys;
  std::uint64_t hash = 0;
  ResultStore store;
  Scheduler sched;
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  std::vector<Client> clients;
  std::uint64_t next_client_id = 1;
  std::size_t session_completed = 0;  ///< completions this run (for ETA)
  std::uint64_t first_result_ms = 0;
  std::size_t last_progress_completed = static_cast<std::size_t>(-1);
  std::uint64_t last_progress_ms = 0;
  bool stopping = false;
  std::uint64_t stop_seen_ms = 0;

  Daemon(const ServeOptions& o, SweepSpec s, std::string text, std::vector<SweepPoint> pts)
      : opts(o),
        spec(std::move(s)),
        spec_text(std::move(text)),
        points(std::move(pts)),
        keys(core::grid_keys(spec, points)),
        hash(core::grid_hash(keys)),
        store(o.store_dir, o.durability),
        sched(points.size(), o.scheduler) {}

  [[nodiscard]] std::uint64_t now_ms() const { return now_ms_since(start); }

  void drop_client(std::size_t index) {
    Client& c = clients[index];
    const std::size_t stolen = sched.release_worker(c.id);
    if (stolen > 0)
      std::fprintf(stderr, "serve: worker %s disconnected, re-queued %zu leased points\n",
                   c.name.c_str(), stolen);
    clients.erase(clients.begin() + static_cast<std::ptrdiff_t>(index));
  }

  /// Journal-then-ack: the result is in the store (at the configured
  /// durability) before the worker hears "ack". A result whose metrics
  /// disagree with an earlier journaled record throws out of here and
  /// aborts the daemon — the no-silent-wrong-merges invariant.
  void handle_result(Client& client, const JsonValue& msg) {
    const ResultFields r = parse_result(msg);
    IMAC_CHECK(r.point < points.size(),
               "serve: worker " + client.name + " sent an out-of-range point index " +
                   std::to_string(r.point));
    store.put(keys[r.point], StoredResult{r.cycles, r.accesses});
    if (sched.complete(r.point)) {
      ++session_completed;
      if (first_result_ms == 0) first_result_ms = now_ms();
    }
    send_message(client.socket, sched.done() ? make_complete() : make_ack(r.point));
  }

  void handle_message(Client& client, const JsonValue& msg) {
    const std::string type = message_type(msg);
    if (!client.greeted) {
      IMAC_CHECK(type == "hello", "serve: first message must be hello, got \"" + type + "\"");
      const std::uint64_t version = msg.at("protocol").as_uint();
      IMAC_CHECK(version == kProtocolVersion,
                 "serve: worker speaks protocol " + std::to_string(version) + ", daemon speaks " +
                     std::to_string(kProtocolVersion));
      client.name = msg.at("worker").as_string();
      client.greeted = true;
      send_message(client.socket, make_welcome(spec.name, points.size(), hash, spec_text));
      return;
    }
    if (type == "lease-request") {
      if (sched.done()) {
        send_message(client.socket, make_complete());
        return;
      }
      if (stopping) {
        // Graceful shutdown: no new leases, but in-flight work still
        // journals, so what is done stays done.
        send_message(client.socket, make_drain());
        return;
      }
      sched.expire(now_ms());
      const Lease lease = sched.grant(client.id, now_ms());
      if (lease.points.empty()) {
        send_message(client.socket, make_drain());
      } else {
        send_message(client.socket,
                     make_lease(lease.id, opts.scheduler.lease_ms, lease.points));
      }
      return;
    }
    if (type == "heartbeat") {
      // An unknown/expired lease id is not an error: the worker simply
      // lost that lease to stealing and learns on its next request.
      (void)sched.heartbeat(msg.at("lease").as_uint(), now_ms());
      return;
    }
    if (type == "result") {
      handle_result(client, msg);
      return;
    }
    raise("serve: unexpected message type \"" + type + "\" from worker " + client.name);
  }

  void print_progress(bool force) {
    const std::uint64_t now = now_ms();
    if (!force && now - last_progress_ms < opts.progress_ms) return;
    if (!force && sched.completed() == last_progress_completed) return;
    last_progress_ms = now;
    last_progress_completed = sched.completed();
    std::string eta = "-";
    if (session_completed > 0 && sched.completed() < sched.total()) {
      const std::uint64_t spent = now - first_result_ms;
      eta = fmt_eta(spent * (sched.total() - sched.completed()) /
                    std::max<std::size_t>(session_completed, 1));
    }
    std::fprintf(stderr, "serve: %zu/%zu points (%.0f%%), %zu leased, %zu workers, ETA %s\n",
                 sched.completed(), sched.total(),
                 100.0 * static_cast<double>(sched.completed()) /
                     static_cast<double>(sched.total()),
                 sched.leased(), clients.size(), eta.c_str());
  }

  /// Final summary + canonical report. The "0 new simulations" line is the
  /// cached-re-query contract CI greps for.
  void finish() {
    store.sync();  // report claims completion; the journal must not lag it
    std::fprintf(stderr, "store: %llu new simulations journaled (%llu already on disk)\n",
                 static_cast<unsigned long long>(store.appended()),
                 static_cast<unsigned long long>(store.loaded()));
    if (sched.expired_leases() > 0 || sched.duplicate_completions() > 0)
      std::fprintf(stderr, "serve: %llu leases expired and re-leased, %llu duplicate completions"
                           " reconciled\n",
                   static_cast<unsigned long long>(sched.expired_leases()),
                   static_cast<unsigned long long>(sched.duplicate_completions()));
    std::map<std::string, StoredResult> merged;
    core::accumulate_results(store, merged);
    const core::SweepReport report = core::assemble_report(spec, merged);
    write_text_file(opts.out_path,
                    opts.json ? core::report_to_json(report) : core::report_to_csv(report));
    if (!opts.out_path.empty())
      std::fprintf(stderr, "wrote %zu rows to %s\n", report.rows.size(), opts.out_path.c_str());
  }
};

/// Post-completion grace window: late workers (mid-simulation when the
/// last point landed, or reconnecting after a drop) still get a clean
/// "complete" instead of a connection refused, so they exit 0.
void grace_period(Daemon& d, Listener& listener) {
  const std::uint64_t until = d.now_ms() + d.opts.grace_ms;
  while (d.now_ms() < until) {
    std::vector<pollfd> fds;
    fds.push_back({listener.fd(), POLLIN, 0});
    for (const Client& c : d.clients) fds.push_back({c.socket.fd(), POLLIN, 0});
    const std::uint64_t left = until - d.now_ms();
    if (::poll(fds.data(), fds.size(), static_cast<int>(std::min<std::uint64_t>(left, 100))) < 0)
      break;
    if ((fds[0].revents & POLLIN) != 0) {
      Client c;
      c.socket = listener.accept();
      c.id = d.next_client_id++;
      d.clients.push_back(std::move(c));
    }
    for (std::size_t i = d.clients.size(); i-- > 0;) {
      Client& c = d.clients[i];
      try {
        char chunk[4096];
        const std::size_t got = c.socket.valid() ? c.socket.recv_some(chunk, sizeof chunk) : 0;
        if (got == 0) {
          d.drop_client(i);
          continue;
        }
        c.frames.feed(chunk, got);
        while (std::optional<std::string> payload = c.frames.next()) {
          const JsonValue msg = parse_json(*payload);
          const std::string type = message_type(msg);
          if (!c.greeted && type == "hello") {
            c.name = msg.at("worker").as_string();
            c.greeted = true;
            send_message(c.socket, make_welcome(d.spec.name, d.points.size(), d.hash,
                                                d.spec_text));
          } else if (type == "result") {
            d.handle_result(c, msg);  // journals, then answers "complete"
          } else {
            send_message(c.socket, make_complete());
          }
        }
      } catch (const NetError&) {
        d.drop_client(i);
      }
    }
  }
}

}  // namespace

int run_daemon(const ServeOptions& options) {
  IMAC_CHECK(!options.spec_path.empty(), "imac_serve: --spec is required");
  IMAC_CHECK(!options.store_dir.empty(), "imac_serve: --store is required");

  std::string spec_text = read_text_file(options.spec_path);
  SweepSpec spec = core::parse_sweep_spec(spec_text);
  std::vector<SweepPoint> points = core::expand_sweep(spec);
  Daemon d(options, std::move(spec), std::move(spec_text), std::move(points));

  if (d.store.dropped_bytes() > 0)
    std::fprintf(stderr, "store %s: recovered (dropped %llu corrupt tail bytes)\n",
                 d.store.journal_path().c_str(),
                 static_cast<unsigned long long>(d.store.dropped_bytes()));

  // Journal preload: already-covered points never re-simulate. A fully
  // covered spec is served without opening a port at all.
  for (std::uint32_t i = 0; i < d.keys.size(); ++i)
    if (d.store.find(d.keys[i]) != nullptr) d.sched.preload_complete(i);
  std::fprintf(stderr, "serve: spec %s: %zu points, %zu already journaled in %s\n",
               d.spec.name.c_str(), d.sched.total(), d.sched.completed(),
               d.store.journal_path().c_str());
  if (d.sched.done()) {
    d.finish();
    return 0;
  }

  Listener listener(options.port);
  std::fprintf(stderr, "serve: listening on 127.0.0.1:%u (lease %llums, batch %u)\n",
               listener.port(), static_cast<unsigned long long>(options.scheduler.lease_ms),
               options.scheduler.batch);
  if (!options.port_file.empty()) {
    std::ofstream pf(options.port_file, std::ios::binary | std::ios::trunc);
    IMAC_CHECK(pf.good(), "imac_serve: cannot write port file " + options.port_file);
    pf << listener.port() << "\n";
    pf.close();
    IMAC_CHECK(pf.good(), "imac_serve: cannot write port file " + options.port_file);
  }
  if (options.bound_port != nullptr) options.bound_port->store(listener.port());

  while (!d.sched.done()) {
    const std::uint64_t now = d.now_ms();
    if (options.wall_ms != 0 && now > options.wall_ms) {
      std::fprintf(stderr, "serve: wall-clock limit (%llums) exceeded with %zu/%zu points; "
                           "resumable: rerun imac_serve with the same --store\n",
                   static_cast<unsigned long long>(options.wall_ms), d.sched.completed(),
                   d.sched.total());
      return 3;
    }
    if (options.stop != nullptr && options.stop->load(std::memory_order_relaxed) &&
        !d.stopping) {
      d.stopping = true;
      d.stop_seen_ms = now;
      std::fprintf(stderr, "serve: stop requested — no new leases, draining %zu in-flight "
                           "points\n",
                   d.sched.leased());
    }
    if (d.stopping &&
        (d.sched.leased() == 0 || now > d.stop_seen_ms + options.scheduler.lease_ms)) {
      d.store.sync();
      std::fprintf(stderr, "serve: interrupted with %zu/%zu points journaled\n"
                           "resumable: rerun imac_serve with the same --store\n",
                   d.sched.completed(), d.sched.total());
      return 130;
    }

    // Poll timeout: the nearest of lease deadline, progress tick, stop
    // drain, and wall guard — bounded so signal flags stay responsive.
    std::uint64_t timeout = options.progress_ms;
    if (const auto deadline = d.sched.next_deadline_ms(); deadline && *deadline > now)
      timeout = std::min(timeout, *deadline - now);
    timeout = std::min<std::uint64_t>(timeout, 200);

    std::vector<pollfd> fds;
    fds.push_back({listener.fd(), POLLIN, 0});
    for (const Client& c : d.clients) fds.push_back({c.socket.fd(), POLLIN, 0});
    const int ready = ::poll(fds.data(), fds.size(), static_cast<int>(timeout));
    if (ready < 0 && errno != EINTR) throw NetError("serve: poll failed");

    if (ready > 0 && (fds[0].revents & POLLIN) != 0) {
      Client c;
      c.socket = listener.accept();
      c.id = d.next_client_id++;
      d.clients.push_back(std::move(c));
    }

    // Iterate clients newest-first so erase() never shifts an index we
    // have yet to visit. (fds[i+1] belongs to clients[i]; a client
    // accepted this round has no fds entry yet and is skipped.)
    for (std::size_t i = std::min(d.clients.size(), fds.size() - 1); i-- > 0;) {
      if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Client& c = d.clients[i];
      try {
        char chunk[4096];
        const std::size_t got = c.socket.recv_some(chunk, sizeof chunk);
        if (got == 0) {  // orderly EOF; a mid-frame residue means the
                         // worker died mid-record — its lease re-queues
          d.drop_client(i);
          continue;
        }
        c.frames.feed(chunk, got);
        while (std::optional<std::string> payload = c.frames.next())
          d.handle_message(c, parse_json(*payload));
      } catch (const NetError&) {
        d.drop_client(i);
      } catch (const SimError& e) {
        // Protocol violation from this worker: tell it why (best effort),
        // drop it, keep serving everyone else. Store-level failures
        // (result drift, journal I/O) are daemon-fatal and rethrow.
        const std::string what = e.what();
        if (what.find("result store:") != std::string::npos) throw;
        std::fprintf(stderr, "serve: dropping worker %s: %s\n", c.name.c_str(), what.c_str());
        try {
          send_message(c.socket, make_error(what));
        } catch (const NetError&) {
        }
        d.drop_client(i);
      }
    }

    if (const std::size_t stolen = d.sched.expire(d.now_ms()); stolen > 0)
      std::fprintf(stderr, "serve: expired lease(s): re-queued %zu points for stealing\n",
                   stolen);
    d.print_progress(false);
  }

  d.print_progress(true);
  d.finish();

  // Late/reconnecting workers get "complete" instead of ECONNREFUSED.
  for (Client& c : d.clients) {
    try {
      send_message(c.socket, make_complete());
    } catch (const NetError&) {
    }
  }
  grace_period(d, listener);
  return 0;
}

}  // namespace indexmac::serve
