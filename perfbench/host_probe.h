// Host-speed probe for sweep_bench. On a shared virtual machine each vCPU's
// speed changes from second to second with what runs on the host next to
// it; the simulator's dispatch-heavy loops can run at half speed for tens
// of seconds. The probe measures that speed while a sweep runs: one sampler
// thread per CPU the process may use wakes every kPeriod, runs a fixed
// burst of high-IPC integer work (about 2 ms, so 2% of each CPU), and
// records the burst's thread CPU time. sweep_bench records the mean burst
// time during each sweep, and run.py scales the sweep's times by it.
//
// The probe uses nothing from the simulator and is compiled with fixed
// flags of its own, so a change to the simulator or to the project's flags
// leaves the work it times unchanged.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  using Clock = std::chrono::steady_clock;

  struct Window {
    /// Harmonic mean of the bursts' thread CPU times: the pool's
    /// throughput follows the summed speed of the CPUs, not their times.
    double mean_burst_s = 0;
    std::size_t samples = 0;
  };

  /// Starts one sampler thread pinned to each CPU in the process's
  /// affinity mask (at most kMaxThreads).
  HostProbe();
  /// Stops and joins every sampler thread.
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// The bursts that ended in [from, to).
  [[nodiscard]] Window window(Clock::time_point from, Clock::time_point to) const;
  /// CPU seconds the sampler threads have used so far, bursts and wake-ups.
  [[nodiscard]] double cpu_seconds() const;
  [[nodiscard]] std::size_t threads() const { return threads_.size(); }

 private:
  struct Sample {
    Clock::time_point end;
    double burst_s;
  };

  void sample_loop(std::size_t slot);

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::vector<std::atomic<double>> cpu_s_;
  std::vector<std::thread> threads_;
};

}  // namespace perfbench
