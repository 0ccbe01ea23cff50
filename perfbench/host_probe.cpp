#include "host_probe.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <atomic>
#include <cstdint>

namespace perfbench {
namespace {

constexpr std::size_t kMaxThreads = 64;
constexpr auto kPeriod = std::chrono::milliseconds(100);
// Iterations of one burst: about 2 ms of one thread on a 4 GHz core.
constexpr std::uint64_t kBurstIterations = 500'000;

// Keeps the burst from being optimised away; every sampler thread stores to it.
std::atomic<std::uint64_t> g_sink;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Eight independent shift/xor/add chains: many instructions per cycle and
/// no memory traffic, so its speed follows how much of the core the vCPU
/// gets, which is what slows the simulator.
void burst() {
  std::uint64_t h0 = 1, h1 = 2, h2 = 3, h3 = 4, h4 = 5, h5 = 6, h6 = 7, h7 = 8;
  for (std::uint64_t i = 0; i < kBurstIterations; ++i) {
    h0 = (h0 ^ (h0 << 7)) + i;
    h1 = (h1 ^ (h1 >> 5)) + h0;
    h2 = (h2 ^ (h2 << 3)) + i;
    h3 = (h3 ^ (h3 >> 11)) + h2;
    h4 = (h4 ^ (h4 << 9)) + i;
    h5 = (h5 ^ (h5 >> 3)) + h4;
    h6 = (h6 ^ (h6 << 13)) + i;
    h7 = (h7 ^ (h7 >> 7)) + h6;
  }
  g_sink.store(h1 + h3 + h5 + h7, std::memory_order_relaxed);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE && cpus.size() < kMaxThreads; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.empty()) cpus.push_back(-1);  // unknown mask: one unpinned sampler
  return cpus;
}

}  // namespace

HostProbe::HostProbe() {
  const std::vector<int> cpus = allowed_cpus();
  cpu_s_ = std::vector<std::atomic<double>>(cpus.size());
  for (std::size_t slot = 0; slot < cpus.size(); ++slot) {
    threads_.emplace_back([this, slot] { sample_loop(slot); });
    if (cpus[slot] >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[slot], &one);
      pthread_setaffinity_np(threads_.back().native_handle(), sizeof one, &one);
    }
  }
}

HostProbe::~HostProbe() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void HostProbe::sample_loop(std::size_t slot) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!wake_.wait_for(lock, kPeriod, [this] { return stop_; })) {
    lock.unlock();
    const double before = thread_cpu_seconds();
    burst();
    const double burst_s = thread_cpu_seconds() - before;
    const Clock::time_point end = Clock::now();
    lock.lock();
    samples_.push_back({end, burst_s});
    cpu_s_[slot].store(thread_cpu_seconds(), std::memory_order_relaxed);
  }
  cpu_s_[slot].store(thread_cpu_seconds(), std::memory_order_relaxed);
}

HostProbe::Window HostProbe::window(Clock::time_point from, Clock::time_point to) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Window w;
  double rate = 0;
  for (const Sample& s : samples_)
    if (s.end >= from && s.end < to) {
      rate += 1.0 / s.burst_s;
      ++w.samples;
    }
  if (w.samples > 0) w.mean_burst_s = static_cast<double>(w.samples) / rate;
  return w;
}

double HostProbe::cpu_seconds() const {
  double sum = 0;
  for (const std::atomic<double>& c : cpu_s_) sum += c.load(std::memory_order_relaxed);
  return sum;
}

}  // namespace perfbench
