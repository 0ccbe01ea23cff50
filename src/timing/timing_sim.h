// Cycle-level timing model of the decoupled vector processor (Table I).
//
// Model style: trace-driven timestamp dataflow. The functional simulator
// supplies the committed instruction stream as units (timing/trace.h:
// whole threaded-engine blocks, or single fallback instructions). The
// model walks each unit's slots in order through one lazy op view over the
// recorded values, switching on a per-slot timing kind predecoded once per
// program; no per-instruction record is built. For each dynamic
// instruction it computes
// fetch/dispatch/issue/complete/commit cycles subject to
//   * front-end width and branch-mispredict refill (static BTFNT predictor),
//   * ROB / LSQ / physical-register-file style occupancy (ROB bound),
//   * 8-wide issue and per-op execution latencies on the scalar side,
//   * the decoupled vector path: vector instructions are shipped, in
//     program order and only past resolved branches (squash-free dispatch,
//     as decoupled designs require for vector architectural state), into a
//     16-entry vector instruction queue together with their scalar operand
//     values; the engine executes in order, one operation per cycle of
//     lane occupancy, with register-granular scoreboarding;
//   * vector loads/stores access the banked L2 through 16 load / 16 store
//     queues (no L1 on the vector path), with cache/DRAM contention from
//     mem::MemorySystem;
//   * vector->scalar moves (vmv.x.s / vfmv.f.s) return through the engine,
//     stalling dependent scalar work - the round trip both algorithms pay
//     per non-zero (twice for Row-Wise-SpMM, once for vindexmac).
//
// Per-cycle width limits (timing/port_scheduler.h): fetch and commit are
// in-order counters (InOrderPorts), exact because their requests never go
// back in time - fetch asks for the fetch-blocked cycle, which only grows
// at mispredicts, and commit asks for max(ready, previous commit). Issue
// is out of order and keeps the windowed PortScheduler. No per-instruction
// step divides: the lane-rate quotients (engine occupancy per vl, gather
// address slots) are tables built per run, and the L2 bank is a mask.
// The model counts into a TimingStats of its own, copied out when the run
// ends or throws: counting through a reference would let each store alias
// the model's other 64-bit state.
//
// See docs/simplifications.md for the deliberate simplifications.
#pragma once

#include <cstdint>
#include <vector>

#include "asm/program.h"
#include "fsim/engine.h"
#include "mem/main_memory.h"
#include "mem/memory_system.h"
#include "timing/config.h"

namespace indexmac::timing {

/// Commit-time marker event (see kernels::MarkerId).
struct MarkerEvent {
  std::int32_t id = 0;
  std::uint64_t cycle = 0;        ///< commit cycle of the marker
  std::uint64_t instructions = 0; ///< instructions committed so far
  MemStats mem;                   ///< memory counters at this point
};

/// Where vector dispatch time goes: for each vector instruction the model
/// attributes the wait between earliest-possible and actual send to its
/// binding constraint. Useful for understanding *why* a kernel is slow.
struct VectorDispatchStalls {
  std::uint64_t scalar_operand = 0;  ///< waiting on a scalar source (round trips!)
  std::uint64_t branch_shadow = 0;   ///< waiting for older branches to resolve
  std::uint64_t queue_full = 0;      ///< vector instruction queue had no slot
  std::uint64_t bandwidth = 0;       ///< one-per-cycle send port busy

  [[nodiscard]] std::uint64_t total() const {
    return scalar_operand + branch_shadow + queue_full + bandwidth;
  }
};

/// Aggregate results of one timed execution.
struct TimingStats {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t scalar_instructions = 0;
  std::uint64_t vector_instructions = 0;
  std::uint64_t vector_loads = 0;
  std::uint64_t vector_stores = 0;
  std::uint64_t vector_macs = 0;          ///< vfmacc/vmacc/v(f)indexmac
  std::uint64_t vector_to_scalar_moves = 0;
  std::uint64_t branch_mispredicts = 0;
  VectorDispatchStalls dispatch_stalls;
  MemStats mem;

  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0 : static_cast<double>(instructions) / static_cast<double>(cycles);
  }
};

/// Timing simulator for one program execution.
class TimingSim {
 public:
  /// The trace-driving functional simulation always runs on the threaded
  /// engine, one block per trace refill (timing/trace.h). `engine` is
  /// accepted for source compatibility and has no effect.
  TimingSim(const Program& program, MainMemory& memory, const ProcessorConfig& config,
            ExecEngine engine = ExecEngine::kInterp);

  /// Runs to completion (ebreak/ecall). Throws SimError if the instruction
  /// budget is exhausted first (runaway program).
  const TimingStats& run(std::uint64_t max_instructions = 2'000'000'000);

  [[nodiscard]] const TimingStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<MarkerEvent>& markers() const { return markers_; }
  [[nodiscard]] const ProcessorConfig& config() const { return config_; }

 private:
  const Program& program_;
  MainMemory& memory_;
  ProcessorConfig config_;
  TimingStats stats_;
  std::vector<MarkerEvent> markers_;
  bool ran_ = false;
};

}  // namespace indexmac::timing
