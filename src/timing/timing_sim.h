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
// Unit memo. Loop bodies recur as the same block from the same pipeline
// state, give or take a shift in time, so each run keeps a memo of whole
// units (timing/unit_memo.h; FastSim-style memoization after Schnarr and
// Larus, ASPLOS 1998). Past the run's first 2^18 instructions (shorter
// runs, such as sampled miniatures, would record more than they replay),
// a unit of at least 24 instructions whose slot has started a unit before
// is keyed by
//   * its slot and length;
//   * the pipeline state it reads, relative to an anchor A: every register
//     ready time it reads before writing, the slots it will claim of the
//     ROB, LSQ and vector queues, the store-ring entries its loads
//     overlap, the last-event cycles (commit, branch resolve, vector send,
//     vsetvli, engine issue), the commit port's fill and the issue port's
//     fills from A to its last claimed cycle, each timestamp t stored as
//     max(t, A) - A;
//   * the fetch state: E = max(fetch-blocked cycle, fetch frontier) and
//     the ports claimed at E, relative to A, or only "behind" (below);
//   * its pipeline-visible inputs: the vl it starts with and each
//     vsetvli's result, the ready time of each VRF row read through
//     x[rs1], the last op's branch outcome (a block's only branch ends
//     it) and which in-flight stores each scalar load overlaps.
// A is the earliest cycle the next instruction can dispatch at, less the
// front-end depth: max(E, release of the oldest ROB slot - depth). Every
// later dispatch is at least A + depth, because fetch and ROB releases
// only grow, and every value the pipeline compares a stored timestamp
// with derives from a dispatch cycle. So a timestamp at or below A acts
// exactly as A would, and clamping at A is exact. The fetch frontier
// itself is no anchor: fetch is not held back by the ROB, so it trails
// the pipeline further with every instruction until a mispredict, and
// state relative to it would never repeat. When the next fetch trails the
// oldest ROB slot's release by more than the depth (and commit is no wider
// than fetch), it cannot catch up before the next redirect: fetch then
// advances one cycle per fetch-width instructions and the ROB one cycle
// per commit-width commits, so every dispatch waits on the ROB, and the
// key records only that fetch is behind.
//
// Memory is validated, not keyed: its timing state (banks, DRAM channel,
// in-flight fills, tags) is large, and keying it would miss on every
// stream that moves on. An entry holds, per response sequence seen (up to
// four), the unit's memory requests as (op, gather element, relative
// start) with the response the recording got, its markers' commit cycles
// and positions among the requests, its issue-port grants, the timestamps
// it wrote relative to A, and its TimingStats deltas. A hit makes the
// requests through the unchanged MemorySystem with this unit's own
// addresses, in order; a response that differs switches to another
// recorded sequence that got the same responses so far (both made the
// same requests up to there), and when none matches, the unit is timed in
// detail from its unchanged entry state, with a cursor handing back the
// responses already served, and recorded. So MemorySystem sees exactly
// the calls of a detailed run, nothing is rolled back, and markers take
// the live memory counters at their recorded positions. When every
// response matches, the recorded exit state is installed shifted by A,
// the issue-port grants are replayed in order (which moves the port's
// window as the claims did) and the fetch port advances by the unit's
// length from its own state. What the unit does not write stays as it
// is. The memo holds 2048 keys per TimingSim and is never shared.
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

/// How the unit memo fared over one run. Diagnostics only: the timing is
/// the same whatever these read.
struct MemoStats {
  std::uint64_t units_keyed = 0;     ///< units looked up
  std::uint64_t units_replayed = 0;  ///< lookups whose recorded timing was installed
  std::uint64_t units_retimed = 0;   ///< key matches whose memory responses differed
  std::uint64_t instructions_replayed = 0;
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
  [[nodiscard]] const MemoStats& memo_stats() const { return memo_stats_; }

 private:
  const Program& program_;
  MainMemory& memory_;
  ProcessorConfig config_;
  TimingStats stats_;
  std::vector<MarkerEvent> markers_;
  MemoStats memo_stats_;
  bool ran_ = false;
};

}  // namespace indexmac::timing
