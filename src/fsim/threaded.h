// Threaded-code execution engine over a functional Machine.
//
// The interpreter pays a bounds check, a table lookup and a ~60-way decode
// switch per dynamic instruction. This engine predecodes each basic block
// of the (immutable) Program once into a cached sequence of pre-bound
// operation records — operands, sign-extended immediates and pc-relative
// targets resolved at build time — and then dispatches through stored
// function pointers, one block at a time. On top of the block cache,
// straight-line runs of the three hot inner-loop shapes (the Algorithm
// 2/3/4 index-extract -> MAC -> slide chains) are fused into native C++
// loops ("superblocks") that track slid registers as element offsets
// instead of copying 16 lanes per slide.
//
// Blocks are also the unit the timing model's trace consumes: run_block()
// executes one whole block — fused chains included — and records, per
// instruction, the pre-execution values a timing::DynInst is built from
// (x[rs1], vl, gather offsets), so the trace never single-steps the engine.
//
// Correctness contract: every observable effect — architectural state,
// memory contents, instructions_retired, marker-hook calls, stop reasons
// and SimError text — is bit-identical to running the same program through
// Machine::step, and every run_block() record equals the value the
// interpreter's state held before that instruction. Anything outside the
// fast path falls back to the interpreter: SSR stream ops and illegal
// encodings execute via Machine::step, a chain whose runtime-resolved VRF
// row carries a pending deferred slide replays its original per-op
// records, and out-of-range pcs delegate to Machine::step so the fault text
// matches exactly.
//
// Block predecode is keyed by pc slot against the Program the Machine was
// constructed with; Programs are immutable after construction, so the
// cache never needs invalidation within a Machine's lifetime.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "fsim/engine.h"
#include "fsim/machine.h"

namespace indexmac {

/// Pre-execution values of one instruction of a traced block run.
struct OpRecord {
  /// x[rs1] before the instruction. Recorded for the ops whose trace entry
  /// depends on it (memory ops, indexed MACs); unspecified for the rest.
  std::uint64_t rs1 = 0;
  std::uint32_t vl = 0;  ///< vl before the instruction
};

/// What one ThreadedEngine::run_block() call executed. The arrays alias
/// engine storage, indexed by position in the block; they stay valid until
/// the engine next executes anything.
struct BlockTrace {
  std::uint32_t count = 0;        ///< instructions retired by the call
  const OpRecord* ops = nullptr;  ///< per instruction; null after a fallback step
  /// vluxei32 entries: the index vector v[rs2] before the gather.
  const std::array<std::uint32_t, isa::kVlMax>* gather = nullptr;
};

/// Threaded-code executor bound to one Machine. The Machine remains the
/// owner of all architectural state; this engine is a faster executor over
/// it, and interleaving ThreadedEngine and Machine::step calls is safe.
class ThreadedEngine {
 public:
  explicit ThreadedEngine(Machine& machine);
  ~ThreadedEngine();

  ThreadedEngine(const ThreadedEngine&) = delete;
  ThreadedEngine& operator=(const ThreadedEngine&) = delete;

  /// Runs until ebreak/ecall or `max_steps`, like Machine::run. Blocks
  /// whose instruction count exceeds the remaining budget execute through
  /// the interpreter so the stopping point is instruction-exact.
  StopReason run(std::uint64_t max_steps = 100'000'000);

  /// Machine::run_with_breakpoints semantics on this engine: stops BEFORE
  /// executing any pc in `breakpoints` (kRunning, pc parked on the
  /// breakpoint; a pc already in the set returns immediately). Blocks whose
  /// pc range contains a breakpoint execute instruction-by-instruction
  /// through the interpreter — superblock fusion never skips a breakpoint —
  /// while breakpoint-free blocks keep the predecoded fast path, so a
  /// debugged program still runs at near-threaded speed between stops.
  StopReason run_with_breakpoints(const BreakpointSet& breakpoints,
                                  std::uint64_t max_steps = 100'000'000);

  /// Executes exactly one predecoded block starting at the current pc, with
  /// superblock fusion, recording each instruction's pre-execution values
  /// into `trace`. At a pc without a block (fallback-class op, out-of-range
  /// pc) it instead executes one instruction through Machine::step (or
  /// raises its exact fault) and records nothing, so a caller that needs
  /// that instruction's pre-state reads it from the Machine first. Returns
  /// the stop reason of the last instruction executed.
  StopReason run_block(BlockTrace& trace);

  /// Execution counters (diagnostics; not architectural state).
  struct Stats {
    std::uint64_t blocks_built = 0;     ///< basic blocks predecoded
    std::uint64_t block_runs = 0;       ///< whole-block executions
    std::uint64_t superblock_macs = 0;  ///< MAC ops retired through fused chains
    std::uint64_t chain_bails = 0;      ///< chains replayed per-op (alias/vl guard)
    std::uint64_t fallback_steps = 0;   ///< instructions delegated to Machine::step
  };
  [[nodiscard]] const Stats& stats() const;

  [[nodiscard]] Machine& machine();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace indexmac
