// Dynamic instruction trace: the timing model is trace-driven off the
// functional simulator, which supplies the correct execution path, memory
// addresses, vector lengths and resolved vindexmac register indices.
// Wrong-path (mis-speculated) instructions are not simulated; the branch
// mispredict penalty models the front-end refill (see docs/simplifications.md).
//
// The source advances the functional simulator on the threaded engine one
// unit at a time and then hands the unit's instructions out one by one. A
// unit is one whole predecoded block, fused chains included
// (ThreadedEngine::run_block), and each DynInst is built from the
// pre-execution values the block recorded. Fallback-class ops (SSR,
// illegal) stay single-instruction units, built from the live pre-state
// and then executed through run_block's Machine::step fallback. Every
// record equals what the interpreter's state held before that instruction
// (the engine's correctness contract; tests/trace_reference.h re-derives
// the stream from Machine::step independently). The Machine can be up to
// one block ahead of the last delivered instruction; next_pc() names the
// instruction next() will deliver.
//
// The trace is zero-allocation: next() fills a caller-owned DynInst slot in
// place, gather addresses live in a fixed scratch buffer owned by the
// TraceSource (vl never exceeds isa::kVlMax), and block records live in
// engine storage sized when the block was built, so retiring an
// instruction — gathers included — performs no heap allocation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "common/error.h"
#include "fsim/machine.h"
#include "fsim/threaded.h"
#include "isa/isa.h"
#include "isa/static_info.h"

namespace indexmac::timing {

/// One dynamic (executed) instruction with everything timing needs.
/// `info` and `gather_addrs` point into Program / TraceSource storage; a
/// DynInst is only valid until the next TraceSource::next() call.
struct DynInst {
  isa::Instruction inst;
  const isa::StaticInstInfo* info = nullptr;  ///< predecoded metadata for inst
  std::uint64_t pc = 0;
  bool branch_taken = false;        ///< branches/jumps: control transferred
  bool is_halt = false;             ///< ebreak/ecall
  std::uint64_t mem_addr = 0;       ///< loads/stores: effective address
  std::uint32_t mem_bytes = 0;      ///< loads/stores: access size
  std::uint32_t vl = 0;             ///< vector length governing this op
  std::uint8_t indirect_vreg = 0;   ///< v(f)indexmac*: resolved VRF source
  std::uint8_t indirect_vreg2 = 0;  ///< dual-row forms: second VRF source
  std::uint64_t ssr_value_addr = 0;  ///< v(f)indexmacs: stream-0 word address
  std::uint64_t ssr_index_addr = 0;  ///< v(f)indexmacs: stream-1 word address
  std::uint32_t gather_count = 0;   ///< vluxei32: number of element addresses
  const std::uint64_t* gather_addrs = nullptr;  ///< vluxei32: per-element addresses
  std::int32_t marker_id = -1;      ///< markers: id, else -1
  /// ssrcfg/ssren: bit s set iff this op reprograms stream s's address
  /// generator (ssrcfg: the stream named by rd; ssren: the streams being
  /// enabled, which rewind to their base). Timing uses this to invalidate
  /// only the affected streams' line buffers.
  std::uint8_t ssr_ctl_mask = 0;
};

/// Pulls dynamic instructions from a functional Machine.
class TraceSource {
 public:
  /// `engine` advances `machine` block by block; it must be bound to
  /// `machine`. When null, the source builds and owns an engine of its
  /// own. Marker hooks on `machine` fire as each block executes, which can
  /// be ahead of delivery.
  explicit TraceSource(Machine& machine, ThreadedEngine* engine = nullptr)
      : machine_(machine),
        owned_(engine == nullptr ? std::make_unique<ThreadedEngine>(machine) : nullptr),
        engine_(engine == nullptr ? *owned_ : *engine),
        code_(machine.program().decoded().data()),
        info_(machine.program().static_info().data()),
        base_(machine.program().base()),
        code_bytes_(machine.program().end() - machine.program().base()) {}

  /// Fills `out` with the next executed instruction and returns true, or
  /// returns false after the halt instruction has been delivered (the halt
  /// itself is delivered with is_halt=true). `out.gather_addrs` aliases
  /// scratch storage owned by this TraceSource: it is overwritten by the
  /// following next() call and must not outlive it.
  bool next(DynInst& out) {
    if (done_) return false;
    if (pos_ == count_) {
      // Block drained: the machine sits on the next undelivered pc.
      const std::size_t slot = slot_of(machine_.state().pc);
      if (info_[slot].has(isa::kSiThreadedFallback)) return step_unit(out, slot);
      slot_ = slot;
      stop_ = engine_.run_block(block_);
      pos_ = 0;
      count_ = block_.count;
    }
    const std::uint32_t i = pos_++;
    const OpRecord& rec = block_.ops[i];
    const isa::StaticInstInfo& si =
        fill(out, slot_ + i, rec.rs1, rec.vl, block_.gather[i].data());
    finish(out, si, pos_ == count_ ? stop_ : StopReason::kRunning);
    return true;
  }

  /// The pc of the instruction the next next() call delivers (the machine's
  /// pc once the current unit is drained).
  [[nodiscard]] std::uint64_t next_pc() const {
    return pos_ < count_ ? base_ + 4ull * (slot_ + pos_) : machine_.state().pc;
  }

 private:
  /// Delivers the fallback-class instruction in `slot` as a unit of its
  /// own, built from the live pre-state and executed by run_block()'s
  /// Machine::step fallback.
  bool step_unit(DynInst& out, std::size_t slot) {
    const ArchState& pre = machine_.state();
    const isa::Instruction& in = code_[slot];
    const isa::StaticInstInfo& si = fill(out, slot, pre.x[in.rs1], pre.vl, pre.v[in.rs2].data());
    finish(out, si, engine_.run_block(block_));
    return true;
  }

  /// The program slot of `pc`; raises when pc is outside the program.
  std::size_t slot_of(std::uint64_t pc) const {
    const std::uint64_t offset = pc - base_;
    if (pc < base_ || offset >= code_bytes_ || (offset & 3) != 0)
      raise("trace: " + describe_pc(machine_.program(), pc));
    return offset >> 2;
  }

  /// Builds the DynInst of the instruction in `slot` from the values it
  /// reads before executing: x[rs1], vl and (gathers) the v[rs2] offsets.
  /// SSR ops always run as single-instruction units, so their stream state
  /// is read from the live machine, still pre-execution.
  const isa::StaticInstInfo& fill(DynInst& out, std::size_t slot, std::uint64_t rs1,
                                  std::uint32_t vl, const std::uint32_t* offsets) {
    const isa::Instruction& in = code_[slot];
    const isa::StaticInstInfo& si = info_[slot];
    out.inst = in;
    out.info = &si;
    out.pc = base_ + 4ull * slot;
    out.vl = vl;
    out.mem_addr = 0;
    out.mem_bytes = 0;
    out.indirect_vreg = 0;
    out.indirect_vreg2 = 0;
    out.ssr_value_addr = 0;
    out.ssr_index_addr = 0;
    out.gather_count = 0;
    out.gather_addrs = gather_scratch_.data();
    out.marker_id = -1;
    out.ssr_ctl_mask = 0;
    if (si.has(isa::kSiGather)) {
      for (unsigned i = 0; i < vl; ++i) gather_scratch_[i] = rs1 + offsets[i];
      out.gather_count = vl;
      out.mem_bytes = vl * 4;
    } else if (si.has(isa::kSiScalarLoad | isa::kSiScalarStore)) {
      out.mem_addr = rs1 + static_cast<std::int64_t>(in.imm);
      out.mem_bytes = si.scalar_mem_bytes;
    } else if (si.has(isa::kSiVectorLoad | isa::kSiVectorStore)) {
      out.mem_addr = rs1;
      out.mem_bytes = vl * 4;
    } else if (si.has(isa::kSiIndirectVreg)) {
      if (si.has(isa::kSiPackedIndex)) {
        out.indirect_vreg = static_cast<std::uint8_t>(16u | (rs1 & 0xf));
        if (si.has(isa::kSiDualMac))
          out.indirect_vreg2 = static_cast<std::uint8_t>(16u | ((rs1 >> 4) & 0xf));
      } else {
        out.indirect_vreg = static_cast<std::uint8_t>(rs1 & 0x1f);
      }
    } else if (si.has(isa::kSiSsrMac)) {
      // Streaming MAC: resolve the stream word addresses and the indirect
      // VRF source before the machine advances the stream positions. The
      // machine itself raises on a disabled/empty stream when it executes.
      const auto& streams = machine_.ssr();
      out.ssr_value_addr = streams[0].base + 4ull * streams[0].pos;
      out.ssr_index_addr = streams[1].base + 4ull * streams[1].pos;
      if (streams[1].enabled && streams[1].count != 0)
        out.indirect_vreg = static_cast<std::uint8_t>(
            machine_.memory().read_u32(out.ssr_index_addr) & 0x1f);
    } else if (si.has(isa::kSiSsrCtl)) {
      out.ssr_ctl_mask = in.op == isa::Op::kSsrCfg ? static_cast<std::uint8_t>(1u << in.rd)
                                                   : static_cast<std::uint8_t>(rs1 & 0xf);
    } else if (si.has(isa::kSiMarker)) {
      out.marker_id = in.imm;
    }
    return si;
  }

  /// Sets the outcome fields of `out` (whose static info is `si`) once its
  /// unit has executed. Only a unit's last instruction can branch, jump or
  /// halt, so the machine's pc is its successor and `stop` its stop reason.
  void finish(DynInst& out, const isa::StaticInstInfo& si, StopReason stop) {
    out.branch_taken =
        si.has(isa::kSiBranch | isa::kSiJump) && machine_.state().pc != out.pc + 4;
    out.is_halt = stop == StopReason::kEbreak || stop == StopReason::kEcall;
    done_ = out.is_halt;
  }

  Machine& machine_;
  std::unique_ptr<ThreadedEngine> owned_;  ///< set when no engine was passed in
  ThreadedEngine& engine_;
  const isa::Instruction* code_;
  const isa::StaticInstInfo* info_;
  std::uint64_t base_;
  std::uint64_t code_bytes_;
  std::array<std::uint64_t, isa::kVlMax> gather_scratch_{};
  BlockTrace block_;           ///< the engine block being delivered
  std::size_t slot_ = 0;       ///< its first slot
  std::uint32_t pos_ = 0;      ///< next instruction of it to deliver
  std::uint32_t count_ = 0;    ///< its length (0: no block pending)
  StopReason stop_ = StopReason::kRunning;  ///< its last instruction's stop reason
  bool done_ = false;
};

}  // namespace indexmac::timing
