// Dynamic instruction trace: the timing model is trace-driven off the
// functional simulator, which supplies the correct execution path, memory
// addresses, vector lengths and resolved vindexmac register indices.
// Wrong-path (mis-speculated) instructions are not simulated; the branch
// mispredict penalty models the front-end refill (see docs/simplifications.md).
//
// The source advances the functional simulator on the threaded engine one
// unit at a time (next_unit). A unit is one whole predecoded block, fused
// chains included (ThreadedEngine::run_block), with the pre-execution
// values the block recorded per instruction; fallback-class ops (SSR,
// illegal) are single-instruction units whose values — SSR stream words
// included — are read from the live pre-state before run_block's
// Machine::step fallback executes them. The timing model walks a unit's
// slots through OpView, which derives addresses, indirect registers and the
// like from those values only where the model reads them. Every record
// equals what the interpreter's state held before that instruction (the
// engine's correctness contract; tests/trace_reference.h re-derives the
// stream from Machine::step independently). next(DynInst&) is an adapter
// that hands a unit's instructions out one by one, each filled from the same
// view. The Machine can be up to one unit ahead of the last consumed
// instruction; its pc names the first instruction of the next unit.
//
// The trace is zero-allocation: units alias engine storage sized when the
// block was built, next() fills a caller-owned DynInst in place and its
// gather addresses live in a fixed scratch buffer owned by the TraceSource
// (vl never exceeds isa::kVlMax), so retiring an instruction — gathers
// included — performs no heap allocation.
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

/// The stream words a streaming MAC (v(f)indexmacs) pops next, resolved
/// from the pre-state of its fallback unit.
struct SsrOperands {
  std::uint64_t value_addr = 0;  ///< stream-0 word address
  std::uint64_t index_addr = 0;  ///< stream-1 word address
  std::uint8_t vreg = 0;         ///< VRF row the stream-1 word names (0 if none)
};

/// One unit of the trace: a whole engine block or one fallback instruction.
/// The pointers alias engine / TraceSource storage and stay valid until the
/// next next_unit() or next() call.
struct TraceUnit {
  std::size_t slot = 0;           ///< program slot of the first instruction
  std::uint32_t count = 0;        ///< instructions in the unit
  const OpRecord* ops = nullptr;  ///< per instruction: pre-execution x[rs1], vl
  /// vluxei32 entries: the offsets v[rs2] held before the gather, indexed
  /// like ops; null for fallback units.
  const std::array<std::uint32_t, isa::kVlMax>* gather = nullptr;
  std::uint64_t exit_pc = 0;      ///< machine pc after the unit: its last op's successor
  StopReason stop = StopReason::kRunning;  ///< stop reason of the last instruction

  [[nodiscard]] bool halts() const {
    return stop == StopReason::kEbreak || stop == StopReason::kEcall;
  }
};

/// One instruction of a unit as the timing model reads it: the static
/// instruction and its predecoded info plus the values recorded before it
/// executed. Everything else is derived on access, so an op pays only for
/// the fields its timing path reads.
struct OpView {
  const isa::Instruction& inst;
  const isa::StaticInstInfo& info;
  std::uint64_t pc;
  std::uint64_t rs1;               ///< x[rs1] before the instruction
  std::uint32_t vl;                ///< vl before the instruction
  const std::uint32_t* offsets;    ///< vluxei32: v[rs2] before it, else null
  std::uint64_t successor;         ///< pc executed next (pc + 4 inside a unit)
  const SsrOperands& ssr;          ///< v(f)indexmacs: the stream words it pops

  /// Branches/jumps: control transferred.
  [[nodiscard]] bool taken() const { return successor != pc + 4; }
  /// Scalar loads/stores and unit-stride vector loads/stores.
  [[nodiscard]] std::uint64_t mem_addr() const {
    return info.has(isa::kSiVector) ? rs1 : rs1 + static_cast<std::int64_t>(inst.imm);
  }
  [[nodiscard]] std::uint32_t mem_bytes() const {
    return info.has(isa::kSiVector) ? vl * 4 : info.scalar_mem_bytes;
  }
  /// vluxei32: the address of element i (i < vl).
  [[nodiscard]] std::uint64_t gather_addr(std::uint32_t i) const { return rs1 + offsets[i]; }
  /// v(f)indexmac*: the (first) VRF row read through x[rs1]; streaming
  /// MACs: the row their stream-1 word names.
  [[nodiscard]] std::uint8_t indirect_vreg() const {
    if (info.has(isa::kSiSsrMac)) return ssr.vreg;
    if (info.has(isa::kSiPackedIndex)) return static_cast<std::uint8_t>(16u | (rs1 & 0xf));
    return static_cast<std::uint8_t>(rs1 & 0x1f);
  }
  /// Dual-row forms: the second VRF row.
  [[nodiscard]] std::uint8_t indirect_vreg2() const {
    return static_cast<std::uint8_t>(16u | ((rs1 >> 4) & 0xf));
  }
  /// Markers: the event id.
  [[nodiscard]] std::int32_t marker_id() const { return inst.imm; }
  /// ssrcfg/ssren: bit s set iff the op reprograms stream s's address
  /// generator (ssrcfg: the stream named by rd; ssren: the streams being
  /// enabled, which rewind to their base).
  [[nodiscard]] std::uint8_t ssr_ctl_mask() const {
    return inst.op == isa::Op::kSsrCfg ? static_cast<std::uint8_t>(1u << inst.rd)
                                       : static_cast<std::uint8_t>(rs1 & 0xf);
  }
};

/// One dynamic (executed) instruction with every trace field filled in:
/// what TraceSource::next() hands out, one OpView expanded. `info` and
/// `gather_addrs` point into Program / TraceSource storage; a DynInst is
/// only valid until the next TraceSource::next() call.
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
  std::uint8_t ssr_ctl_mask = 0;    ///< ssrcfg/ssren: OpView::ssr_ctl_mask()
};

/// Pulls trace units from a functional Machine.
class TraceSource {
 public:
  /// `engine` advances `machine` block by block; it must be bound to
  /// `machine`. When null, the source builds and owns an engine of its
  /// own. Marker hooks on `machine` fire as each block executes, which can
  /// be ahead of consumption.
  explicit TraceSource(Machine& machine, ThreadedEngine* engine = nullptr)
      : machine_(machine),
        owned_(engine == nullptr ? std::make_unique<ThreadedEngine>(machine) : nullptr),
        engine_(engine == nullptr ? *owned_ : *engine),
        code_(machine.program().decoded().data()),
        info_(machine.program().static_info().data()),
        base_(machine.program().base()),
        code_bytes_(machine.program().end() - machine.program().base()) {}

  /// Executes the unit at the machine's pc and describes it in `unit`.
  /// Must not be called once a unit has halted.
  void next_unit(TraceUnit& unit) {
    const std::size_t slot = slot_of(machine_.state().pc);
    unit.slot = slot;
    if (info_[slot].has(isa::kSiThreadedFallback)) {
      // A fallback unit: read its values from the live pre-state, then let
      // run_block()'s Machine::step fallback execute it.
      const ArchState& pre = machine_.state();
      const isa::Instruction& in = code_[slot];
      fallback_rec_ = OpRecord{pre.x[in.rs1], pre.vl};
      if (info_[slot].has(isa::kSiSsrMac)) resolve_streams();
      unit.count = 1;
      unit.ops = &fallback_rec_;
      unit.gather = nullptr;
      BlockTrace ignored;
      unit.stop = engine_.run_block(ignored);
    } else {
      BlockTrace block;
      unit.stop = engine_.run_block(block);
      unit.count = block.count;
      unit.ops = block.ops;
      unit.gather = block.gather;
    }
    unit.exit_pc = machine_.state().pc;
  }

  /// The view of instruction `i` of `unit`.
  [[nodiscard]] OpView op(const TraceUnit& unit, std::uint32_t i) const {
    const std::size_t slot = unit.slot + i;
    const std::uint64_t pc = pc_of(slot);
    return OpView{code_[slot],
                  info_[slot],
                  pc,
                  unit.ops[i].rs1,
                  unit.ops[i].vl,
                  unit.gather != nullptr ? unit.gather[i].data() : nullptr,
                  i + 1 == unit.count ? unit.exit_pc : pc + 4,
                  ssr_};
  }

  /// Fills `out` with the next executed instruction and returns true, or
  /// returns false after the halt instruction has been delivered (the halt
  /// itself is delivered with is_halt=true). `out.gather_addrs` aliases
  /// scratch storage owned by this TraceSource: it is overwritten by the
  /// following next() call and must not outlive it.
  bool next(DynInst& out) {
    if (pos_ == unit_.count) {
      if (unit_.count != 0 && unit_.halts()) return false;
      next_unit(unit_);
      pos_ = 0;
    }
    const std::uint32_t i = pos_++;
    fill(out, op(unit_, i));
    out.is_halt = pos_ == unit_.count && unit_.halts();
    return true;
  }

  [[nodiscard]] std::uint64_t pc_of(std::size_t slot) const { return base_ + 4ull * slot; }

 private:
  /// The program slot of `pc`; raises when pc is outside the program.
  std::size_t slot_of(std::uint64_t pc) const {
    const std::uint64_t offset = pc - base_;
    if (pc < base_ || offset >= code_bytes_ || (offset & 3) != 0)
      raise("trace: " + describe_pc(machine_.program(), pc));
    return offset >> 2;
  }

  /// Resolves the stream words the streaming MAC about to execute pops,
  /// before the machine advances the stream positions. The machine itself
  /// raises on a disabled/empty stream when it executes.
  void resolve_streams() {
    const auto& streams = machine_.ssr();
    ssr_.value_addr = streams[0].base + 4ull * streams[0].pos;
    ssr_.index_addr = streams[1].base + 4ull * streams[1].pos;
    ssr_.vreg = streams[1].enabled && streams[1].count != 0
                    ? static_cast<std::uint8_t>(machine_.memory().read_u32(ssr_.index_addr) & 0x1f)
                    : 0;
  }

  /// Expands `v` into every DynInst field.
  void fill(DynInst& out, const OpView& v) {
    const isa::StaticInstInfo& si = v.info;
    out.inst = v.inst;
    out.info = &si;
    out.pc = v.pc;
    out.vl = v.vl;
    out.branch_taken = si.has(isa::kSiBranch | isa::kSiJump) && v.taken();
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
      for (std::uint32_t i = 0; i < v.vl; ++i) gather_scratch_[i] = v.gather_addr(i);
      out.gather_count = v.vl;
      out.mem_bytes = v.mem_bytes();
    } else if (si.has(isa::kSiScalarLoad | isa::kSiScalarStore | isa::kSiVectorLoad |
                      isa::kSiVectorStore)) {
      out.mem_addr = v.mem_addr();
      out.mem_bytes = v.mem_bytes();
    } else if (si.has(isa::kSiIndirectVreg)) {
      out.indirect_vreg = v.indirect_vreg();
      if (si.has(isa::kSiDualMac)) out.indirect_vreg2 = v.indirect_vreg2();
    } else if (si.has(isa::kSiSsrMac)) {
      out.ssr_value_addr = v.ssr.value_addr;
      out.ssr_index_addr = v.ssr.index_addr;
      out.indirect_vreg = v.indirect_vreg();
    } else if (si.has(isa::kSiSsrCtl)) {
      out.ssr_ctl_mask = v.ssr_ctl_mask();
    } else if (si.has(isa::kSiMarker)) {
      out.marker_id = v.marker_id();
    }
  }

  Machine& machine_;
  std::unique_ptr<ThreadedEngine> owned_;  ///< set when no engine was passed in
  ThreadedEngine& engine_;
  const isa::Instruction* code_;
  const isa::StaticInstInfo* info_;
  std::uint64_t base_;
  std::uint64_t code_bytes_;
  OpRecord fallback_rec_;  ///< the values of the current fallback unit
  SsrOperands ssr_;        ///< the stream words of the last streaming MAC unit
  std::array<std::uint64_t, isa::kVlMax> gather_scratch_{};
  TraceUnit unit_;         ///< the unit next() is handing out
  std::uint32_t pos_ = 0;  ///< next instruction of it to deliver
};

}  // namespace indexmac::timing
