// Independent trace oracle for timing::TraceSource.
//
// reference_next() re-derives every DynInst field of the instruction at the
// machine's pc from the architectural state just before Machine::step
// executes it, then steps. It shares nothing with TraceSource::fill: the
// fields are worked out per isa::Op from the ISA's definition (see the Op
// comments in isa/isa.h), not from StaticInstInfo flags or engine block
// records, so a defect in the trace's record keeping or in fill() shows up
// as a field mismatch against this stream.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <vector>

#include "fsim/machine.h"
#include "isa/isa.h"
#include "timing/trace.h"

namespace indexmac::trace_reference {

/// One DynInst as the ISA defines it, owning its gather addresses.
struct Record {
  isa::Instruction inst;
  std::uint64_t pc = 0;
  bool branch_taken = false;
  bool is_halt = false;
  std::uint64_t mem_addr = 0;
  std::uint32_t mem_bytes = 0;
  std::uint32_t vl = 0;
  std::uint8_t indirect_vreg = 0;
  std::uint8_t indirect_vreg2 = 0;
  std::uint64_t ssr_value_addr = 0;
  std::uint64_t ssr_index_addr = 0;
  std::vector<std::uint64_t> gather_addrs;
  std::int32_t marker_id = -1;
  std::uint8_t ssr_ctl_mask = 0;
};

/// Builds the record of the instruction at `machine`'s pc from its
/// pre-state, then executes it with Machine::step.
inline Record reference_next(Machine& machine) {
  using isa::Op;
  const ArchState& pre = machine.state();
  Record out;
  out.pc = pre.pc;
  out.inst = machine.program().at(pre.pc);
  out.vl = pre.vl;
  const isa::Instruction& in = out.inst;
  const std::uint64_t rs1 = pre.x[in.rs1];
  bool control = false;
  switch (in.op) {
    case Op::kLw:
    case Op::kLwu:
    case Op::kSw:
    case Op::kFlw:
    case Op::kFsw:
      out.mem_addr = rs1 + static_cast<std::int64_t>(in.imm);
      out.mem_bytes = 4;
      break;
    case Op::kLd:
    case Op::kSd:
      out.mem_addr = rs1 + static_cast<std::int64_t>(in.imm);
      out.mem_bytes = 8;
      break;
    case Op::kVle32:
    case Op::kVse32:
      out.mem_addr = rs1;
      out.mem_bytes = pre.vl * 4;
      break;
    case Op::kVluxei32:
      for (unsigned i = 0; i < pre.vl; ++i) out.gather_addrs.push_back(rs1 + pre.v[in.rs2][i]);
      out.mem_bytes = pre.vl * 4;
      break;
    case Op::kVindexmacVx:
    case Op::kVfindexmacVx:
      out.indirect_vreg = static_cast<std::uint8_t>(rs1 & 0x1f);
      break;
    case Op::kVindexmacpVx:
    case Op::kVfindexmacpVx:
      out.indirect_vreg = static_cast<std::uint8_t>(16 | (rs1 & 0xf));
      break;
    case Op::kVindexmac2Vx:
    case Op::kVfindexmac2Vx:
      out.indirect_vreg = static_cast<std::uint8_t>(16 | (rs1 & 0xf));
      out.indirect_vreg2 = static_cast<std::uint8_t>(16 | ((rs1 >> 4) & 0xf));
      break;
    case Op::kVindexmacsV:
    case Op::kVfindexmacsV: {
      // The words the streams pop next: the value from stream 0 and the
      // VRF row from stream 1, which names the indirect source.
      const SsrStream& value = machine.ssr()[0];
      const SsrStream& index = machine.ssr()[1];
      out.ssr_value_addr = value.base + 4ull * value.pos;
      out.ssr_index_addr = index.base + 4ull * index.pos;
      if (index.enabled && index.count != 0)
        out.indirect_vreg =
            static_cast<std::uint8_t>(machine.memory().read_u32(out.ssr_index_addr) & 0x1f);
      break;
    }
    case Op::kSsrCfg:  // reprograms the stream named by rd
      out.ssr_ctl_mask = static_cast<std::uint8_t>(1u << in.rd);
      break;
    case Op::kSsrEn:  // rewinds the streams it enables
      out.ssr_ctl_mask = static_cast<std::uint8_t>(rs1 & 0xf);
      break;
    case Op::kMarker:
      out.marker_id = in.imm;
      break;
    case Op::kJal:
    case Op::kJalr:
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
      control = true;
      break;
    default:
      break;
  }
  const StopReason stop = machine.step();
  out.branch_taken = control && machine.state().pc != out.pc + 4;
  out.is_halt = stop == StopReason::kEbreak || stop == StopReason::kEcall;
  return out;
}

/// Field-by-field comparison of a delivered DynInst against the oracle.
inline ::testing::AssertionResult matches(const timing::DynInst& d, const Record& want) {
  const auto fail = [&](const char* field) {
    return ::testing::AssertionFailure()
           << field << " differs at pc 0x" << std::hex << want.pc << std::dec;
  };
  if (!(d.inst == want.inst)) return fail("inst");
  if (d.info == nullptr) return fail("info (null)");
  if (d.pc != want.pc) return fail("pc");
  if (d.branch_taken != want.branch_taken) return fail("branch_taken");
  if (d.is_halt != want.is_halt) return fail("is_halt");
  if (d.mem_addr != want.mem_addr) return fail("mem_addr");
  if (d.mem_bytes != want.mem_bytes) return fail("mem_bytes");
  if (d.vl != want.vl) return fail("vl");
  if (d.indirect_vreg != want.indirect_vreg) return fail("indirect_vreg");
  if (d.indirect_vreg2 != want.indirect_vreg2) return fail("indirect_vreg2");
  if (d.ssr_value_addr != want.ssr_value_addr) return fail("ssr_value_addr");
  if (d.ssr_index_addr != want.ssr_index_addr) return fail("ssr_index_addr");
  if (d.gather_count != want.gather_addrs.size()) return fail("gather_count");
  for (std::uint32_t i = 0; i < d.gather_count; ++i)
    if (d.gather_addrs[i] != want.gather_addrs[i]) return fail("gather_addrs");
  if (d.marker_id != want.marker_id) return fail("marker_id");
  if (d.ssr_ctl_mask != want.ssr_ctl_mask) return fail("ssr_ctl_mask");
  return ::testing::AssertionSuccess();
}

/// Drains `trace` against the oracle stepping `reference`, a second
/// Machine on the same program and initial memory. Stops at the first
/// mismatch. Returns the number of instructions compared (the halt
/// included).
inline std::uint64_t drain_against(timing::TraceSource& trace, Machine& reference) {
  std::uint64_t n = 0;
  timing::DynInst d;
  while (trace.next(d)) {
    const ::testing::AssertionResult eq = matches(d, reference_next(reference));
    if (!eq) {
      ADD_FAILURE() << eq.message() << " (instruction " << n << ")";
      return n;
    }
    if (++n > 50'000'000) {
      ADD_FAILURE() << "trace did not terminate";
      return n;
    }
  }
  EXPECT_TRUE(d.is_halt) << "trace ended after " << n << " instructions without a halt";
  return n;
}

}  // namespace indexmac::trace_reference
