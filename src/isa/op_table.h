// The instruction table: one constexpr row per isa::Op (isa/isa.cpp) that
// holds every static fact of the op. encode(), decode(), disassemble(),
// predecode(), mnemonic() and the text assembler are generic steps over the
// row, so adding an instruction is adding a row (plus its semantics in
// fsim/machine.cpp and fsim/threaded.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "isa/isa.h"
#include "isa/static_info.h"

namespace indexmac::isa {

/// Where an op's operands sit in the instruction word, and the range checks
/// encode() applies to them. Register fields are rd[11:7], rs1[19:15] and
/// rs2[24:20]; a field the row's mask fixes encodes as its fixed bits and
/// decodes as zero.
enum class Format : std::uint8_t {
  kR,       ///< rd, rs1, rs2
  kStream,  ///< kR whose rd names an SSR stream, 0..3
  kI,       ///< rd, rs1, signed 12-bit imm[31:20]
  kShift,   ///< rd, rs1, shamt[25:20] in 0..63
  kS,       ///< rs1, rs2, signed 12-bit imm[31:25|11:7]
  kB,       ///< rs1, rs2, even signed 13-bit branch offset
  kU,       ///< rd, signed 20-bit imm[31:12]
  kJ,       ///< rd, even signed 21-bit jump offset
  kMarker,  ///< unsigned 12-bit id in [31:20]
  kVtype,   ///< rd, rs1, 11-bit vtype in [30:20]
  kSimm5,   ///< rd, rs2, signed 5-bit imm in the rs1 slot
  kUimm5,   ///< rd, rs2, unsigned 5-bit imm in the rs1 slot
};

/// Text form of one assembly operand.
enum class Slot : std::uint8_t {
  kNone,    ///< end of the operand list
  kX,       ///< x register
  kF,       ///< f register
  kV,       ///< v register
  kImm,     ///< integer immediate
  kMem,     ///< "imm(xs1)"
  kVMem,    ///< "(xs1)": vector base address, no offset
  kTarget,  ///< PC-relative offset, written as a label in source text
  kStream,  ///< SSR stream id (an integer in the rd field)
  kVtype,   ///< vtype immediate, written "e32m1" in source text
};

/// Instruction register field an operand names (register slots, the base
/// of kMem/kVMem, and kStream).
enum class Field : std::uint8_t { kRd, kRs1, kRs2 };

struct Arg {
  Slot slot = Slot::kNone;
  Field field = Field::kRd;
};

/// Operand list in assembly order ("vd, vs2, xs1"), kNone-terminated.
using Syntax = std::array<Arg, 3>;

struct OpInfo {
  Op op;
  std::string_view name;  ///< mnemonic
  Format format;
  std::uint32_t match;  ///< fixed bits (riscv-opcodes MATCH)
  std::uint32_t mask;   ///< which bits are fixed (riscv-opcodes MASK)
  Syntax syntax;
  /// Operand-independent metadata; predecode() adds the operand-dependent
  /// part (an x write is dropped when rd is x0).
  StaticInstInfo info;
};

/// The row of `op`.
[[nodiscard]] const OpInfo& op_info(Op op);

/// The op whose mnemonic is `name`, or Op::kIllegal when there is none.
[[nodiscard]] Op find_op(std::string_view name);

/// The Instruction field `f` names.
[[nodiscard]] constexpr std::uint8_t& field(Instruction& in, Field f) {
  return f == Field::kRd ? in.rd : f == Field::kRs1 ? in.rs1 : in.rs2;
}
[[nodiscard]] constexpr std::uint8_t field(const Instruction& in, Field f) {
  return f == Field::kRd ? in.rd : f == Field::kRs1 ? in.rs1 : in.rs2;
}

}  // namespace indexmac::isa
