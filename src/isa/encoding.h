// Binary encoding and decoding between 32-bit RISC-V instruction words and
// the decoded Instruction form.
//
// Standard instructions follow the RISC-V unprivileged spec and RVV 1.0
// encodings. Custom instructions:
//   * vindexmac.vx  — OP-V, OPIVX funct3, funct6 0b110000 (RVV-reserved)
//   * vfindexmac.vx — OP-V, OPIVX funct3, funct6 0b110001 (RVV-reserved)
//   * the follow-up MACs — funct6 0b110010..0b110111 in the same space
//   * marker        — custom-0 opcode (0x0b), I-type layout, id in imm[11:0]
//   * ssrcfg/ssren  — custom-0 opcode under funct3 001/010
// Each op's MATCH/MASK bits and operand format are its row in the
// instruction table (isa/op_table.h).
#pragma once

#include <cstdint>
#include <string>

#include "isa/isa.h"

namespace indexmac::isa {

/// Encodes `inst` to its 32-bit instruction word. Throws SimError for
/// out-of-range immediates or ops this subset cannot encode.
[[nodiscard]] std::uint32_t encode(const Instruction& inst);

/// Decodes one instruction word: the op whose (word & MASK) == MATCH, with
/// the operand fields its format carries and every other field zero.
/// Returns Op::kIllegal inside the result (never throws) for words outside
/// the supported subset; `error` (when non-null) receives a diagnostic in
/// that case.
[[nodiscard]] Instruction decode(std::uint32_t word, std::string* error = nullptr);

/// Renders a decoded instruction in the syntax the text assembler accepts,
/// e.g. "vindexmac.vx v2, v4, x7" or "lw x5, 16(x6)".
[[nodiscard]] std::string disassemble(const Instruction& inst);

}  // namespace indexmac::isa
