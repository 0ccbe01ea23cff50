// A small text-form assembler for the supported subset, accepting the same
// syntax that isa::disassemble() emits plus labels, comments, and ABI
// register names. Useful for examples and for writing kernels by hand.
// Mnemonics and operand shapes come from the instruction table
// (isa/op_table.h); only li/mv/nop/j are expanded here.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "asm/program.h"

namespace indexmac {

/// Result of assembling a text listing.
struct AssembledText {
  Program program;
  /// Label name -> absolute address.
  std::map<std::string, std::uint64_t> symbols;
};

/// Assembles `source` (one instruction or "label:" per line; '#' and "//"
/// comments). Throws SimError with a line-numbered message on any error,
/// including out-of-range immediates, which the encoder checks as each
/// line is parsed.
[[nodiscard]] AssembledText assemble_text(const std::string& source,
                                          std::uint64_t base = 0x1000);

/// Renders `program` as re-assemblable source: branch/jal targets become
/// synthesized "L<n>" labels (the text assembler accepts only symbolic
/// targets), everything else is plain disassembly. For any program,
/// assemble_text(program_to_source(p), p.base()) reproduces the original
/// instruction words bit-exactly (tests/test_kernel_roundtrip.cpp).
[[nodiscard]] std::string program_to_source(const Program& program);

}  // namespace indexmac
