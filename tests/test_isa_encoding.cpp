#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "asm/program.h"
#include "asm/text_assembler.h"
#include "common/bitutil.h"
#include "common/error.h"
#include "isa/encoding.h"
#include "isa/isa.h"
#include "isa/static_info.h"

#ifndef INDEXMAC_GOLDEN_DIR
#error "tests/CMakeLists.txt must define INDEXMAC_GOLDEN_DIR"
#endif

namespace indexmac::isa {
namespace {

/// Round-trip (encode -> decode) must reproduce the instruction exactly.
void expect_roundtrip(const Instruction& inst) {
  std::string err;
  const std::uint32_t word = encode(inst);
  const Instruction back = decode(word, &err);
  EXPECT_EQ(back, inst) << "word=0x" << std::hex << word << " err=" << err
                        << " disasm=" << disassemble(inst);
}

TEST(IsaEncoding, RoundTripScalarAluRegister) {
  for (Op op : {Op::kAdd, Op::kSub, Op::kSll, Op::kSlt, Op::kSltu, Op::kXor, Op::kSrl, Op::kSra,
                Op::kOr, Op::kAnd, Op::kMul}) {
    expect_roundtrip(Instruction{op, 1, 2, 3, 0});
    expect_roundtrip(Instruction{op, 31, 30, 29, 0});
  }
}

TEST(IsaEncoding, RoundTripScalarAluImmediate) {
  for (Op op : {Op::kAddi, Op::kSlti, Op::kSltiu, Op::kXori, Op::kOri, Op::kAndi}) {
    expect_roundtrip(Instruction{op, 5, 6, 0, 2047});
    expect_roundtrip(Instruction{op, 5, 6, 0, -2048});
    expect_roundtrip(Instruction{op, 0, 0, 0, 0});
  }
}

TEST(IsaEncoding, RoundTripShifts) {
  for (Op op : {Op::kSlli, Op::kSrli, Op::kSrai}) {
    expect_roundtrip(Instruction{op, 7, 8, 0, 0});
    expect_roundtrip(Instruction{op, 7, 8, 0, 63});
  }
}

TEST(IsaEncoding, RoundTripLoadsStores) {
  expect_roundtrip(Instruction{Op::kLw, 4, 9, 0, 128});
  expect_roundtrip(Instruction{Op::kLwu, 4, 9, 0, -4});
  expect_roundtrip(Instruction{Op::kLd, 4, 9, 0, 2040});
  expect_roundtrip(Instruction{Op::kSw, 0, 9, 4, -2048});
  expect_roundtrip(Instruction{Op::kSd, 0, 9, 4, 16});
  expect_roundtrip(Instruction{Op::kFlw, 3, 9, 0, 12});
  expect_roundtrip(Instruction{Op::kFsw, 0, 9, 3, -12});
}

TEST(IsaEncoding, RoundTripBranchesAndJumps) {
  for (Op op : {Op::kBeq, Op::kBne, Op::kBlt, Op::kBge, Op::kBltu, Op::kBgeu}) {
    expect_roundtrip(Instruction{op, 0, 1, 2, 4094});
    expect_roundtrip(Instruction{op, 0, 1, 2, -4096});
    expect_roundtrip(Instruction{op, 0, 1, 2, -4});
  }
  expect_roundtrip(Instruction{Op::kJal, 1, 0, 0, 1048574});
  expect_roundtrip(Instruction{Op::kJal, 1, 0, 0, -1048576});
  expect_roundtrip(Instruction{Op::kJalr, 1, 2, 0, -2});
  expect_roundtrip(Instruction{Op::kLui, 10, 0, 0, 0x7ffff});
  expect_roundtrip(Instruction{Op::kLui, 10, 0, 0, -0x80000});
  expect_roundtrip(Instruction{Op::kAuipc, 10, 0, 0, 1});
}

TEST(IsaEncoding, RoundTripSystemAndMarker) {
  expect_roundtrip(Instruction{Op::kEcall, 0, 0, 0, 0});
  expect_roundtrip(Instruction{Op::kEbreak, 0, 0, 0, 0});
  expect_roundtrip(Instruction{Op::kMarker, 0, 0, 0, 0});
  expect_roundtrip(Instruction{Op::kMarker, 0, 0, 0, 4095});
}

TEST(IsaEncoding, RoundTripVectorConfigAndMemory) {
  expect_roundtrip(Instruction{Op::kVsetvli, 5, 6, 0, kVtypeE32M1});
  expect_roundtrip(Instruction{Op::kVle32, 8, 11, 0, 0});
  expect_roundtrip(Instruction{Op::kVse32, 9, 12, 0, 0});
}

TEST(IsaEncoding, RoundTripVectorArithmetic) {
  expect_roundtrip(Instruction{Op::kVaddVx, 1, 2, 3, 0});
  expect_roundtrip(Instruction{Op::kVaddVi, 1, 0, 3, -16});
  expect_roundtrip(Instruction{Op::kVaddVi, 1, 0, 3, 15});
  expect_roundtrip(Instruction{Op::kVmaccVx, 4, 5, 6, 0});
  expect_roundtrip(Instruction{Op::kVfmaccVf, 4, 5, 6, 0});
  expect_roundtrip(Instruction{Op::kVmvVX, 7, 8, 0, 0});
  expect_roundtrip(Instruction{Op::kVmvVI, 7, 0, 0, -1});
  expect_roundtrip(Instruction{Op::kVmvXS, 9, 0, 10, 0});
  expect_roundtrip(Instruction{Op::kVfmvFS, 9, 0, 10, 0});
  expect_roundtrip(Instruction{Op::kVmvSX, 11, 12, 0, 0});
  expect_roundtrip(Instruction{Op::kVslidedownVx, 13, 14, 15, 0});
  expect_roundtrip(Instruction{Op::kVslidedownVi, 13, 0, 15, 7});
  expect_roundtrip(Instruction{Op::kVslide1downVx, 13, 14, 15, 0});
}

TEST(IsaEncoding, RoundTripCustomIndexmac) {
  expect_roundtrip(Instruction{Op::kVindexmacVx, 1, 7, 4, 0});
  expect_roundtrip(Instruction{Op::kVfindexmacVx, 2, 8, 5, 0});
  expect_roundtrip(Instruction{Op::kVindexmacVx, 31, 31, 31, 0});
}

TEST(IsaEncoding, CustomIndexmacUsesReservedOpivxSpace) {
  // funct6 0b110000 / 0b110001, OPIVX funct3 (0b100), OP-V major opcode.
  const std::uint32_t w = encode(Instruction{Op::kVindexmacVx, 3, 9, 20, 0});
  EXPECT_EQ(w & 0x7f, 0b1010111u);          // OP-V
  EXPECT_EQ((w >> 12) & 0x7, 0b100u);       // OPIVX
  EXPECT_EQ(w >> 26, 0b110000u);            // funct6
  EXPECT_EQ((w >> 25) & 1, 1u);             // unmasked
  EXPECT_EQ((w >> 20) & 0x1f, 20u);         // vs2
  EXPECT_EQ((w >> 15) & 0x1f, 9u);          // rs1 (x register)
  EXPECT_EQ((w >> 7) & 0x1f, 3u);           // vd
}

TEST(IsaEncoding, FollowUpVariantsUseReservedOpivxSpace) {
  // The packed-index and dual-row variants extend the custom block:
  // funct6 0b110010/0b110011 (vindexmacp/vfindexmacp) and
  // 0b110100/0b110101 (vindexmac2/vfindexmac2), all OPIVX.
  const struct {
    Op op;
    std::uint32_t funct6;
  } cases[] = {
      {Op::kVindexmacpVx, 0b110010u},
      {Op::kVfindexmacpVx, 0b110011u},
      {Op::kVindexmac2Vx, 0b110100u},
      {Op::kVfindexmac2Vx, 0b110101u},
  };
  for (const auto& c : cases) {
    const std::uint32_t w = encode(Instruction{c.op, 3, 9, 20, 0});
    EXPECT_EQ(w & 0x7f, 0b1010111u) << mnemonic(c.op);   // OP-V
    EXPECT_EQ((w >> 12) & 0x7, 0b100u) << mnemonic(c.op);  // OPIVX
    EXPECT_EQ(w >> 26, c.funct6) << mnemonic(c.op);
    EXPECT_EQ((w >> 25) & 1, 1u) << mnemonic(c.op);      // unmasked
    EXPECT_EQ((w >> 20) & 0x1f, 20u) << mnemonic(c.op);  // vs2
    EXPECT_EQ((w >> 15) & 0x1f, 9u) << mnemonic(c.op);   // rs1 (x register)
    EXPECT_EQ((w >> 7) & 0x1f, 3u) << mnemonic(c.op);    // vd
  }
}

TEST(IsaEncoding, RoundTripSsrOps) {
  for (std::uint8_t sid = 0; sid < 4; ++sid)
    expect_roundtrip(Instruction{Op::kSsrCfg, sid, 5, 6, 0});
  expect_roundtrip(Instruction{Op::kSsrEn, 0, 7, 0, 0});
  expect_roundtrip(Instruction{Op::kSsrEn, 0, 0, 0, 0});
  expect_roundtrip(Instruction{Op::kVindexmacsV, 2, 0, 0, 0});
  expect_roundtrip(Instruction{Op::kVfindexmacsV, 31, 0, 0, 0});
}

TEST(IsaEncoding, SsrControlUsesCustom0MinorOpcodes) {
  // ssrcfg/ssren share the custom-0 major opcode with the marker,
  // distinguished by funct3 (001/010 vs the marker's 000).
  const std::uint32_t cfg = encode(Instruction{Op::kSsrCfg, 2, 5, 6, 0});
  EXPECT_EQ(cfg & 0x7f, 0b0001011u);        // custom-0
  EXPECT_EQ((cfg >> 12) & 0x7, 0b001u);     // ssrcfg minor opcode
  EXPECT_EQ((cfg >> 7) & 0x1f, 2u);         // stream id in rd
  EXPECT_EQ((cfg >> 15) & 0x1f, 5u);        // rs1 = base
  EXPECT_EQ((cfg >> 20) & 0x1f, 6u);        // rs2 = wrap count
  const std::uint32_t en = encode(Instruction{Op::kSsrEn, 0, 7, 0, 0});
  EXPECT_EQ(en & 0x7f, 0b0001011u);
  EXPECT_EQ((en >> 12) & 0x7, 0b010u);      // ssren minor opcode
  EXPECT_EQ((en >> 15) & 0x1f, 7u);
}

TEST(IsaEncoding, StreamingMacUsesReservedOpivxSpace) {
  // vindexmacs/vfindexmacs extend the custom OPIVX block at funct6
  // 0b110110/0b110111 with rs1 and vs2 hard-wired to zero.
  const struct {
    Op op;
    std::uint32_t funct6;
  } cases[] = {{Op::kVindexmacsV, 0b110110u}, {Op::kVfindexmacsV, 0b110111u}};
  for (const auto& c : cases) {
    const std::uint32_t w = encode(Instruction{c.op, 3, 0, 0, 0});
    EXPECT_EQ(w & 0x7f, 0b1010111u) << mnemonic(c.op);     // OP-V
    EXPECT_EQ((w >> 12) & 0x7, 0b100u) << mnemonic(c.op);  // OPIVX
    EXPECT_EQ(w >> 26, c.funct6) << mnemonic(c.op);
    EXPECT_EQ((w >> 25) & 1, 1u) << mnemonic(c.op);        // unmasked
    EXPECT_EQ((w >> 20) & 0x1f, 0u) << mnemonic(c.op);     // vs2 == 0
    EXPECT_EQ((w >> 15) & 0x1f, 0u) << mnemonic(c.op);     // rs1 == 0
    EXPECT_EQ((w >> 7) & 0x1f, 3u) << mnemonic(c.op);      // vd
  }
}

TEST(IsaEncoding, MalformedSsrWordsAreRejected) {
  EXPECT_THROW((void)encode(Instruction{Op::kSsrCfg, 4, 5, 6, 0}), SimError);  // sid > 3
  std::string err;
  // ssrcfg with a stream id outside 0..3 in the rd field.
  const std::uint32_t cfg = encode(Instruction{Op::kSsrCfg, 3, 5, 6, 0});
  EXPECT_EQ(decode(cfg | (0x10u << 7), &err).op, Op::kIllegal);
  // ssren with non-zero rd or rs2 fields.
  const std::uint32_t en = encode(Instruction{Op::kSsrEn, 0, 7, 0, 0});
  EXPECT_EQ(decode(en | (1u << 7), &err).op, Op::kIllegal);
  EXPECT_EQ(decode(en | (1u << 20), &err).op, Op::kIllegal);
  // Streaming MACs with explicit rs1/vs2 operands do not decode.
  const std::uint32_t mac = encode(Instruction{Op::kVindexmacsV, 3, 0, 0, 0});
  EXPECT_EQ(decode(mac | (1u << 15), &err).op, Op::kIllegal);
  EXPECT_EQ(decode(mac | (1u << 20), &err).op, Op::kIllegal);
}

TEST(IsaEncoding, ImmediateRangeChecksThrow) {
  EXPECT_THROW((void)encode(Instruction{Op::kAddi, 1, 1, 0, 2048}), SimError);
  EXPECT_THROW((void)encode(Instruction{Op::kAddi, 1, 1, 0, -2049}), SimError);
  EXPECT_THROW((void)encode(Instruction{Op::kBeq, 0, 1, 2, 3}), SimError);  // odd offset
  EXPECT_THROW((void)encode(Instruction{Op::kMarker, 0, 0, 0, 4096}), SimError);
  EXPECT_THROW((void)encode(Instruction{Op::kVaddVi, 1, 0, 3, 16}), SimError);
  EXPECT_THROW((void)encode(Instruction{Op::kVslidedownVi, 1, 0, 3, 32}), SimError);
}

TEST(IsaEncoding, DecodeRejectsUnknownWords) {
  std::string err;
  EXPECT_EQ(decode(0x00000000, &err).op, Op::kIllegal);
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(decode(0xffffffff, &err).op, Op::kIllegal);
  // Masked vector op (vm=0) is rejected.
  const std::uint32_t vadd = encode(Instruction{Op::kVaddVx, 1, 2, 3, 0});
  EXPECT_EQ(decode(vadd & ~(1u << 25), &err).op, Op::kIllegal);
}

TEST(IsaEncoding, DecodeRejectsUnsupportedWidths) {
  std::string err;
  // lb: LOAD with funct3=000.
  EXPECT_EQ(decode(0x00000003, &err).op, Op::kIllegal);
  // 8-bit vector load (width=000 with vector mask bit set is lb actually);
  // craft vle8-like: LOAD-FP, width=000.
  const std::uint32_t vle8 = (1u << 25) | (5u << 15) | (0b000u << 12) | (3u << 7) | 0b0000111u;
  EXPECT_EQ(decode(vle8, &err).op, Op::kIllegal);
}

TEST(IsaEncoding, DisassembleProducesExpectedText) {
  EXPECT_EQ(disassemble(Instruction{Op::kVindexmacVx, 2, 7, 4, 0}), "vindexmac.vx v2, v4, x7");
  EXPECT_EQ(disassemble(Instruction{Op::kVfindexmacVx, 2, 7, 4, 0}), "vfindexmac.vx v2, v4, x7");
  EXPECT_EQ(disassemble(Instruction{Op::kVindexmacpVx, 2, 7, 4, 0}), "vindexmacp.vx v2, v4, x7");
  EXPECT_EQ(disassemble(Instruction{Op::kVindexmac2Vx, 2, 7, 4, 0}), "vindexmac2.vx v2, v4, x7");
  EXPECT_EQ(disassemble(Instruction{Op::kVfindexmac2Vx, 2, 7, 4, 0}),
            "vfindexmac2.vx v2, v4, x7");
  EXPECT_EQ(disassemble(Instruction{Op::kLw, 5, 6, 0, 16}), "lw x5, 16(x6)");
  EXPECT_EQ(disassemble(Instruction{Op::kSw, 0, 6, 5, -4}), "sw x5, -4(x6)");
  EXPECT_EQ(disassemble(Instruction{Op::kVle32, 8, 11, 0, 0}), "vle32.v v8, (x11)");
  EXPECT_EQ(disassemble(Instruction{Op::kVfmaccVf, 1, 2, 3, 0}), "vfmacc.vf v1, f2, v3");
  EXPECT_EQ(disassemble(Instruction{Op::kVmvXS, 9, 0, 10, 0}), "vmv.x.s x9, v10");
  EXPECT_EQ(disassemble(Instruction{Op::kMarker, 0, 0, 0, 42}), "marker 42");
  EXPECT_EQ(disassemble(Instruction{Op::kSsrCfg, 2, 5, 6, 0}), "ssrcfg 2, x5, x6");
  EXPECT_EQ(disassemble(Instruction{Op::kSsrEn, 0, 7, 0, 0}), "ssren x7");
  EXPECT_EQ(disassemble(Instruction{Op::kVindexmacsV, 3, 0, 0, 0}), "vindexmacs.v v3");
  EXPECT_EQ(disassemble(Instruction{Op::kVfindexmacsV, 3, 0, 0, 0}), "vfindexmacs.v v3");
}

constexpr unsigned kOpCount = static_cast<unsigned>(Op::kVfindexmacsV) + 1;

/// Every op of the subset, in Op order (everything but kIllegal).
std::vector<Op> all_ops() {
  std::vector<Op> ops;
  for (unsigned i = 1; i < kOpCount; ++i) ops.push_back(static_cast<Op>(i));
  return ops;
}

class AllOpsRoundTrip : public ::testing::TestWithParam<Op> {};

TEST_P(AllOpsRoundTrip, EncodeDecodeAndTextIdentity) {
  const Op op = GetParam();
  // Pick operands that are legal for every op class; fields an op does not
  // encode must be zero for the round trip to be an identity. PC-relative
  // offsets point just past the one-instruction program, which
  // program_to_source() can still name with a label.
  Instruction inst{op, 1, 2, 3, 0};
  switch (op) {
    case Op::kVsetvli: inst = Instruction{op, 1, 2, 0, kVtypeE32M1}; break;
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kMarker: inst = Instruction{op, 0, 0, 0, 0}; break;
    case Op::kLui: case Op::kAuipc:
      inst = Instruction{op, 1, 0, 0, 5}; break;
    case Op::kJal:
      inst = Instruction{op, 1, 0, 0, 4}; break;
    case Op::kJalr: case Op::kLw: case Op::kLwu: case Op::kLd: case Op::kFlw:
    case Op::kAddi: case Op::kSlti: case Op::kSltiu: case Op::kXori:
    case Op::kOri: case Op::kAndi:
      inst = Instruction{op, 1, 2, 0, 4}; break;
    case Op::kSlli: case Op::kSrli: case Op::kSrai:
      inst = Instruction{op, 1, 2, 0, 3}; break;
    case Op::kBeq: case Op::kBne: case Op::kBlt:
    case Op::kBge: case Op::kBltu: case Op::kBgeu:
      inst = Instruction{op, 0, 2, 3, 4}; break;
    case Op::kVmvXS: case Op::kVfmvFS:
      inst = Instruction{op, 1, 0, 3, 0}; break;
    case Op::kVmvVX: case Op::kVmvSX:
      inst = Instruction{op, 1, 2, 0, 0}; break;
    case Op::kVmvVI:
      inst = Instruction{op, 1, 0, 0, 5}; break;
    case Op::kVaddVi: case Op::kVslidedownVi:
      inst = Instruction{op, 1, 0, 3, 5}; break;
    case Op::kVle32: case Op::kVse32:
      inst = Instruction{op, 1, 2, 0, 0}; break;
    case Op::kSsrEn:
      inst = Instruction{op, 0, 2, 0, 0}; break;
    case Op::kVindexmacsV: case Op::kVfindexmacsV:
      inst = Instruction{op, 1, 0, 0, 0}; break;
    case Op::kSw: case Op::kSd: case Op::kFsw:
      inst = Instruction{op, 0, 2, 3, 4}; break;
    default: break;
  }
  std::string err;
  EXPECT_EQ(decode(encode(inst), &err), inst) << mnemonic(op) << ": " << err;
  // The text form reassembles to the same word.
  const Program program(0x1000, {encode(inst)});
  const std::string source = program_to_source(program);
  EXPECT_EQ(assemble_text(source, program.base()).program.words(), program.words())
      << mnemonic(op) << ":\n" << source;
}

INSTANTIATE_TEST_SUITE_P(EverySupportedOp, AllOpsRoundTrip, ::testing::ValuesIn(all_ops()),
                         [](const ::testing::TestParamInfo<Op>& info) {
                           std::string name = mnemonic(info.param);
                           for (char& c : name)
                             if (c == '.') c = '_';
                           return name;
                         });

TEST(IsaClassification, VectorQueries) {
  const auto has = [](Op op, std::uint32_t flag) { return predecode(Instruction{op}).has(flag); };
  EXPECT_TRUE(has(Op::kVindexmacVx, kSiVector));
  EXPECT_TRUE(has(Op::kVle32, kSiVector));
  EXPECT_FALSE(has(Op::kVsetvli, kSiVector));  // executes on the scalar core
  EXPECT_FALSE(has(Op::kAdd, kSiVector));
  EXPECT_TRUE(has(Op::kVle32, kSiVectorLoad));
  EXPECT_TRUE(has(Op::kVse32, kSiVectorStore));
  EXPECT_TRUE(has(Op::kVmvXS, kSiVectorToScalar));
  EXPECT_TRUE(has(Op::kVfmvFS, kSiVectorToScalar));
  EXPECT_FALSE(has(Op::kVmvSX, kSiVectorToScalar));
}

TEST(IsaClassification, RegisterFileWrites) {
  const auto has = [](const Instruction& in, std::uint32_t flag) {
    return predecode(in).has(flag);
  };
  EXPECT_TRUE(has(Instruction{Op::kAdd, 1, 2, 3, 0}, kSiWritesX));
  EXPECT_FALSE(has(Instruction{Op::kAdd, 0, 2, 3, 0}, kSiWritesX));  // rd == x0
  EXPECT_TRUE(has(Instruction{Op::kVmvXS, 1, 0, 3, 0}, kSiWritesX));
  EXPECT_TRUE(has(Instruction{Op::kVfmvFS, 1, 0, 3, 0}, kSiWritesF));
  EXPECT_TRUE(has(Instruction{Op::kVindexmacVx, 1, 2, 3, 0}, kSiWritesV));
  EXPECT_FALSE(has(Instruction{Op::kVse32, 1, 2, 0, 0}, kSiWritesV));
  EXPECT_TRUE(has(Instruction{Op::kVsetvli, 1, 2, 0, kVtypeE32M1}, kSiWritesX));
}

TEST(IsaClassification, RegisterFileReads) {
  const auto has = [](const Instruction& in, std::uint32_t flag) {
    return predecode(in).has(flag);
  };
  EXPECT_TRUE(has(Instruction{Op::kVindexmacVx, 1, 2, 3, 0}, kSiReadsXRs1));
  EXPECT_TRUE(has(Instruction{Op::kVle32, 1, 2, 0, 0}, kSiReadsXRs1));
  EXPECT_FALSE(has(Instruction{Op::kVmvXS, 1, 0, 3, 0}, kSiReadsXRs1));
  EXPECT_TRUE(has(Instruction{Op::kSw, 0, 2, 3, 0}, kSiReadsXRs2));
  EXPECT_TRUE(has(Instruction{Op::kVfmaccVf, 1, 2, 3, 0}, kSiReadsFRs1));
}

// ---- Decoder golden over a structured word corpus ----

/// Every (opcode, funct3, bits 31:25) combination, each with the register
/// fills (rd, rs1, rs2) = {0,0,0}, {0,0,1}, {3,9,20} and {31,31,31}: 524,288
/// words that reach every op of the subset plus its near misses.
std::vector<std::uint32_t> decoder_corpus() {
  constexpr std::uint32_t kFills[4][3] = {{0, 0, 0}, {0, 0, 1}, {3, 9, 20}, {31, 31, 31}};
  std::vector<std::uint32_t> words;
  words.reserve(128 * 8 * 128 * 4);
  for (std::uint32_t opcode = 0; opcode < 128; ++opcode)
    for (std::uint32_t f3 = 0; f3 < 8; ++f3)
      for (std::uint32_t top = 0; top < 128; ++top)
        for (const auto& fill : kFills)
          words.push_back((top << 25) | (fill[2] << 20) | (fill[1] << 15) | (f3 << 12) |
                          (fill[0] << 7) | opcode);
  return words;
}

/// One row per op: how many corpus words decode to it and an FNV-1a over
/// each such word's decoded fields, predecode() result and disassembly; a
/// final row counts (and hashes) the words that decode to kIllegal.
std::string render_isa_ops_csv() {
  std::vector<std::uint64_t> count(kOpCount, 0), hash(kOpCount, kFnv1aBasis);
  for (const std::uint32_t w : decoder_corpus()) {
    const Instruction in = decode(w);
    const auto op = static_cast<unsigned>(in.op);
    ++count[op];
    if (in.op == Op::kIllegal) {
      hash[op] = fnv1a(std::to_string(w) + ";", hash[op]);
      continue;
    }
    const StaticInstInfo si = predecode(in);
    std::ostringstream rec;
    rec << w << ':' << op << ',' << unsigned{in.rd} << ',' << unsigned{in.rs1} << ','
        << unsigned{in.rs2} << ',' << in.imm << '|' << si.flags << ','
        << unsigned{si.scalar_mem_bytes} << ',' << unsigned{si.vreg_reads} << ','
        << static_cast<unsigned>(si.vlat) << '|' << disassemble(in) << ';';
    hash[op] = fnv1a(rec.str(), hash[op]);
  }
  std::string out = "mnemonic,words,fnv1a\n";
  const auto row = [&](unsigned op) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash[op]));
    out += mnemonic(static_cast<Op>(op)) + "," + std::to_string(count[op]) + "," + hex + "\n";
  };
  for (unsigned op = 1; op < kOpCount; ++op) row(op);
  row(0);  // "illegal": the rejected words
  return out;
}

TEST(IsaGolden, DecoderCorpusMatchesCheckedInCsv) {
  // Pins decode(), predecode() and disassemble() over the whole corpus
  // (tests/golden/isa_ops.csv); a drift names the ops whose rows moved.
  std::ifstream file(std::string(INDEXMAC_GOLDEN_DIR) + "/isa_ops.csv", std::ios::binary);
  ASSERT_TRUE(file.good());
  std::stringstream expected;
  expected << file.rdbuf();
  const std::string actual = render_isa_ops_csv();
  if (actual != expected.str())
    ADD_FAILURE() << "decoder golden drifted.\n--- expected (isa_ops.csv)\n"
                  << expected.str() << "--- actual\n"
                  << actual;
}

TEST(IsaGolden, EveryAcceptedCorpusWordReencodesToItself) {
  // decode() keeps every bit of an accepted word: fixed bits in the row's
  // match, operand bits in the decoded fields.
  std::size_t accepted = 0;
  for (const std::uint32_t w : decoder_corpus()) {
    const Instruction in = decode(w);
    if (in.op == Op::kIllegal) continue;
    ++accepted;
    EXPECT_EQ(encode(in), w) << std::hex << "word 0x" << w << " (" << disassemble(in) << ")";
  }
  EXPECT_EQ(accepted, 23205u);
}

TEST(IsaEncoding, DecodeRejectsReservedAlternateOpForms) {
  // funct7 0100000 selects an alternate op only for add -> sub and
  // srl -> sra; on sll/slt/sltu/xor/or/and it is a reserved encoding.
  for (const std::uint32_t f3 : {1u, 2u, 3u, 4u, 6u, 7u}) {
    const std::uint32_t w = 0x40000033u | (f3 << 12);
    EXPECT_EQ(decode(w).op, Op::kIllegal) << std::hex << "word 0x" << w;
  }
  EXPECT_EQ(decode(0x40001033u).op, Op::kIllegal);  // not "sll x0, x0, x0"
  EXPECT_EQ(decode(0x40000033u).op, Op::kSub);
  EXPECT_EQ(decode(0x40005033u).op, Op::kSra);
}

}  // namespace
}  // namespace indexmac::isa
