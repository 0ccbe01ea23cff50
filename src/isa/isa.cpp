#include "isa/isa.h"

#include <cstdio>
#include <string>

#include "common/bitutil.h"
#include "common/error.h"
#include "isa/encoding.h"
#include "isa/op_table.h"
#include "isa/static_info.h"

namespace indexmac::isa {
namespace {

using F = Format;

// Assembly operands, named after the Instruction field they fill.
constexpr Arg xd{Slot::kX, Field::kRd}, xs1{Slot::kX, Field::kRs1}, xs2{Slot::kX, Field::kRs2};
constexpr Arg fd{Slot::kF, Field::kRd}, fs1{Slot::kF, Field::kRs1}, fs2{Slot::kF, Field::kRs2};
constexpr Arg vd{Slot::kV, Field::kRd}, vs1{Slot::kV, Field::kRs1}, vs2{Slot::kV, Field::kRs2};
constexpr Arg imm{Slot::kImm}, target{Slot::kTarget}, vtype{Slot::kVtype};
constexpr Arg mem{Slot::kMem, Field::kRs1}, vmem{Slot::kVMem, Field::kRs1};
constexpr Arg sid{Slot::kStream, Field::kRd};

// StaticInstInfo flags (static_info.h), abbreviated so each row fits a line.
constexpr std::uint32_t Vec = kSiVector, Br = kSiBranch, Jmp = kSiJump, Halt = kSiHalt,
                        Mark = kSiMarker, LdX = kSiScalarLoad, StX = kSiScalarStore,
                        LdV = kSiVectorLoad, StV = kSiVectorStore, V2S = kSiVectorToScalar,
                        Rx1 = kSiReadsXRs1, Rx2 = kSiReadsXRs2, Rf1 = kSiReadsFRs1,
                        Rf2 = kSiReadsFRs2, Wx = kSiWritesX, Wf = kSiWritesF, Wv = kSiWritesV,
                        Gather = kSiGather, Mac = kSiVectorMac, SsrMac = kSiSsrMac,
                        SsrCtl = kSiSsrCtl, Fallback = kSiThreadedFallback,
                        Fuse = kSiChainFusable;
// The v(f)indexmac family: x[rs1] selects the B-row register (kSiIndirectVreg).
constexpr std::uint32_t IdxMac = Vec | Rx1 | Wv | kSiIndirectVreg | Mac | Fuse;
constexpr std::uint32_t Packed = kSiPackedIndex, Dual = kSiDualMac;
// Vector register reads (kVRead*) and engine latency classes.
constexpr std::uint8_t VRd = kVReadRd, VRs1 = kVReadRs1, VRs2 = kVReadRs2;
constexpr VLatClass LAlu = VLatClass::kAlu, LMac = VLatClass::kMac, LSlide = VLatClass::kSlide,
                    LMove = VLatClass::kMove, LRed = VLatClass::kReduction;

// One row per Op, in Op order. Standard ops follow the RISC-V unprivileged
// spec and RVV 1.0 with vm=1 (unmasked) fixed; the custom ones take the
// RVV-reserved OPIVX funct6 block 0b110000..0b110111 (vindexmac.vx and its
// follow-ups) and the custom-0 major opcode 0x0b under funct3 0, 1 and 2
// (marker, ssrcfg, ssren).
//
// Threaded-engine flags: kSiThreadedFallback marks the ops that execute
// through Machine::step (SSR ops mutate Machine-private stream state and can
// raise mid-instruction; illegal words must fault with the interpreter's
// exact error). kSiChainFusable marks the ops the Algorithm 2/3/4 inner
// loops chain (index extract -> MAC -> slide / packed-word shift); the chain
// builder adds its structural constraints on top.
// clang-format off
constexpr OpInfo kOps[] = {
    // op               mnemonic          format     match       mask        syntax                info {flags, scalar_mem_bytes, vreg_reads, vlat}
    {Op::kIllegal,      "illegal",        F::kR,      0,          0,          {},                   {Fallback}},
    {Op::kLui,          "lui",            F::kU,      0x00000037, 0x0000007f, {xd, imm},            {Wx}},
    {Op::kAuipc,        "auipc",          F::kU,      0x00000017, 0x0000007f, {xd, imm},            {Wx}},
    {Op::kJal,          "jal",            F::kJ,      0x0000006f, 0x0000007f, {xd, target},         {Jmp | Wx}},
    {Op::kJalr,         "jalr",           F::kI,      0x00000067, 0x0000707f, {xd, mem},            {Jmp | Rx1 | Wx}},
    {Op::kBeq,          "beq",            F::kB,      0x00000063, 0x0000707f, {xs1, xs2, target},   {Br | Rx1 | Rx2}},
    {Op::kBne,          "bne",            F::kB,      0x00001063, 0x0000707f, {xs1, xs2, target},   {Br | Rx1 | Rx2}},
    {Op::kBlt,          "blt",            F::kB,      0x00004063, 0x0000707f, {xs1, xs2, target},   {Br | Rx1 | Rx2}},
    {Op::kBge,          "bge",            F::kB,      0x00005063, 0x0000707f, {xs1, xs2, target},   {Br | Rx1 | Rx2}},
    {Op::kBltu,         "bltu",           F::kB,      0x00006063, 0x0000707f, {xs1, xs2, target},   {Br | Rx1 | Rx2}},
    {Op::kBgeu,         "bgeu",           F::kB,      0x00007063, 0x0000707f, {xs1, xs2, target},   {Br | Rx1 | Rx2}},
    {Op::kLw,           "lw",             F::kI,      0x00002003, 0x0000707f, {xd, mem},            {LdX | Rx1 | Wx, 4}},
    {Op::kLwu,          "lwu",            F::kI,      0x00006003, 0x0000707f, {xd, mem},            {LdX | Rx1 | Wx, 4}},
    {Op::kLd,           "ld",             F::kI,      0x00003003, 0x0000707f, {xd, mem},            {LdX | Rx1 | Wx, 8}},
    {Op::kSw,           "sw",             F::kS,      0x00002023, 0x0000707f, {xs2, mem},           {StX | Rx1 | Rx2, 4}},
    {Op::kSd,           "sd",             F::kS,      0x00003023, 0x0000707f, {xs2, mem},           {StX | Rx1 | Rx2, 8}},
    {Op::kFlw,          "flw",            F::kI,      0x00002007, 0x0000707f, {fd, mem},            {LdX | Rx1 | Wf, 4}},
    {Op::kFsw,          "fsw",            F::kS,      0x00002027, 0x0000707f, {fs2, mem},           {StX | Rx1 | Rf2, 4}},
    {Op::kAddi,         "addi",           F::kI,      0x00000013, 0x0000707f, {xd, xs1, imm},       {Rx1 | Wx}},
    {Op::kSlti,         "slti",           F::kI,      0x00002013, 0x0000707f, {xd, xs1, imm},       {Rx1 | Wx}},
    {Op::kSltiu,        "sltiu",          F::kI,      0x00003013, 0x0000707f, {xd, xs1, imm},       {Rx1 | Wx}},
    {Op::kXori,         "xori",           F::kI,      0x00004013, 0x0000707f, {xd, xs1, imm},       {Rx1 | Wx}},
    {Op::kOri,          "ori",            F::kI,      0x00006013, 0x0000707f, {xd, xs1, imm},       {Rx1 | Wx}},
    {Op::kAndi,         "andi",           F::kI,      0x00007013, 0x0000707f, {xd, xs1, imm},       {Rx1 | Wx}},
    {Op::kSlli,         "slli",           F::kShift,  0x00001013, 0xfc00707f, {xd, xs1, imm},       {Rx1 | Wx}},
    {Op::kSrli,         "srli",           F::kShift,  0x00005013, 0xfc00707f, {xd, xs1, imm},       {Rx1 | Wx | Fuse}},
    {Op::kSrai,         "srai",           F::kShift,  0x40005013, 0xfc00707f, {xd, xs1, imm},       {Rx1 | Wx}},
    {Op::kAdd,          "add",            F::kR,      0x00000033, 0xfe00707f, {xd, xs1, xs2},       {Rx1 | Rx2 | Wx}},
    {Op::kSub,          "sub",            F::kR,      0x40000033, 0xfe00707f, {xd, xs1, xs2},       {Rx1 | Rx2 | Wx}},
    {Op::kSll,          "sll",            F::kR,      0x00001033, 0xfe00707f, {xd, xs1, xs2},       {Rx1 | Rx2 | Wx}},
    {Op::kSlt,          "slt",            F::kR,      0x00002033, 0xfe00707f, {xd, xs1, xs2},       {Rx1 | Rx2 | Wx}},
    {Op::kSltu,         "sltu",           F::kR,      0x00003033, 0xfe00707f, {xd, xs1, xs2},       {Rx1 | Rx2 | Wx}},
    {Op::kXor,          "xor",            F::kR,      0x00004033, 0xfe00707f, {xd, xs1, xs2},       {Rx1 | Rx2 | Wx}},
    {Op::kSrl,          "srl",            F::kR,      0x00005033, 0xfe00707f, {xd, xs1, xs2},       {Rx1 | Rx2 | Wx}},
    {Op::kSra,          "sra",            F::kR,      0x40005033, 0xfe00707f, {xd, xs1, xs2},       {Rx1 | Rx2 | Wx}},
    {Op::kOr,           "or",             F::kR,      0x00006033, 0xfe00707f, {xd, xs1, xs2},       {Rx1 | Rx2 | Wx}},
    {Op::kAnd,          "and",            F::kR,      0x00007033, 0xfe00707f, {xd, xs1, xs2},       {Rx1 | Rx2 | Wx}},
    {Op::kMul,          "mul",            F::kR,      0x02000033, 0xfe00707f, {xd, xs1, xs2},       {Rx1 | Rx2 | Wx}},
    {Op::kEcall,        "ecall",          F::kR,      0x00000073, 0xffffffff, {},                   {Halt}},
    {Op::kEbreak,       "ebreak",         F::kR,      0x00100073, 0xffffffff, {},                   {Halt}},
    {Op::kMarker,       "marker",         F::kMarker, 0x0000000b, 0x000fffff, {imm},                {Mark}},
    {Op::kVsetvli,      "vsetvli",        F::kVtype,  0x00007057, 0x8000707f, {xd, xs1, vtype},     {Rx1 | Wx}},
    {Op::kVle32,        "vle32.v",        F::kR,      0x02006007, 0xfff0707f, {vd, vmem},           {Vec | LdV | Rx1 | Wv | Fuse}},
    {Op::kVse32,        "vse32.v",        F::kR,      0x02006027, 0xfff0707f, {vd, vmem},           {Vec | StV | Rx1, 0, VRd}},
    {Op::kVluxei32,     "vluxei32.v",     F::kR,      0x06006007, 0xfe00707f, {vd, vmem, vs2},      {Vec | LdV | Rx1 | Wv | Gather, 0, VRs2}},
    {Op::kVaddVx,       "vadd.vx",        F::kR,      0x02004057, 0xfe00707f, {vd, vs2, xs1},       {Vec | Rx1 | Wv, 0, VRs2, LAlu}},
    {Op::kVaddVi,       "vadd.vi",        F::kSimm5,  0x02003057, 0xfe00707f, {vd, vs2, imm},       {Vec | Wv, 0, VRs2, LAlu}},
    {Op::kVaddVV,       "vadd.vv",        F::kR,      0x02000057, 0xfe00707f, {vd, vs2, vs1},       {Vec | Wv, 0, VRs1 | VRs2, LAlu}},
    {Op::kVfaddVV,      "vfadd.vv",       F::kR,      0x02001057, 0xfe00707f, {vd, vs2, vs1},       {Vec | Wv, 0, VRs1 | VRs2, LAlu}},
    {Op::kVmulVV,       "vmul.vv",        F::kR,      0x96002057, 0xfe00707f, {vd, vs2, vs1},       {Vec | Wv, 0, VRs1 | VRs2, LMac}},
    {Op::kVfmulVV,      "vfmul.vv",       F::kR,      0x92001057, 0xfe00707f, {vd, vs2, vs1},       {Vec | Wv, 0, VRs1 | VRs2, LMac}},
    {Op::kVmaccVx,      "vmacc.vx",       F::kR,      0xb6006057, 0xfe00707f, {vd, xs1, vs2},       {Vec | Rx1 | Wv | Mac | Fuse, 0, VRd | VRs2, LMac}},
    {Op::kVfmaccVf,     "vfmacc.vf",      F::kR,      0xb2005057, 0xfe00707f, {vd, fs1, vs2},       {Vec | Rf1 | Wv | Mac | Fuse, 0, VRd | VRs2, LMac}},
    {Op::kVredsumVS,    "vredsum.vs",     F::kR,      0x02002057, 0xfe00707f, {vd, vs2, vs1},       {Vec | Wv, 0, VRs1 | VRs2, LRed}},
    {Op::kVfredusumVS,  "vfredusum.vs",   F::kR,      0x06001057, 0xfe00707f, {vd, vs2, vs1},       {Vec | Wv, 0, VRs1 | VRs2, LRed}},
    {Op::kVmvVX,        "vmv.v.x",        F::kR,      0x5e004057, 0xfff0707f, {vd, xs1},            {Vec | Rx1 | Wv, 0, 0, LMove}},
    {Op::kVmvVI,        "vmv.v.i",        F::kSimm5,  0x5e003057, 0xfff0707f, {vd, imm},            {Vec | Wv, 0, 0, LMove}},
    {Op::kVmvXS,        "vmv.x.s",        F::kR,      0x42002057, 0xfe0ff07f, {xd, vs2},            {Vec | V2S | Wx | Fuse, 0, VRs2, LMove}},
    {Op::kVfmvFS,       "vfmv.f.s",       F::kR,      0x42001057, 0xfe0ff07f, {fd, vs2},            {Vec | V2S | Wf | Fuse, 0, VRs2, LMove}},
    {Op::kVmvSX,        "vmv.s.x",        F::kR,      0x42006057, 0xfff0707f, {vd, xs1},            {Vec | Rx1 | Wv, 0, VRd, LMove}},
    {Op::kVslidedownVx, "vslidedown.vx",  F::kR,      0x3e004057, 0xfe00707f, {vd, vs2, xs1},       {Vec | Rx1 | Wv, 0, VRs2, LSlide}},
    {Op::kVslidedownVi, "vslidedown.vi",  F::kUimm5,  0x3e003057, 0xfe00707f, {vd, vs2, imm},       {Vec | Wv | Fuse, 0, VRs2, LSlide}},
    {Op::kVslide1downVx,"vslide1down.vx", F::kR,      0x3e006057, 0xfe00707f, {vd, vs2, xs1},       {Vec | Rx1 | Wv | Fuse, 0, VRs2, LSlide}},
    {Op::kVindexmacVx,  "vindexmac.vx",   F::kR,      0xc2004057, 0xfe00707f, {vd, vs2, xs1},       {IdxMac, 0, VRd | VRs2, LMac}},
    {Op::kVfindexmacVx, "vfindexmac.vx",  F::kR,      0xc6004057, 0xfe00707f, {vd, vs2, xs1},       {IdxMac, 0, VRd | VRs2, LMac}},
    {Op::kVindexmacpVx, "vindexmacp.vx",  F::kR,      0xca004057, 0xfe00707f, {vd, vs2, xs1},       {IdxMac | Packed, 0, VRd | VRs2, LMac}},
    {Op::kVfindexmacpVx,"vfindexmacp.vx", F::kR,      0xce004057, 0xfe00707f, {vd, vs2, xs1},       {IdxMac | Packed, 0, VRd | VRs2, LMac}},
    {Op::kVindexmac2Vx, "vindexmac2.vx",  F::kR,      0xd2004057, 0xfe00707f, {vd, vs2, xs1},       {IdxMac | Packed | Dual, 0, VRd | VRs2, LMac}},
    {Op::kVfindexmac2Vx,"vfindexmac2.vx", F::kR,      0xd6004057, 0xfe00707f, {vd, vs2, xs1},       {IdxMac | Packed | Dual, 0, VRd | VRs2, LMac}},
    {Op::kSsrCfg,       "ssrcfg",         F::kStream, 0x0000100b, 0xfe007e7f, {sid, xs1, xs2},      {Rx1 | Rx2 | SsrCtl | Fallback}},
    {Op::kSsrEn,        "ssren",          F::kR,      0x0000200b, 0xfff07fff, {xs1},                {Rx1 | SsrCtl | Fallback}},
    // The streaming MACs read only the accumulator: the A value pops from
    // stream 0 and the B row is an indirect VRF read named by stream 1.
    {Op::kVindexmacsV,  "vindexmacs.v",   F::kR,      0xda004057, 0xfffff07f, {vd},                 {Vec | Wv | Mac | SsrMac | Fallback, 0, VRd, LMac}},
    {Op::kVfindexmacsV, "vfindexmacs.v",  F::kR,      0xde004057, 0xfffff07f, {vd},                 {Vec | Wv | Mac | SsrMac | Fallback, 0, VRd, LMac}},
};
// clang-format on

constexpr bool table_is_consistent() {
  for (std::size_t i = 0; i < std::size(kOps); ++i) {
    const OpInfo& r = kOps[i];
    if (static_cast<std::size_t>(r.op) != i) return false;  // rows in Op order
    if ((r.match & ~r.mask) != 0) return false;
    // Every non-memory vector op is timed by an engine latency class.
    if ((r.info.flags & Vec) && !(r.info.flags & (LdV | StV)) && r.info.vlat == VLatClass::kNone)
      return false;
    // Scalar memory ops, and only they, carry an access size.
    if (((r.info.flags & (LdX | StX)) != 0) != (r.info.scalar_mem_bytes != 0)) return false;
    // No word matches two rows, so decode() does not depend on row order.
    for (std::size_t j = 1; j < i; ++j)
      if (((r.match ^ kOps[j].match) & r.mask & kOps[j].mask) == 0) return false;
  }
  return true;
}
static_assert(std::size(kOps) == static_cast<std::size_t>(Op::kVfindexmacsV) + 1,
              "one row per Op");
static_assert(table_is_consistent());

std::uint32_t reg_field(std::uint8_t r, unsigned shift) {
  IMAC_ASSERT(r < 32, "register number out of range");
  return std::uint32_t{r} << shift;
}

void check_signed(std::int32_t imm, unsigned width, const char* what) {
  IMAC_CHECK(fits_signed(imm, width), std::string(what) + " out of range: " + std::to_string(imm));
}

void check_unsigned(std::int32_t imm, std::int32_t limit, const char* what) {
  IMAC_CHECK(imm >= 0 && imm < limit, std::string(what) + " out of range: " + std::to_string(imm));
}

/// The operand bits of `in` in `format`, before the row's fixed bits apply.
std::uint32_t pack(Format format, const Instruction& in) {
  const auto u = static_cast<std::uint32_t>(in.imm);
  switch (format) {
    case F::kStream:
      IMAC_CHECK(in.rd < 4, "ssrcfg stream id must be in 0..3");
      [[fallthrough]];
    case F::kR:
      return reg_field(in.rs2, 20) | reg_field(in.rs1, 15) | reg_field(in.rd, 7);
    case F::kI:
      check_signed(in.imm, 12, "I-type immediate");
      return (u << 20) | reg_field(in.rs1, 15) | reg_field(in.rd, 7);
    case F::kShift:
      check_unsigned(in.imm, 64, "shift amount");
      return (u << 20) | reg_field(in.rs1, 15) | reg_field(in.rd, 7);
    case F::kS:
      check_signed(in.imm, 12, "S-type immediate");
      return (bits(u, 11, 5) << 25) | reg_field(in.rs2, 20) | reg_field(in.rs1, 15) |
             (bits(u, 4, 0) << 7);
    case F::kB:
      IMAC_CHECK(fits_signed(in.imm, 13) && (in.imm & 1) == 0,
                 "branch offset out of range or odd: " + std::to_string(in.imm));
      return (bit(u, 12) << 31) | (bits(u, 10, 5) << 25) | reg_field(in.rs2, 20) |
             reg_field(in.rs1, 15) | (bits(u, 4, 1) << 8) | (bit(u, 11) << 7);
    case F::kU:
      check_signed(in.imm, 20, "U-type immediate");
      return (u << 12) | reg_field(in.rd, 7);
    case F::kJ:
      IMAC_CHECK(fits_signed(in.imm, 21) && (in.imm & 1) == 0,
                 "jump offset out of range or odd: " + std::to_string(in.imm));
      return (bit(u, 20) << 31) | (bits(u, 10, 1) << 21) | (bit(u, 11) << 20) |
             (bits(u, 19, 12) << 12) | reg_field(in.rd, 7);
    case F::kMarker:
      check_unsigned(in.imm, 4096, "marker id (12 bits)");
      return u << 20;
    case F::kVtype:
      check_unsigned(in.imm, 0x800, "vtype immediate (11 bits)");
      return (u << 20) | reg_field(in.rs1, 15) | reg_field(in.rd, 7);
    case F::kSimm5:
      check_signed(in.imm, 5, "vector simm5");
      return reg_field(in.rs2, 20) | (bits(u, 4, 0) << 15) | reg_field(in.rd, 7);
    case F::kUimm5:
      check_unsigned(in.imm, 32, "vector uimm5");
      return reg_field(in.rs2, 20) | (u << 15) | reg_field(in.rd, 7);
  }
  raise("encode: unknown format");
}

/// The operands of word `w` in `row`'s format. Fields the format lacks, and
/// bits the row fixes, decode as zero.
Instruction unpack(const OpInfo& row, std::uint32_t word) {
  const std::uint32_t w = word & ~row.mask;
  const auto rd = static_cast<std::uint8_t>(bits(w, 11, 7));
  const auto rs1 = static_cast<std::uint8_t>(bits(w, 19, 15));
  const auto rs2 = static_cast<std::uint8_t>(bits(w, 24, 20));
  const auto sext = [](std::uint32_t value, unsigned width) {
    return static_cast<std::int32_t>(sign_extend(value, width));
  };
  switch (row.format) {
    case F::kR:
    case F::kStream: return {row.op, rd, rs1, rs2, 0};
    case F::kI: return {row.op, rd, rs1, 0, sext(bits(w, 31, 20), 12)};
    case F::kShift: return {row.op, rd, rs1, 0, static_cast<std::int32_t>(bits(w, 25, 20))};
    case F::kS: return {row.op, 0, rs1, rs2, sext((bits(w, 31, 25) << 5) | bits(w, 11, 7), 12)};
    case F::kB:
      return {row.op, 0, rs1, rs2,
              sext((bit(w, 31) << 12) | (bit(w, 7) << 11) | (bits(w, 30, 25) << 5) |
                       (bits(w, 11, 8) << 1),
                   13)};
    case F::kU: return {row.op, rd, 0, 0, sext(bits(w, 31, 12), 20)};
    case F::kJ:
      return {row.op, rd, 0, 0,
              sext((bit(w, 31) << 20) | (bits(w, 19, 12) << 12) | (bit(w, 20) << 11) |
                       (bits(w, 30, 21) << 1),
                   21)};
    case F::kMarker: return {row.op, 0, 0, 0, static_cast<std::int32_t>(bits(w, 31, 20))};
    case F::kVtype: return {row.op, rd, rs1, 0, static_cast<std::int32_t>(bits(w, 30, 20))};
    case F::kSimm5: return {row.op, rd, 0, rs2, sext(rs1, 5)};
    case F::kUimm5: return {row.op, rd, 0, rs2, rs1};
  }
  raise("decode: unknown format");
}

}  // namespace

const OpInfo& op_info(Op op) {
  const auto i = static_cast<std::size_t>(op);
  IMAC_ASSERT(i < std::size(kOps), "unknown op " + std::to_string(i));
  return kOps[i];
}

Op find_op(std::string_view name) {
  for (std::size_t i = 1; i < std::size(kOps); ++i)
    if (kOps[i].name == name) return kOps[i].op;
  return Op::kIllegal;
}

std::string mnemonic(Op op) { return std::string(op_info(op).name); }

std::uint32_t encode(const Instruction& in) {
  const OpInfo& row = op_info(in.op);
  if (in.op == Op::kIllegal) raise("encode: unsupported op");
  return row.match | (pack(row.format, in) & ~row.mask);
}

Instruction decode(std::uint32_t w, std::string* error) {
  for (std::size_t i = 1; i < std::size(kOps); ++i)
    if ((w & kOps[i].mask) == kOps[i].match) return unpack(kOps[i], w);
  if (error) {
    char text[64];
    std::snprintf(text, sizeof text, "0x%08x is not an instruction of the subset", w);
    *error = text;
  }
  return Instruction{};
}

std::string disassemble(const Instruction& in) {
  const OpInfo& row = op_info(in.op);
  std::string s(row.name);
  const char* sep = " ";
  for (const Arg a : row.syntax) {
    if (a.slot == Slot::kNone) break;
    s += sep;
    sep = ", ";
    const std::string reg = std::to_string(field(in, a.field));
    switch (a.slot) {
      case Slot::kX: s += "x" + reg; break;
      case Slot::kF: s += "f" + reg; break;
      case Slot::kV: s += "v" + reg; break;
      case Slot::kStream: s += reg; break;
      case Slot::kMem: s += std::to_string(in.imm) + "(x" + reg + ")"; break;
      case Slot::kVMem: s += "(x" + reg + ")"; break;
      case Slot::kImm:
      case Slot::kTarget:
      case Slot::kVtype:
      case Slot::kNone: s += std::to_string(in.imm); break;
    }
  }
  return s;
}

StaticInstInfo predecode(const Instruction& inst) {
  StaticInstInfo s = op_info(inst.op).info;
  if (inst.rd == 0) s.flags &= ~kSiWritesX;  // writes to x0 are discarded
  return s;
}

}  // namespace indexmac::isa
