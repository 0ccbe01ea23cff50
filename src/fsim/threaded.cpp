// Threaded-code engine implementation. Three layers:
//
//   1. Per-op records (TOp): one pre-bound handler + resolved operands per
//      instruction of a block; the chain-bail replay path runs on them.
//   2. Basic blocks: maximal straight-line TOp runs ending at a branch,
//      jump, halt, or fallback op, executed without touching state_.pc
//      until the block exits. run() and run_block() execute whole blocks.
//   3. Superblock chains: straight-line runs of the Algorithm 2/3/4 inner
//      shapes inside a block, fused into native loops. Slides are deferred
//      into per-register element offsets; every other op executes for real
//      in program order, reading shift-deferred registers through baked
//      offsets. A MAC whose runtime-resolved VRF row carries a pending
//      shift bails out: the pending slides are materialized and the rest
//      of the chain replays through its original per-op records, so the
//      result is bit-identical in every case.
//
// Block execution comes in two instantiations of the same code: untraced
// (run) and traced (run_block, which drives the timing model). The traced
// one writes each instruction's pre-execution x[rs1], vl and gather
// offsets into an OpRecord slot at the instruction's index in the block:
// plain ops before they execute, fused micros at their original op index,
// and the bail replay again per op, so the records match the interpreter's
// pre-state whichever path a chain takes.
//
// The per-op handlers below mirror Machine::exec case by case; when editing
// one, edit the other (the lockstep differential tests catch divergence).
#include "fsim/threaded.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <vector>

#include "common/error.h"
#include "isa/static_info.h"

namespace indexmac {

namespace {

using isa::Instruction;
using isa::kVlMax;
using isa::Op;

float bits_to_f32(std::uint32_t raw) {
  float out;
  std::memcpy(&out, &raw, sizeof out);
  return out;
}

std::uint32_t f32_to_bits(float value) {
  std::uint32_t raw;
  std::memcpy(&raw, &value, sizeof raw);
  return raw;
}

struct TOp;
struct Chain;

using GatherRecord = std::array<std::uint32_t, kVlMax>;

/// Per-block execution context the handlers mutate. next_pc is preset to
/// the fall-through pc; only control-flow handlers overwrite it. The record
/// arrays are set (and written) only by traced block runs.
struct Ctx {
  ArchState& st;
  MainMemory& mem;
  const std::function<void(int)>* marker_hook;
  ThreadedEngine::Stats* stats;
  std::uint64_t next_pc;
  StopReason stop = StopReason::kRunning;
  OpRecord* rec = nullptr;
  GatherRecord* gather = nullptr;
};

using Handler = void (*)(Ctx&, const TOp&);

/// One pre-bound operation record. `simm` carries the sign-extended
/// immediate (addresses, ALU immediates, jal/jalr link values); `aux`
/// carries a pc-resolved constant (lui/auipc results, branch/jump targets).
struct TOp {
  Handler fn = nullptr;
  std::uint8_t rd = 0, rs1 = 0, rs2 = 0;
  bool gather = false;  ///< vluxei32: a traced run records v[rs2]
  std::int32_t imm = 0;
  std::int64_t simm = 0;
  std::uint64_t aux = 0;
  const Chain* chain = nullptr;
};

/// One fused micro-operation. Slides are not materialized as micros at all
/// (their whole effect is baked into later micros' element offsets and the
/// chain's end fixups); each micro instead records its original op index
/// and how many slides precede it, so a bail can reconstruct the exact
/// interpreter state at its instruction boundary.
struct Micro {
  enum class K : std::uint8_t {
    kMvXS,      ///< x[a] = sext32(elem(v[b], off))
    kMvFS,      ///< f[a] = elem(v[b], off)
    kSrli,      ///< x[a] >>= shamt (packed index words, executed for real)
    kLoadRow,   ///< v[a][0..vl) = mem[x[c] + 4i] (Algorithm 2 B-row load)
    kMacIdxU,   ///< v[a] += elem(v[b], off) * v[x[c] & 0x1f] (int)
    kMacIdxF,   ///< float form
    kMacLaneU,  ///< fused vmv.x.s + vindexmac: x[x] = sext32(elem(v[c], shamt)),
                ///< then v[a] += elem(v[b], off) * v[lane & 0x1f]
    kMacLaneF,  ///< float form
    kMacPackU,  ///< row = 16 | (x[c] & 0xf)
    kMacPackF,
    kMacDualU,  ///< rows from x[c] nibbles 0/1, values elem(v[b], off/off+1)
    kMacDualF,
    kMaccVxU,   ///< v[a] += (u32)x[c] * v[b] (vmacc.vx; b has no pending shift)
    kFmaccVf,   ///< v[a] += f[c] * v[b] (vfmacc.vf)
  };
  K k;
  std::uint8_t a = 0, b = 0, c = 0;
  std::uint8_t off = 0;           ///< baked element offset of v[b] at this point
  std::uint8_t shamt = 0;         ///< kSrli shift amount / kMacLane* index offset
  std::uint8_t x = 0;             ///< kMacLane*: scalar dest of the fused vmv.x.s
  std::uint16_t op_idx = 0;       ///< index of the original op within the chain
  std::uint16_t slide_count = 0;  ///< slide_log entries preceding this micro
  std::uint32_t unsafe_mask = 0;  ///< vregs with a pending shift here (MACs bail)
};

struct Chain {
  std::vector<Micro> micros;
  struct Fixup {
    std::uint8_t reg = 0;
    std::uint8_t shift = 0;
  };
  std::vector<Fixup> fixups;       ///< net slides applied on clean completion
  std::vector<Fixup> slide_log;    ///< every deferred slide, in program order
  const TOp* replay = nullptr;     ///< original per-op records (bail path)
  std::uint32_t op_count = 0;
  std::uint32_t mac_count = 0;
};

struct Block {
  std::uint64_t entry_pc = 0;
  std::uint64_t fall_pc = 0;  ///< pc after the last instruction of the block
  std::uint32_t n_ops = 0;    ///< dynamic instructions per full execution
  std::vector<TOp> ops;       ///< per-instruction records (replay layer)
  std::vector<TOp> fast;      ///< chains collapsed (run layer)
};

// ---- scalar handlers -----------------------------------------------------

void h_nop(Ctx&, const TOp&) {}

void h_const_x(Ctx& c, const TOp& o) { c.st.x[o.rd] = o.aux; }  // lui/auipc

void h_jal(Ctx& c, const TOp& o) {
  c.st.x[o.rd] = static_cast<std::uint64_t>(o.simm);  // link (pc + 4)
  c.next_pc = o.aux;
}

void h_j(Ctx& c, const TOp& o) { c.next_pc = o.aux; }  // jal rd=x0

void h_jalr(Ctx& c, const TOp& o) {
  const std::uint64_t target = (c.st.x[o.rs1] + static_cast<std::uint64_t>(o.simm)) & ~1ull;
  if (o.rd != 0) c.st.x[o.rd] = o.aux;  // link (pc + 4)
  c.next_pc = target;
}

void h_beq(Ctx& c, const TOp& o) {
  if (c.st.x[o.rs1] == c.st.x[o.rs2]) c.next_pc = o.aux;
}
void h_bne(Ctx& c, const TOp& o) {
  if (c.st.x[o.rs1] != c.st.x[o.rs2]) c.next_pc = o.aux;
}
void h_blt(Ctx& c, const TOp& o) {
  if (static_cast<std::int64_t>(c.st.x[o.rs1]) < static_cast<std::int64_t>(c.st.x[o.rs2]))
    c.next_pc = o.aux;
}
void h_bge(Ctx& c, const TOp& o) {
  if (static_cast<std::int64_t>(c.st.x[o.rs1]) >= static_cast<std::int64_t>(c.st.x[o.rs2]))
    c.next_pc = o.aux;
}
void h_bltu(Ctx& c, const TOp& o) {
  if (c.st.x[o.rs1] < c.st.x[o.rs2]) c.next_pc = o.aux;
}
void h_bgeu(Ctx& c, const TOp& o) {
  if (c.st.x[o.rs1] >= c.st.x[o.rs2]) c.next_pc = o.aux;
}

void h_lw(Ctx& c, const TOp& o) {
  c.st.x[o.rd] = static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int32_t>(
      c.mem.read_u32(c.st.x[o.rs1] + static_cast<std::uint64_t>(o.simm)))));
}
void h_lwu(Ctx& c, const TOp& o) {
  c.st.x[o.rd] = c.mem.read_u32(c.st.x[o.rs1] + static_cast<std::uint64_t>(o.simm));
}
void h_ld(Ctx& c, const TOp& o) {
  c.st.x[o.rd] = c.mem.read_u64(c.st.x[o.rs1] + static_cast<std::uint64_t>(o.simm));
}
void h_sw(Ctx& c, const TOp& o) {
  c.mem.write_u32(c.st.x[o.rs1] + static_cast<std::uint64_t>(o.simm),
                  static_cast<std::uint32_t>(c.st.x[o.rs2]));
}
void h_sd(Ctx& c, const TOp& o) {
  c.mem.write_u64(c.st.x[o.rs1] + static_cast<std::uint64_t>(o.simm), c.st.x[o.rs2]);
}
void h_flw(Ctx& c, const TOp& o) {
  c.st.f[o.rd] = c.mem.read_u32(c.st.x[o.rs1] + static_cast<std::uint64_t>(o.simm));
}
void h_fsw(Ctx& c, const TOp& o) {
  c.mem.write_u32(c.st.x[o.rs1] + static_cast<std::uint64_t>(o.simm), c.st.f[o.rs2]);
}

void h_addi(Ctx& c, const TOp& o) {
  c.st.x[o.rd] = c.st.x[o.rs1] + static_cast<std::uint64_t>(o.simm);
}
void h_slti(Ctx& c, const TOp& o) {
  c.st.x[o.rd] = static_cast<std::int64_t>(c.st.x[o.rs1]) < o.simm ? 1 : 0;
}
void h_sltiu(Ctx& c, const TOp& o) {
  c.st.x[o.rd] = c.st.x[o.rs1] < static_cast<std::uint64_t>(o.simm) ? 1 : 0;
}
void h_xori(Ctx& c, const TOp& o) {
  c.st.x[o.rd] = c.st.x[o.rs1] ^ static_cast<std::uint64_t>(o.simm);
}
void h_ori(Ctx& c, const TOp& o) {
  c.st.x[o.rd] = c.st.x[o.rs1] | static_cast<std::uint64_t>(o.simm);
}
void h_andi(Ctx& c, const TOp& o) {
  c.st.x[o.rd] = c.st.x[o.rs1] & static_cast<std::uint64_t>(o.simm);
}
void h_slli(Ctx& c, const TOp& o) { c.st.x[o.rd] = c.st.x[o.rs1] << o.imm; }
void h_srli(Ctx& c, const TOp& o) { c.st.x[o.rd] = c.st.x[o.rs1] >> o.imm; }
void h_srai(Ctx& c, const TOp& o) {
  c.st.x[o.rd] = static_cast<std::uint64_t>(static_cast<std::int64_t>(c.st.x[o.rs1]) >> o.imm);
}
void h_add(Ctx& c, const TOp& o) { c.st.x[o.rd] = c.st.x[o.rs1] + c.st.x[o.rs2]; }
void h_sub(Ctx& c, const TOp& o) { c.st.x[o.rd] = c.st.x[o.rs1] - c.st.x[o.rs2]; }
void h_sll(Ctx& c, const TOp& o) { c.st.x[o.rd] = c.st.x[o.rs1] << (c.st.x[o.rs2] & 63); }
void h_slt(Ctx& c, const TOp& o) {
  c.st.x[o.rd] =
      static_cast<std::int64_t>(c.st.x[o.rs1]) < static_cast<std::int64_t>(c.st.x[o.rs2]) ? 1 : 0;
}
void h_sltu(Ctx& c, const TOp& o) { c.st.x[o.rd] = c.st.x[o.rs1] < c.st.x[o.rs2] ? 1 : 0; }
void h_xor(Ctx& c, const TOp& o) { c.st.x[o.rd] = c.st.x[o.rs1] ^ c.st.x[o.rs2]; }
void h_srl(Ctx& c, const TOp& o) { c.st.x[o.rd] = c.st.x[o.rs1] >> (c.st.x[o.rs2] & 63); }
void h_sra(Ctx& c, const TOp& o) {
  c.st.x[o.rd] = static_cast<std::uint64_t>(static_cast<std::int64_t>(c.st.x[o.rs1]) >>
                                            (c.st.x[o.rs2] & 63));
}
void h_or(Ctx& c, const TOp& o) { c.st.x[o.rd] = c.st.x[o.rs1] | c.st.x[o.rs2]; }
void h_and(Ctx& c, const TOp& o) { c.st.x[o.rd] = c.st.x[o.rs1] & c.st.x[o.rs2]; }
void h_mul(Ctx& c, const TOp& o) { c.st.x[o.rd] = c.st.x[o.rs1] * c.st.x[o.rs2]; }

void h_ebreak(Ctx& c, const TOp&) { c.stop = StopReason::kEbreak; }
void h_ecall(Ctx& c, const TOp&) { c.stop = StopReason::kEcall; }

void h_marker(Ctx& c, const TOp& o) {
  if (*c.marker_hook) (*c.marker_hook)(o.imm);
}

// ---- vector handlers -----------------------------------------------------

void h_vsetvli(Ctx& c, const TOp& o) {
  const std::uint64_t avl = o.rs1 == 0 ? kVlMax : c.st.x[o.rs1];
  c.st.vl = static_cast<std::uint32_t>(std::min<std::uint64_t>(avl, kVlMax));
  if (o.rd != 0) c.st.x[o.rd] = c.st.vl;
}

void h_vle32(Ctx& c, const TOp& o) {
  c.mem.read_u32_block(c.st.x[o.rs1], c.st.v[o.rd].data(), c.st.vl);
}
void h_vse32(Ctx& c, const TOp& o) {
  c.mem.write_u32_block(c.st.x[o.rs1], c.st.v[o.rd].data(), c.st.vl);
}
void h_vluxei32(Ctx& c, const TOp& o) {
  const std::uint64_t base = c.st.x[o.rs1];
  const std::array<std::uint32_t, kVlMax> idx = c.st.v[o.rs2];  // vd may alias vs2
  for (unsigned i = 0; i < c.st.vl; ++i) c.st.v[o.rd][i] = c.mem.read_u32(base + idx[i]);
}

void h_vadd_vx(Ctx& c, const TOp& o) {
  const std::uint32_t s = static_cast<std::uint32_t>(c.st.x[o.rs1]);
  for (unsigned i = 0; i < c.st.vl; ++i) c.st.v[o.rd][i] = c.st.v[o.rs2][i] + s;
}
void h_vadd_vv(Ctx& c, const TOp& o) {
  for (unsigned i = 0; i < c.st.vl; ++i) c.st.v[o.rd][i] = c.st.v[o.rs2][i] + c.st.v[o.rs1][i];
}
void h_vfadd_vv(Ctx& c, const TOp& o) {
  for (unsigned i = 0; i < c.st.vl; ++i)
    c.st.v[o.rd][i] =
        f32_to_bits(bits_to_f32(c.st.v[o.rs2][i]) + bits_to_f32(c.st.v[o.rs1][i]));
}
void h_vmul_vv(Ctx& c, const TOp& o) {
  for (unsigned i = 0; i < c.st.vl; ++i) c.st.v[o.rd][i] = c.st.v[o.rs2][i] * c.st.v[o.rs1][i];
}
void h_vfmul_vv(Ctx& c, const TOp& o) {
  for (unsigned i = 0; i < c.st.vl; ++i)
    c.st.v[o.rd][i] =
        f32_to_bits(bits_to_f32(c.st.v[o.rs2][i]) * bits_to_f32(c.st.v[o.rs1][i]));
}
void h_vredsum(Ctx& c, const TOp& o) {
  std::uint32_t acc = c.st.v[o.rs1][0];
  for (unsigned i = 0; i < c.st.vl; ++i) acc += c.st.v[o.rs2][i];
  if (c.st.vl > 0) c.st.v[o.rd][0] = acc;
}
void h_vfredusum(Ctx& c, const TOp& o) {
  float acc = bits_to_f32(c.st.v[o.rs1][0]);
  for (unsigned i = 0; i < c.st.vl; ++i) acc += bits_to_f32(c.st.v[o.rs2][i]);
  if (c.st.vl > 0) c.st.v[o.rd][0] = f32_to_bits(acc);
}
void h_vadd_vi(Ctx& c, const TOp& o) {
  const std::uint32_t s = static_cast<std::uint32_t>(o.imm);
  for (unsigned i = 0; i < c.st.vl; ++i) c.st.v[o.rd][i] = c.st.v[o.rs2][i] + s;
}
void h_vmacc_vx(Ctx& c, const TOp& o) {
  const std::uint32_t s = static_cast<std::uint32_t>(c.st.x[o.rs1]);
  for (unsigned i = 0; i < c.st.vl; ++i) c.st.v[o.rd][i] += s * c.st.v[o.rs2][i];
}
void h_vfmacc_vf(Ctx& c, const TOp& o) {
  const float s = bits_to_f32(c.st.f[o.rs1]);
  for (unsigned i = 0; i < c.st.vl; ++i)
    c.st.v[o.rd][i] =
        f32_to_bits(bits_to_f32(c.st.v[o.rd][i]) + s * bits_to_f32(c.st.v[o.rs2][i]));
}
void h_vmv_v_x(Ctx& c, const TOp& o) {
  const std::uint32_t s = static_cast<std::uint32_t>(c.st.x[o.rs1]);
  for (unsigned i = 0; i < c.st.vl; ++i) c.st.v[o.rd][i] = s;
}
void h_vmv_v_i(Ctx& c, const TOp& o) {
  const std::uint32_t s = static_cast<std::uint32_t>(o.imm);
  for (unsigned i = 0; i < c.st.vl; ++i) c.st.v[o.rd][i] = s;
}
void h_vmv_x_s(Ctx& c, const TOp& o) {
  c.st.x[o.rd] = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(static_cast<std::int32_t>(c.st.v[o.rs2][0])));
}
void h_vfmv_f_s(Ctx& c, const TOp& o) { c.st.f[o.rd] = c.st.v[o.rs2][0]; }
void h_vmv_s_x(Ctx& c, const TOp& o) {
  if (c.st.vl > 0) c.st.v[o.rd][0] = static_cast<std::uint32_t>(c.st.x[o.rs1]);
}

void h_vslidedown_vx(Ctx& c, const TOp& o) {
  const std::uint64_t offset = c.st.x[o.rs1];
  const std::array<std::uint32_t, kVlMax> src = c.st.v[o.rs2];
  for (unsigned i = 0; i < c.st.vl; ++i) {
    const std::uint64_t j = i + offset;
    c.st.v[o.rd][i] = j < kVlMax ? src[j] : 0;
  }
}
void h_vslidedown_vi(Ctx& c, const TOp& o) {
  const std::uint64_t offset = static_cast<std::uint64_t>(o.imm);
  const std::array<std::uint32_t, kVlMax> src = c.st.v[o.rs2];
  for (unsigned i = 0; i < c.st.vl; ++i) {
    const std::uint64_t j = i + offset;
    c.st.v[o.rd][i] = j < kVlMax ? src[j] : 0;
  }
}
void h_vslide1down(Ctx& c, const TOp& o) {
  const std::array<std::uint32_t, kVlMax> src = c.st.v[o.rs2];
  if (c.st.vl > 0) {
    for (unsigned i = 0; i + 1 < c.st.vl; ++i) c.st.v[o.rd][i] = src[i + 1];
    c.st.v[o.rd][c.st.vl - 1] = static_cast<std::uint32_t>(c.st.x[o.rs1]);
  }
}

void h_vindexmac_u(Ctx& c, const TOp& o) {
  const unsigned src = static_cast<unsigned>(c.st.x[o.rs1] & 0x1f);
  const std::uint32_t scale = c.st.v[o.rs2][0];
  for (unsigned i = 0; i < c.st.vl; ++i) c.st.v[o.rd][i] += scale * c.st.v[src][i];
}
void h_vindexmac_f(Ctx& c, const TOp& o) {
  const unsigned src = static_cast<unsigned>(c.st.x[o.rs1] & 0x1f);
  const float scale = bits_to_f32(c.st.v[o.rs2][0]);
  for (unsigned i = 0; i < c.st.vl; ++i)
    c.st.v[o.rd][i] =
        f32_to_bits(bits_to_f32(c.st.v[o.rd][i]) + scale * bits_to_f32(c.st.v[src][i]));
}
void h_vindexmacp_u(Ctx& c, const TOp& o) {
  const unsigned src = 16u | static_cast<unsigned>(c.st.x[o.rs1] & 0xf);
  const std::uint32_t scale = c.st.v[o.rs2][0];
  for (unsigned i = 0; i < c.st.vl; ++i) c.st.v[o.rd][i] += scale * c.st.v[src][i];
}
void h_vindexmacp_f(Ctx& c, const TOp& o) {
  const unsigned src = 16u | static_cast<unsigned>(c.st.x[o.rs1] & 0xf);
  const float scale = bits_to_f32(c.st.v[o.rs2][0]);
  for (unsigned i = 0; i < c.st.vl; ++i)
    c.st.v[o.rd][i] =
        f32_to_bits(bits_to_f32(c.st.v[o.rd][i]) + scale * bits_to_f32(c.st.v[src][i]));
}
void h_vindexmac2_u(Ctx& c, const TOp& o) {
  const unsigned src0 = 16u | static_cast<unsigned>(c.st.x[o.rs1] & 0xf);
  const unsigned src1 = 16u | static_cast<unsigned>((c.st.x[o.rs1] >> 4) & 0xf);
  const std::uint32_t s0 = c.st.v[o.rs2][0];
  const std::uint32_t s1 = c.st.v[o.rs2][1];
  for (unsigned i = 0; i < c.st.vl; ++i) {
    c.st.v[o.rd][i] += s0 * c.st.v[src0][i];
    c.st.v[o.rd][i] += s1 * c.st.v[src1][i];
  }
}
void h_vindexmac2_f(Ctx& c, const TOp& o) {
  const unsigned src0 = 16u | static_cast<unsigned>(c.st.x[o.rs1] & 0xf);
  const unsigned src1 = 16u | static_cast<unsigned>((c.st.x[o.rs1] >> 4) & 0xf);
  const float s0 = bits_to_f32(c.st.v[o.rs2][0]);
  const float s1 = bits_to_f32(c.st.v[o.rs2][1]);
  for (unsigned i = 0; i < c.st.vl; ++i) {
    c.st.v[o.rd][i] =
        f32_to_bits(bits_to_f32(c.st.v[o.rd][i]) + s0 * bits_to_f32(c.st.v[src0][i]));
    c.st.v[o.rd][i] =
        f32_to_bits(bits_to_f32(c.st.v[o.rd][i]) + s1 * bits_to_f32(c.st.v[src1][i]));
  }
}

// ---- superblock chain execution ------------------------------------------

/// Element `off` of v[reg] under a deferred shift: reads past the register
/// end are the zeros the slides would have filled in.
std::uint32_t shifted_elem(const ArchState& st, unsigned reg, unsigned off) {
  return off < kVlMax ? st.v[reg][off] : 0;
}

/// Materializes a deferred shift: v[i] = v[i + s], zero-filled.
void apply_shift(ArchState& st, unsigned reg, unsigned s) {
  auto& v = st.v[reg];
  for (unsigned i = 0; i < kVlMax; ++i) v[i] = i + s < kVlMax ? v[i + s] : 0;
}

/// Executes one per-op record; a traced run first records the pre-state
/// the instruction's trace entry is built from into slot `idx`.
template <bool kTrace>
void exec_op(Ctx& c, const TOp& o, std::size_t idx) {
  if constexpr (kTrace) {
    c.rec[idx] = {c.st.x[o.rs1], c.st.vl};
    if (o.gather) c.gather[idx] = c.st.v[o.rs2];
  }
  o.fn(c, o);
}

/// Abandons fused execution before original op `op_idx`: applies the
/// `slide_count` slides deferred so far (state is then exactly the
/// interpreter's after op_idx instructions) and replays the rest of the
/// chain through its original per-op records. `base` is the chain's first
/// op index within its block (traced runs record there).
template <bool kTrace>
void chain_bail(Ctx& c, const Chain& ch, std::uint32_t slide_count, std::uint32_t op_idx,
                std::size_t base) {
  std::array<std::uint8_t, isa::kNumVRegs> pend{};
  for (std::uint32_t j = 0; j < slide_count; ++j) {
    const Chain::Fixup& s = ch.slide_log[j];
    pend[s.reg] =
        static_cast<std::uint8_t>(std::min<unsigned>(kVlMax, pend[s.reg] + s.shift));
  }
  for (unsigned r = 0; r < isa::kNumVRegs; ++r)
    if (pend[r] != 0) apply_shift(c.st, r, pend[r]);
  ++c.stats->chain_bails;
  for (std::uint32_t j = op_idx; j < ch.op_count; ++j) exec_op<kTrace>(c, ch.replay[j], base + j);
}

/// Runs a fused chain whose first op sits at index `base` of its block.
/// Traced runs record vl for every op up front (a fused chain runs at
/// vl == kVlMax throughout) and x[rs1] where a micro's original op reads
/// an address or a row index from it.
template <bool kTrace>
void run_chain(Ctx& c, const Chain& ch, std::size_t base) {
  ArchState& st = c.st;
  // The deferred-slide model bakes in vslide semantics at vl == kVlMax
  // (tail elements untouched otherwise); narrower vl replays per-op.
  if (st.vl != kVlMax) {
    chain_bail<kTrace>(c, ch, 0, 0, base);
    return;
  }
  OpRecord* const rec = kTrace ? c.rec + base : nullptr;
  if constexpr (kTrace)
    for (std::uint32_t j = 0; j < ch.op_count; ++j) rec[j].vl = kVlMax;
  const auto record_rs1 = [rec](std::uint32_t op_idx, std::uint64_t value) {
    if constexpr (kTrace) rec[op_idx].rs1 = value;
  };
  const auto bail = [&](const Micro& u) {
    chain_bail<kTrace>(c, ch, u.slide_count, u.op_idx, base);
  };
  const std::size_t n = ch.micros.size();
  for (std::size_t k = 0; k < n; ++k) {
    const Micro& u = ch.micros[k];
    switch (u.k) {
      case Micro::K::kMvXS:
        st.x[u.a] = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(static_cast<std::int32_t>(shifted_elem(st, u.b, u.off))));
        break;
      case Micro::K::kMvFS:
        st.f[u.a] = shifted_elem(st, u.b, u.off);
        break;
      case Micro::K::kSrli:
        st.x[u.a] >>= u.shamt;
        break;
      case Micro::K::kLoadRow:
        record_rs1(u.op_idx, st.x[u.c]);
        c.mem.read_u32_block(st.x[u.c], st.v[u.a].data(), kVlMax);
        break;
      case Micro::K::kMacIdxU: {
        record_rs1(u.op_idx, st.x[u.c]);
        const unsigned row = static_cast<unsigned>(st.x[u.c] & 0x1f);
        if ((u.unsafe_mask >> row) & 1u) return bail(u);
        const std::uint32_t scale = shifted_elem(st, u.b, u.off);
        auto& acc = st.v[u.a];
        const auto& src = st.v[row];
        for (unsigned i = 0; i < kVlMax; ++i) acc[i] += scale * src[i];
        break;
      }
      case Micro::K::kMacIdxF: {
        record_rs1(u.op_idx, st.x[u.c]);
        const unsigned row = static_cast<unsigned>(st.x[u.c] & 0x1f);
        if ((u.unsafe_mask >> row) & 1u) return bail(u);
        const float scale = bits_to_f32(shifted_elem(st, u.b, u.off));
        auto& acc = st.v[u.a];
        const auto& src = st.v[row];
        for (unsigned i = 0; i < kVlMax; ++i)
          acc[i] = f32_to_bits(bits_to_f32(acc[i]) + scale * bits_to_f32(src[i]));
        break;
      }
      case Micro::K::kMacLaneU: {
        const std::uint32_t lane = shifted_elem(st, u.c, u.shamt);
        st.x[u.x] = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(static_cast<std::int32_t>(lane)));
        record_rs1(u.op_idx + 1u, st.x[u.x]);  // the MAC reads the mv's result
        const unsigned row = lane & 0x1f;
        // On a bail the replayed vmv.x.s recomputes the identical x value:
        // its source vreg cannot have changed since this micro started.
        if ((u.unsafe_mask >> row) & 1u) return bail(u);
        const std::uint32_t scale = shifted_elem(st, u.b, u.off);
        auto& acc = st.v[u.a];
        const auto& src = st.v[row];
        for (unsigned i = 0; i < kVlMax; ++i) acc[i] += scale * src[i];
        break;
      }
      case Micro::K::kMacLaneF: {
        const std::uint32_t lane = shifted_elem(st, u.c, u.shamt);
        st.x[u.x] = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(static_cast<std::int32_t>(lane)));
        record_rs1(u.op_idx + 1u, st.x[u.x]);
        const unsigned row = lane & 0x1f;
        if ((u.unsafe_mask >> row) & 1u) return bail(u);
        const float scale = bits_to_f32(shifted_elem(st, u.b, u.off));
        auto& acc = st.v[u.a];
        const auto& src = st.v[row];
        for (unsigned i = 0; i < kVlMax; ++i)
          acc[i] = f32_to_bits(bits_to_f32(acc[i]) + scale * bits_to_f32(src[i]));
        break;
      }
      case Micro::K::kMacPackU: {
        record_rs1(u.op_idx, st.x[u.c]);
        const unsigned row = 16u | static_cast<unsigned>(st.x[u.c] & 0xf);
        if ((u.unsafe_mask >> row) & 1u) return bail(u);
        const std::uint32_t scale = shifted_elem(st, u.b, u.off);
        auto& acc = st.v[u.a];
        const auto& src = st.v[row];
        for (unsigned i = 0; i < kVlMax; ++i) acc[i] += scale * src[i];
        break;
      }
      case Micro::K::kMacPackF: {
        record_rs1(u.op_idx, st.x[u.c]);
        const unsigned row = 16u | static_cast<unsigned>(st.x[u.c] & 0xf);
        if ((u.unsafe_mask >> row) & 1u) return bail(u);
        const float scale = bits_to_f32(shifted_elem(st, u.b, u.off));
        auto& acc = st.v[u.a];
        const auto& src = st.v[row];
        for (unsigned i = 0; i < kVlMax; ++i)
          acc[i] = f32_to_bits(bits_to_f32(acc[i]) + scale * bits_to_f32(src[i]));
        break;
      }
      case Micro::K::kMacDualU: {
        record_rs1(u.op_idx, st.x[u.c]);
        const unsigned r0 = 16u | static_cast<unsigned>(st.x[u.c] & 0xf);
        const unsigned r1 = 16u | static_cast<unsigned>((st.x[u.c] >> 4) & 0xf);
        if (((u.unsafe_mask >> r0) | (u.unsafe_mask >> r1)) & 1u) return bail(u);
        const std::uint32_t s0 = shifted_elem(st, u.b, u.off);
        const std::uint32_t s1 = shifted_elem(st, u.b, u.off + 1u);
        auto& acc = st.v[u.a];
        const auto& src0 = st.v[r0];
        const auto& src1 = st.v[r1];
        for (unsigned i = 0; i < kVlMax; ++i) {
          acc[i] += s0 * src0[i];
          acc[i] += s1 * src1[i];
        }
        break;
      }
      case Micro::K::kMacDualF: {
        record_rs1(u.op_idx, st.x[u.c]);
        const unsigned r0 = 16u | static_cast<unsigned>(st.x[u.c] & 0xf);
        const unsigned r1 = 16u | static_cast<unsigned>((st.x[u.c] >> 4) & 0xf);
        if (((u.unsafe_mask >> r0) | (u.unsafe_mask >> r1)) & 1u) return bail(u);
        const float s0 = bits_to_f32(shifted_elem(st, u.b, u.off));
        const float s1 = bits_to_f32(shifted_elem(st, u.b, u.off + 1u));
        auto& acc = st.v[u.a];
        const auto& src0 = st.v[r0];
        const auto& src1 = st.v[r1];
        for (unsigned i = 0; i < kVlMax; ++i) {
          acc[i] = f32_to_bits(bits_to_f32(acc[i]) + s0 * bits_to_f32(src0[i]));
          acc[i] = f32_to_bits(bits_to_f32(acc[i]) + s1 * bits_to_f32(src1[i]));
        }
        break;
      }
      case Micro::K::kMaccVxU: {
        const std::uint32_t scale = static_cast<std::uint32_t>(st.x[u.c]);
        auto& acc = st.v[u.a];
        const auto& src = st.v[u.b];
        for (unsigned i = 0; i < kVlMax; ++i) acc[i] += scale * src[i];
        break;
      }
      case Micro::K::kFmaccVf: {
        const float scale = bits_to_f32(st.f[u.c]);
        auto& acc = st.v[u.a];
        const auto& src = st.v[u.b];
        for (unsigned i = 0; i < kVlMax; ++i)
          acc[i] = f32_to_bits(bits_to_f32(acc[i]) + scale * bits_to_f32(src[i]));
        break;
      }
    }
  }
  for (const Chain::Fixup& f : ch.fixups) apply_shift(st, f.reg, f.shift);
  c.stats->superblock_macs += ch.mac_count;
}

void h_chain(Ctx& c, const TOp& o) { run_chain<false>(c, *o.chain, 0); }

}  // namespace

// ---- engine implementation -----------------------------------------------

struct ThreadedEngine::Impl {
  Machine& m;
  const Instruction* code;
  const isa::StaticInstInfo* info;
  std::uint64_t base;
  std::uint64_t code_bytes;
  std::size_t nslots;

  enum : std::uint8_t { kUnknown = 0, kFallbackSlot = 1, kBuilt = 2 };
  std::vector<std::uint8_t> slot_state;
  std::vector<Block*> slot_ptr;
  std::deque<Block> blocks;
  std::deque<Chain> chains;
  // run_block() record storage, sized at block build to the longest block
  // so traced runs never allocate.
  std::vector<OpRecord> trace_ops;
  std::vector<GatherRecord> trace_gather;
  Stats stats;

  explicit Impl(Machine& machine)
      : m(machine),
        code(machine.code_),
        info(machine.info_),
        base(machine.base_),
        code_bytes(machine.code_bytes_),
        nslots(static_cast<std::size_t>(machine.code_bytes_ >> 2)),
        slot_state(nslots, kUnknown),
        slot_ptr(nslots, nullptr) {}

  Ctx make_ctx(std::uint64_t fall_pc) {
    return Ctx{m.state_, m.memory_, &m.marker_hook_, &stats, fall_pc, StopReason::kRunning};
  }

  TOp make_op(std::size_t slot);
  Block* build_block(std::size_t entry);
  void build_fast(Block& b, std::size_t entry);
  Block* lookup_block(std::uint64_t pc);
  template <bool kTrace>
  StopReason exec_block(const Block& b);
  StopReason run(std::uint64_t max_steps);
  StopReason run_with_breakpoints(const BreakpointSet& bps, std::uint64_t max_steps);
  StopReason run_block(BlockTrace& trace);
};

TOp ThreadedEngine::Impl::make_op(std::size_t slot) {
  const Instruction& in = code[slot];
  const std::uint64_t pc = base + 4 * slot;
  TOp o;
  o.rd = in.rd;
  o.rs1 = in.rs1;
  o.rs2 = in.rs2;
  o.imm = in.imm;
  o.simm = static_cast<std::int64_t>(in.imm);
  // rd == x0: pure x-register writes become no-ops at bind time so handlers
  // never need the interpreter's post-instruction x0 clear mid-block.
  const bool x0_sink = in.rd == 0;
  switch (in.op) {
    case Op::kLui:
      o.aux = static_cast<std::uint64_t>(static_cast<std::int64_t>(in.imm) << 12);
      o.fn = x0_sink ? h_nop : h_const_x;
      break;
    case Op::kAuipc:
      o.aux = pc + static_cast<std::uint64_t>(static_cast<std::int64_t>(in.imm) << 12);
      o.fn = x0_sink ? h_nop : h_const_x;
      break;
    case Op::kJal:
      o.aux = pc + static_cast<std::uint64_t>(o.simm);   // target
      o.simm = static_cast<std::int64_t>(pc + 4);        // link
      o.fn = x0_sink ? h_j : h_jal;
      break;
    case Op::kJalr:
      o.aux = pc + 4;  // link
      o.fn = h_jalr;
      break;
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
      o.aux = pc + static_cast<std::uint64_t>(o.simm);  // taken target
      o.fn = in.op == Op::kBeq    ? h_beq
             : in.op == Op::kBne  ? h_bne
             : in.op == Op::kBlt  ? h_blt
             : in.op == Op::kBge  ? h_bge
             : in.op == Op::kBltu ? h_bltu
                                  : h_bgeu;
      break;
    case Op::kLw: o.fn = x0_sink ? h_nop : h_lw; break;
    case Op::kLwu: o.fn = x0_sink ? h_nop : h_lwu; break;
    case Op::kLd: o.fn = x0_sink ? h_nop : h_ld; break;
    case Op::kSw: o.fn = h_sw; break;
    case Op::kSd: o.fn = h_sd; break;
    case Op::kFlw: o.fn = h_flw; break;
    case Op::kFsw: o.fn = h_fsw; break;
    case Op::kAddi: o.fn = x0_sink ? h_nop : h_addi; break;
    case Op::kSlti: o.fn = x0_sink ? h_nop : h_slti; break;
    case Op::kSltiu: o.fn = x0_sink ? h_nop : h_sltiu; break;
    case Op::kXori: o.fn = x0_sink ? h_nop : h_xori; break;
    case Op::kOri: o.fn = x0_sink ? h_nop : h_ori; break;
    case Op::kAndi: o.fn = x0_sink ? h_nop : h_andi; break;
    case Op::kSlli: o.fn = x0_sink ? h_nop : h_slli; break;
    case Op::kSrli: o.fn = x0_sink ? h_nop : h_srli; break;
    case Op::kSrai: o.fn = x0_sink ? h_nop : h_srai; break;
    case Op::kAdd: o.fn = x0_sink ? h_nop : h_add; break;
    case Op::kSub: o.fn = x0_sink ? h_nop : h_sub; break;
    case Op::kSll: o.fn = x0_sink ? h_nop : h_sll; break;
    case Op::kSlt: o.fn = x0_sink ? h_nop : h_slt; break;
    case Op::kSltu: o.fn = x0_sink ? h_nop : h_sltu; break;
    case Op::kXor: o.fn = x0_sink ? h_nop : h_xor; break;
    case Op::kSrl: o.fn = x0_sink ? h_nop : h_srl; break;
    case Op::kSra: o.fn = x0_sink ? h_nop : h_sra; break;
    case Op::kOr: o.fn = x0_sink ? h_nop : h_or; break;
    case Op::kAnd: o.fn = x0_sink ? h_nop : h_and; break;
    case Op::kMul: o.fn = x0_sink ? h_nop : h_mul; break;
    case Op::kEbreak: o.fn = h_ebreak; break;
    case Op::kEcall: o.fn = h_ecall; break;
    case Op::kMarker: o.fn = h_marker; break;
    case Op::kVsetvli: o.fn = h_vsetvli; break;
    case Op::kVle32: o.fn = h_vle32; break;
    case Op::kVse32: o.fn = h_vse32; break;
    case Op::kVluxei32:
      o.fn = h_vluxei32;
      o.gather = true;
      break;
    case Op::kVaddVx: o.fn = h_vadd_vx; break;
    case Op::kVaddVV: o.fn = h_vadd_vv; break;
    case Op::kVfaddVV: o.fn = h_vfadd_vv; break;
    case Op::kVmulVV: o.fn = h_vmul_vv; break;
    case Op::kVfmulVV: o.fn = h_vfmul_vv; break;
    case Op::kVredsumVS: o.fn = h_vredsum; break;
    case Op::kVfredusumVS: o.fn = h_vfredusum; break;
    case Op::kVaddVi: o.fn = h_vadd_vi; break;
    case Op::kVmaccVx: o.fn = h_vmacc_vx; break;
    case Op::kVfmaccVf: o.fn = h_vfmacc_vf; break;
    case Op::kVmvVX: o.fn = h_vmv_v_x; break;
    case Op::kVmvVI: o.fn = h_vmv_v_i; break;
    case Op::kVmvXS: o.fn = x0_sink ? h_nop : h_vmv_x_s; break;
    case Op::kVfmvFS: o.fn = h_vfmv_f_s; break;
    case Op::kVmvSX: o.fn = h_vmv_s_x; break;
    case Op::kVslidedownVx: o.fn = h_vslidedown_vx; break;
    case Op::kVslidedownVi: o.fn = h_vslidedown_vi; break;
    case Op::kVslide1downVx: o.fn = h_vslide1down; break;
    case Op::kVindexmacVx: o.fn = h_vindexmac_u; break;
    case Op::kVfindexmacVx: o.fn = h_vindexmac_f; break;
    case Op::kVindexmacpVx: o.fn = h_vindexmacp_u; break;
    case Op::kVfindexmacpVx: o.fn = h_vindexmacp_f; break;
    case Op::kVindexmac2Vx: o.fn = h_vindexmac2_u; break;
    case Op::kVfindexmac2Vx: o.fn = h_vindexmac2_f; break;
    default:
      // Fallback-class ops (SSR, illegal) never reach here: the block
      // builder routes them to Machine::step by flag.
      IMAC_ASSERT(false, "threaded: no handler bound for " + isa::mnemonic(in.op));
  }
  return o;
}

Block* ThreadedEngine::Impl::build_block(std::size_t entry) {
  if (info[entry].has(isa::kSiThreadedFallback)) {
    slot_state[entry] = kFallbackSlot;
    return nullptr;
  }
  Block b;
  b.entry_pc = base + 4 * entry;
  for (std::size_t s = entry; s < nslots; ++s) {
    const isa::StaticInstInfo& si = info[s];
    if (si.has(isa::kSiThreadedFallback)) break;  // fall through into Machine::step
    b.ops.push_back(make_op(s));
    if (si.has(isa::kSiBranch | isa::kSiJump | isa::kSiHalt)) break;
  }
  b.n_ops = static_cast<std::uint32_t>(b.ops.size());
  b.fall_pc = b.entry_pc + 4ull * b.n_ops;
  if (b.n_ops > trace_ops.size()) {
    trace_ops.resize(b.n_ops);
    trace_gather.resize(b.n_ops);
  }
  blocks.push_back(std::move(b));
  Block& placed = blocks.back();
  build_fast(placed, entry);
  slot_state[entry] = kBuilt;
  slot_ptr[entry] = &placed;
  ++stats.blocks_built;
  return &placed;
}

namespace {

/// Incremental chain construction state over one candidate run.
struct ChainScan {
  std::vector<Micro> micros;
  std::vector<Chain::Fixup> slide_log;              ///< deferred slides, in order
  std::array<std::uint8_t, isa::kNumVRegs> pend{};  ///< deferred shift per vreg
  std::uint32_t pend_mask = 0;     ///< vregs with pend > 0
  std::uint32_t written_mask = 0;  ///< vregs written by non-slide chain ops
  std::uint16_t op_idx = 0;        ///< ops accepted into the run so far
  unsigned macs = 0;

  void reset() {
    micros.clear();
    slide_log.clear();
    pend.fill(0);
    pend_mask = 0;
    written_mask = 0;
    op_idx = 0;
    macs = 0;
  }

  /// Appends the instruction as a micro if its structural constraints hold
  /// under the current deferred-shift state; false closes the run.
  bool try_add(const Instruction& in) {
    switch (in.op) {
      case Op::kVslide1downVx:
        if (in.rs1 != 0 || in.rd != in.rs2) return false;  // only in-place zero-fill
        if ((written_mask >> in.rd) & 1u) return false;    // slide of an in-chain write
        slide_log.push_back({in.rd, 1});
        bump(in.rd, 1);
        ++op_idx;
        return true;
      case Op::kVslidedownVi: {
        if (in.rd != in.rs2 || in.imm < 0) return false;
        if ((written_mask >> in.rd) & 1u) return false;
        const auto amt = static_cast<std::uint8_t>(std::min<std::int32_t>(in.imm, kVlMax));
        slide_log.push_back({in.rd, amt});
        bump(in.rd, amt);
        ++op_idx;
        return true;
      }
      case Op::kVmvXS:
        if (in.rd == 0) return false;
        push({Micro::K::kMvXS, in.rd, in.rs2, 0, pend[in.rs2], 0});
        return true;
      case Op::kVfmvFS:
        push({Micro::K::kMvFS, in.rd, in.rs2, 0, pend[in.rs2], 0});
        return true;
      case Op::kSrli:
        if (in.rd != in.rs1 || in.rd == 0 || in.imm < 0 || in.imm > 63) return false;
        push({Micro::K::kSrli, in.rd, 0, 0, 0, static_cast<std::uint8_t>(in.imm)});
        return true;
      case Op::kVle32:
        if (pend[in.rd] != 0) return false;  // load into a shift-deferred reg
        push({Micro::K::kLoadRow, in.rd, 0, in.rs1, 0, 0});
        written_mask |= 1u << in.rd;
        return true;
      case Op::kVmaccVx:
        // Wide read of vs2: only safe when it has no pending shift.
        if (pend[in.rd] != 0 || pend[in.rs2] != 0) return false;
        push({Micro::K::kMaccVxU, in.rd, in.rs2, in.rs1, 0, 0});
        written_mask |= 1u << in.rd;
        ++macs;
        return true;
      case Op::kVfmaccVf:
        if (pend[in.rd] != 0 || pend[in.rs2] != 0) return false;
        push({Micro::K::kFmaccVf, in.rd, in.rs2, in.rs1, 0, 0});
        written_mask |= 1u << in.rd;
        ++macs;
        return true;
      case Op::kVindexmacVx:
      case Op::kVfindexmacVx:
      case Op::kVindexmacpVx:
      case Op::kVfindexmacpVx:
      case Op::kVindexmac2Vx:
      case Op::kVfindexmac2Vx: {
        if (pend[in.rd] != 0) return false;  // accumulate into a deferred reg
        // Peephole: a vmv.x.s immediately feeding this MAC's row index (the
        // Algorithm 2/3 inner shape) fuses into one lane-MAC micro. The
        // mv's scalar write stays architectural; a bail replays both ops.
        if ((in.op == Op::kVindexmacVx || in.op == Op::kVfindexmacVx) && !micros.empty()) {
          Micro& prev = micros.back();
          if (prev.k == Micro::K::kMvXS && prev.a == in.rs1 && prev.op_idx + 1 == op_idx) {
            prev.k = in.op == Op::kVindexmacVx ? Micro::K::kMacLaneU : Micro::K::kMacLaneF;
            prev.x = prev.a;       // scalar dest of the mv
            prev.c = prev.b;       // index vreg
            prev.shamt = prev.off; // index element offset
            prev.a = in.rd;
            prev.b = in.rs2;
            prev.off = pend[in.rs2];
            prev.unsafe_mask = pend_mask;
            written_mask |= 1u << in.rd;
            ++macs;
            ++op_idx;
            return true;
          }
        }
        Micro::K k;
        switch (in.op) {
          case Op::kVindexmacVx: k = Micro::K::kMacIdxU; break;
          case Op::kVfindexmacVx: k = Micro::K::kMacIdxF; break;
          case Op::kVindexmacpVx: k = Micro::K::kMacPackU; break;
          case Op::kVfindexmacpVx: k = Micro::K::kMacPackF; break;
          case Op::kVindexmac2Vx: k = Micro::K::kMacDualU; break;
          default: k = Micro::K::kMacDualF; break;
        }
        push({k, in.rd, in.rs2, in.rs1, pend[in.rs2], 0, 0, 0, 0, pend_mask});
        written_mask |= 1u << in.rd;
        ++macs;
        return true;
      }
      default:
        return false;
    }
  }

 private:
  void push(Micro u) {
    u.op_idx = op_idx++;
    u.slide_count = static_cast<std::uint16_t>(slide_log.size());
    micros.push_back(u);
  }

  void bump(unsigned reg, unsigned amount) {
    pend[reg] = static_cast<std::uint8_t>(std::min<unsigned>(kVlMax, pend[reg] + amount));
    pend_mask |= 1u << reg;
  }
};

}  // namespace

void ThreadedEngine::Impl::build_fast(Block& b, std::size_t entry) {
  b.fast.reserve(b.ops.size());
  ChainScan scan;
  std::size_t run_begin = 0;  // first op index of the open candidate run

  const auto close_run = [&](std::size_t end) {
    const std::size_t count = end - run_begin;
    if (!scan.slide_log.empty() && count >= 2) {
      Chain ch;
      ch.micros = std::move(scan.micros);
      ch.slide_log = std::move(scan.slide_log);
      ch.replay = b.ops.data() + run_begin;
      ch.op_count = static_cast<std::uint32_t>(count);
      ch.mac_count = scan.macs;
      for (unsigned r = 0; r < isa::kNumVRegs; ++r)
        if (scan.pend[r] != 0) ch.fixups.push_back({static_cast<std::uint8_t>(r), scan.pend[r]});
      chains.push_back(std::move(ch));
      TOp t;
      t.fn = h_chain;
      t.chain = &chains.back();
      b.fast.push_back(t);
    } else {
      for (std::size_t j = run_begin; j < end; ++j) b.fast.push_back(b.ops[j]);
    }
    scan.reset();
  };

  for (std::size_t i = 0; i < b.ops.size(); ++i) {
    const std::size_t slot = entry + i;
    const Instruction& in = code[slot];
    if (info[slot].has(isa::kSiChainFusable) && scan.try_add(in)) continue;
    close_run(i);
    run_begin = i;
    if (info[slot].has(isa::kSiChainFusable) && scan.try_add(in)) continue;
    b.fast.push_back(b.ops[i]);
    run_begin = i + 1;
  }
  close_run(b.ops.size());
}

Block* ThreadedEngine::Impl::lookup_block(std::uint64_t pc) {
  if (pc < base || pc - base >= code_bytes || ((pc - base) & 3) != 0) return nullptr;
  const std::size_t slot = static_cast<std::size_t>((pc - base) >> 2);
  switch (slot_state[slot]) {
    case kUnknown: return build_block(slot);
    case kFallbackSlot: return nullptr;
    default: return slot_ptr[slot];
  }
}

template <bool kTrace>
StopReason ThreadedEngine::Impl::exec_block(const Block& b) {
  Ctx ctx = make_ctx(b.fall_pc);
  if constexpr (kTrace) {
    ctx.rec = trace_ops.data();
    ctx.gather = trace_gather.data();
    std::size_t idx = 0;  // original op index of `op` within the block
    for (const TOp& op : b.fast) {
      if (op.chain != nullptr) {
        run_chain<true>(ctx, *op.chain, idx);
        idx += op.chain->op_count;
      } else {
        exec_op<true>(ctx, op, idx++);
      }
    }
  } else {
    for (const TOp& op : b.fast) op.fn(ctx, op);
  }
  m.state_.pc = ctx.next_pc;
  m.state_.x[0] = 0;
  m.retired_ += b.n_ops;
  ++stats.block_runs;
  return ctx.stop;
}

StopReason ThreadedEngine::Impl::run(std::uint64_t max_steps) {
  std::uint64_t budget = max_steps;
  while (budget > 0) {
    Block* b = lookup_block(m.state_.pc);
    if (b == nullptr) {
      // Fallback-class op or out-of-range pc: the interpreter executes it
      // (or raises its exact fault).
      ++stats.fallback_steps;
      const StopReason r = m.step();
      --budget;
      if (r != StopReason::kRunning) return r;
      continue;
    }
    if (b->n_ops > budget) {
      // Not enough budget for the whole block: finish instruction-exact
      // through the interpreter.
      while (budget > 0) {
        ++stats.fallback_steps;
        const StopReason r = m.step();
        --budget;
        if (r != StopReason::kRunning) return r;
      }
      break;
    }
    budget -= b->n_ops;
    const StopReason r = exec_block<false>(*b);
    if (r != StopReason::kRunning) return r;
  }
  return StopReason::kMaxSteps;
}

StopReason ThreadedEngine::Impl::run_with_breakpoints(const BreakpointSet& bps,
                                                      std::uint64_t max_steps) {
  if (bps.empty()) return run(max_steps);
  std::uint64_t budget = max_steps;
  while (budget > 0) {
    if (bps.contains(m.state_.pc)) return StopReason::kRunning;
    Block* b = lookup_block(m.state_.pc);
    if (b == nullptr || b->n_ops > budget || bps.intersects(b->entry_pc, b->fall_pc)) {
      // Interpreter-step: a fallback-class op, a block too big for the
      // remaining budget, or a block containing a breakpoint (a fused chain
      // must not sail past a pc the debugger is watching). Steps stay
      // inside the block's range so a breakpoint-free successor block goes
      // back to the fast path.
      const std::uint64_t lo = b != nullptr ? b->entry_pc : 0;
      const std::uint64_t hi = b != nullptr ? b->fall_pc : 0;
      do {
        ++stats.fallback_steps;
        const StopReason r = m.step();
        --budget;
        if (r != StopReason::kRunning) return r;
        if (bps.contains(m.state_.pc)) return StopReason::kRunning;
      } while (b != nullptr && budget > 0 && m.state_.pc >= lo && m.state_.pc < hi);
      continue;
    }
    budget -= b->n_ops;
    const StopReason r = exec_block<false>(*b);
    if (r != StopReason::kRunning) return r;
  }
  return StopReason::kMaxSteps;
}

StopReason ThreadedEngine::Impl::run_block(BlockTrace& trace) {
  Block* b = lookup_block(m.state_.pc);
  if (b == nullptr) {
    // Fallback-class op or out-of-range pc: one interpreter step (or its
    // exact fault), with no records.
    ++stats.fallback_steps;
    trace = BlockTrace{.count = 1};
    return m.step();
  }
  trace = BlockTrace{.count = b->n_ops, .ops = trace_ops.data(), .gather = trace_gather.data()};
  return exec_block<true>(*b);
}

ThreadedEngine::ThreadedEngine(Machine& machine) : impl_(std::make_unique<Impl>(machine)) {}
ThreadedEngine::~ThreadedEngine() = default;

StopReason ThreadedEngine::run(std::uint64_t max_steps) { return impl_->run(max_steps); }
StopReason ThreadedEngine::run_with_breakpoints(const BreakpointSet& breakpoints,
                                                std::uint64_t max_steps) {
  return impl_->run_with_breakpoints(breakpoints, max_steps);
}
StopReason ThreadedEngine::run_block(BlockTrace& trace) { return impl_->run_block(trace); }
const ThreadedEngine::Stats& ThreadedEngine::stats() const { return impl_->stats; }
Machine& ThreadedEngine::machine() { return impl_->m; }

const char* exec_engine_name(ExecEngine engine) {
  return engine == ExecEngine::kThreaded ? "threaded" : "interp";
}

ExecEngine parse_exec_engine(const std::string& text) {
  if (text == "interp") return ExecEngine::kInterp;
  if (text == "threaded") return ExecEngine::kThreaded;
  raise("unknown execution engine \"" + text + "\" (valid: interp, threaded)");
}

}  // namespace indexmac
