// Small looped programs that steer the timing model through repeated trace
// units whose pipeline state or inputs differ in one respect at a time:
// store-to-load forwarding, data-dependent branch outcomes, SSR line-buffer
// reuse, gathers at varying vl, full ROB/LSQ/vector queues with issue-port
// pressure, and a DRAM-bound stream that overflows the in-flight fill
// table. Each loop body is one or a few threaded-engine blocks of at least
// 24 instructions, run many times from an outer loop whose inner-loop exit
// mispredicts, so the same unit recurs at the same slot with varied state.
// Each program runs 300k to 800k instructions: the timing model replays
// repeated units only past its first 2^18 instructions (timing_sim.cpp).
// Past that point, for each part of the memo's key, some program here
// repeats a unit whose state differs in that part alone and binds its
// timing (the comment at each program's golden rows names which).
// Pinned by the timing golden (test_differential.cpp).
#pragma once

#include <cstdint>
#include <random>

#include "asm/assembler.h"
#include "isa/isa.h"

namespace indexmac::timing_programs {

inline constexpr std::int64_t kData = 0x100000;  ///< operand buffers start here

/// Stores at a rotating offset followed by loads at fixed ones: which
/// in-flight store a load overlaps changes from one inner iteration to the
/// next, while the loop body and its slot stay the same.
inline Program store_forward_program() {
  Assembler a;
  const Assembler::Label outer = a.new_label();
  const Assembler::Label inner = a.new_label();
  a.li(x(1), kData);
  a.li(x(20), 6000);
  a.li(x(22), 0);
  a.li(x(7), 5);
  a.bind(outer);
  a.li(x(21), 3);
  a.bind(inner);
  a.andi(x(5), x(22), 24);
  a.add(x(6), x(1), x(5));
  a.sd(x(7), x(6), 0);
  a.ld(x(8), x(1), 0);
  a.ld(x(9), x(1), 8);
  a.mul(x(7), x(8), x(9));
  a.addi(x(7), x(7), 1);
  a.sw(x(7), x(6), 16);
  a.lw(x(10), x(1), 20);
  a.add(x(11), x(10), x(8));
  a.addi(x(22), x(22), 8);
  for (unsigned r = 12; r <= 19; ++r) a.addi(x(r), x(r), static_cast<std::int32_t>(r));
  for (unsigned r = 12; r <= 19; ++r) a.xor_(x(r), x(r), x(11));
  a.addi(x(21), x(21), -1);
  a.bne(x(21), x(0), inner);
  a.addi(x(20), x(20), -1);
  a.bne(x(20), x(0), outer);
  a.ebreak();
  return a.finish();
}

/// A forward branch on a pseudo-random bit inside the loop body: taken
/// about half the time, and mispredicted whenever taken (BTFNT).
inline Program branchy_program() {
  Assembler a;
  const Assembler::Label outer = a.new_label();
  const Assembler::Label inner = a.new_label();
  const Assembler::Label skip = a.new_label();
  a.li(x(10), 12345);
  a.li(x(13), 1103515245);
  a.li(x(20), 2000);
  a.bind(outer);
  a.li(x(21), 4);
  a.bind(inner);
  a.mul(x(10), x(10), x(13));
  a.addi(x(10), x(10), 123);
  a.srli(x(11), x(10), 16);
  a.andi(x(11), x(11), 1);
  for (unsigned r = 3; r <= 9; ++r) a.addi(x(r), x(r), static_cast<std::int32_t>(r));
  for (unsigned r = 3; r <= 9; ++r) a.mul(x(r), x(r), x(13));
  for (unsigned r = 3; r <= 9; ++r) a.add(x(r), x(r), x(10));
  a.beq(x(11), x(0), skip);
  a.addi(x(14), x(14), 3);
  a.mul(x(15), x(14), x(14));
  for (unsigned r = 3; r <= 9; ++r) a.add(x(r), x(r), x(15));
  for (unsigned r = 3; r <= 9; ++r) a.xor_(x(r), x(r), x(14));
  for (unsigned r = 3; r <= 9; ++r) a.addi(x(r), x(r), 5);
  a.bind(skip);
  a.addi(x(16), x(16), 1);
  for (unsigned r = 3; r <= 9; ++r) a.xor_(x(r), x(r), x(16));
  for (unsigned r = 3; r <= 9; ++r) a.add(x(r), x(r), x(11));
  for (unsigned r = 3; r <= 9; ++r) a.addi(x(r), x(r), -3);
  a.addi(x(21), x(21), -1);
  a.bne(x(21), x(0), inner);
  a.addi(x(20), x(20), -1);
  a.bne(x(20), x(0), outer);
  a.ebreak();
  return a.finish();
}

/// Two SSR streams popped by streaming MACs between blocks of scalar work:
/// each buffered 64-byte line serves 16 pops, so most MACs reuse the line
/// an earlier unit fetched. The streams are reprogrammed every outer
/// iteration, which drops the held lines.
inline Program ssr_reuse_program() {
  Assembler a;
  const Assembler::Label outer = a.new_label();
  const Assembler::Label inner = a.new_label();
  a.li(x(1), static_cast<std::int64_t>(isa::kVlMax));
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), kData);
  a.li(x(3), kData + 0x4000);
  a.li(x(4), 4096);
  a.li(x(5), 3);
  a.li(x(20), 220);
  a.bind(outer);
  a.ssrcfg(0, x(2), x(4));
  a.ssrcfg(1, x(3), x(4));
  a.ssren(x(5));
  a.li(x(21), 24);
  a.bind(inner);
  a.vindexmacs_v(v(1));
  for (unsigned r = 6; r <= 15; ++r) a.addi(x(r), x(r), static_cast<std::int32_t>(r));
  for (unsigned r = 6; r <= 15; ++r) a.mul(x(r), x(r), x(r - 1));
  for (unsigned r = 6; r <= 15; ++r) a.xor_(x(r), x(r), x(20));
  a.vindexmacs_v(v(2));
  for (unsigned r = 6; r <= 15; ++r) a.add(x(r), x(r), x(r - 1));
  for (unsigned r = 6; r <= 15; ++r) a.addi(x(r), x(r), 7);
  for (unsigned r = 6; r <= 15; ++r) a.mul(x(r), x(r), x(21));
  a.addi(x(21), x(21), -1);
  a.bne(x(21), x(0), inner);
  a.addi(x(2), x(2), 256);
  a.addi(x(20), x(20), -1);
  a.bne(x(20), x(0), outer);
  a.ebreak();
  return a.finish();
}

/// vluxei32 gathers over a table at a vl that changes every iteration,
/// with offsets that drift across cache lines.
inline Program gather_program() {
  Assembler a;
  const Assembler::Label fill = a.new_label();
  const Assembler::Label outer = a.new_label();
  const Assembler::Label inner = a.new_label();
  a.li(x(1), static_cast<std::int64_t>(isa::kVlMax));
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), kData);
  a.li(x(6), 0);
  a.li(x(7), static_cast<std::int64_t>(isa::kVlMax));
  a.bind(fill);  // offsets 68 * i: a new line every element or so
  a.addi(x(6), x(6), 68);
  a.vslide1down_vx(v(2), v(2), x(6));
  a.addi(x(7), x(7), -1);
  a.bne(x(7), x(0), fill);
  a.li(x(20), 7000);
  a.bind(outer);
  a.li(x(21), 3);
  a.bind(inner);
  a.add(x(9), x(20), x(21));
  a.andi(x(9), x(9), 15);
  a.addi(x(9), x(9), 1);
  a.vsetvli_e32m1(x(0), x(9));
  a.vluxei32(v(3), x(2), v(2));
  a.vadd_vv(v(4), v(4), v(3));
  a.vadd_vi(v(2), v(2), 4);
  a.vluxei32(v(5), x(2), v(2));
  a.vmv_x_s(x(8), v(5));
  a.add(x(10), x(10), x(8));
  a.vsetvli_e32m1(x(0), x(1));
  a.vadd_vv(v(6), v(6), v(5));
  for (unsigned r = 11; r <= 19; ++r) a.addi(x(r), x(r), static_cast<std::int32_t>(r));
  a.addi(x(21), x(21), -1);
  a.bne(x(21), x(0), inner);
  a.addi(x(20), x(20), -1);
  a.bne(x(20), x(0), outer);
  a.ebreak();
  return a.finish();
}

/// A loop body that fills the ROB (vector-to-scalar round trips hold it),
/// the LSQ (a burst of scalar loads), the vector queue (back-to-back
/// gathers, four engine cycles each) and the issue ports (independent ALU
/// work, more than issue-width a cycle); the MACs' indirect rows follow a
/// pseudo-random sequence.
inline Program pressure_program() {
  Assembler a;
  const Assembler::Label outer = a.new_label();
  const Assembler::Label inner = a.new_label();
  a.li(x(1), static_cast<std::int64_t>(isa::kVlMax));
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), kData);
  a.li(x(13), 1103515245);
  a.li(x(14), 99);
  a.li(x(20), 1800);
  a.bind(outer);
  a.li(x(21), 3);
  a.bind(inner);
  for (int i = 0; i < 20; ++i) a.ld(x(3 + i % 4), x(2), 8 * i);
  for (int i = 0; i < 18; ++i) a.vluxei32(v(8 + i % 4), x(2), v(1));
  a.mul(x(14), x(14), x(13));
  a.srli(x(15), x(14), 20);
  a.andi(x(15), x(15), 7);
  a.addi(x(15), x(15), 16);
  a.vindexmac_vx(v(3), v(4), x(15));
  a.vmv_x_s(x(16), v(3));
  a.add(x(17), x(17), x(16));
  for (int i = 0; i < 24; ++i) a.addi(x(22 + i % 8), x(22 + i % 8), i + 1);
  a.vmv_x_s(x(18), v(9));
  a.add(x(17), x(17), x(18));
  a.addi(x(21), x(21), -1);
  a.bne(x(21), x(0), inner);
  a.addi(x(20), x(20), -1);
  a.bne(x(20), x(0), outer);
  a.ebreak();
  return a.finish();
}

/// Vector loads streaming 176k distinct lines from DRAM, many times the
/// 4096 in-flight fills the memory system tracks before it forgets them
/// all, with a scalar load per iteration on the L1D path.
inline Program dram_stream_program() {
  Assembler a;
  const Assembler::Label loop = a.new_label();
  a.li(x(1), static_cast<std::int64_t>(isa::kVlMax));
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), kData);
  a.li(x(3), kData + 0x2000000);
  a.li(x(20), 11000);
  a.bind(loop);
  for (unsigned i = 0; i < 16; ++i) {
    a.vle32(v(1 + i % 8), x(2));
    a.addi(x(2), x(2), 64);
  }
  a.ld(x(4), x(3), 0);
  a.addi(x(3), x(3), 8);
  a.addi(x(20), x(20), -1);
  a.bne(x(20), x(0), loop);
  a.ebreak();
  return a.finish();
}

/// What late_value_program delays, and so which part of the model's state
/// differs from one body to the next while the rest repeats.
enum class Late {
  kX,          ///< an x register the next body's first vector op reads
  kF,          ///< an f register likewise
  kV,          ///< a vector register the next body's first MAC reads
  kVsetvli,    ///< the vsetvli every later vector op waits for
  kIssue,      ///< a burst of ALU ops filling the issue ports of one cycle
  kStoreData,  ///< the data of a store the next body's first load forwards
  kVectorLoads,   ///< 16 vector loads' queue slots
  kVectorStores,  ///< 16 vector stores' queue slots
};

/// One body per inner iteration: a consumer of the previous body's late
/// value, a vector-to-scalar round trip that holds commit, then a late
/// value whose latency follows a pseudo-random bit: a load forwarded from
/// the store just before it or not, or vector accesses to fresh lines or
/// hot ones. Only the state `late` names differs between bodies whose
/// other state repeats.
inline Program late_value_program(Late late) {
  Assembler a;
  const Assembler::Label outer = a.new_label();
  const Assembler::Label inner = a.new_label();
  a.li(x(1), static_cast<std::int64_t>(isa::kVlMax));
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(9), kData);               // the store's line; its next line is never stored
  a.li(x(15), kData + 0x100000);   // fresh lines
  a.li(x(19), kData + 0x1000);     // hot lines
  a.li(x(11), 1103515245);
  a.li(x(12), 1);
  a.li(x(20), 3000);
  a.bind(outer);
  a.li(x(21), 4);
  a.bind(inner);
  switch (late) {
    case Late::kX:
      a.vmv_v_x(v(1), x(5));
      a.vadd_vv(v(4), v(4), v(1));
      break;
    case Late::kF: a.vfmacc_vf(v(4), f(5), v(2)); break;
    case Late::kV: a.vadd_vv(v(4), v(4), v(7)); break;
    case Late::kIssue:
      for (unsigned r = 22; r <= 29; ++r) a.addi(x(r), x(r), 1);
      break;
    case Late::kStoreData:
      a.lw(x(17), x(9), 8);
      a.vmv_v_x(v(1), x(17));
      a.vadd_vv(v(4), v(4), v(1));
      break;
    default: a.vadd_vv(v(4), v(4), v(2)); break;
  }
  for (unsigned r = 22; r <= 29; ++r) a.addi(x(r), x(r), static_cast<std::int32_t>(r));
  a.vredsum_vs(v(3), v(4), v(3));
  a.vmv_x_s(x(6), v(3));
  a.mul(x(12), x(12), x(11));  // x18: a pseudo-random bit
  a.addi(x(12), x(12), 123);
  a.srli(x(18), x(12), 20);
  a.andi(x(18), x(18), 1);
  a.slli(x(13), x(18), 6);
  a.add(x(10), x(9), x(13));  // bit set: the line after the store's
  a.sub(x(16), x(15), x(19));  // x16: bit set ? a fresh line : a hot one
  a.mul(x(16), x(16), x(18));
  a.add(x(16), x(16), x(19));
  a.slli(x(17), x(18), 10);
  a.add(x(15), x(15), x(17));
  a.sw(x(8), x(9), 0);
  switch (late) {
    case Late::kX: a.lw(x(5), x(10), 0); break;
    case Late::kF: a.flw(f(5), x(10), 0); break;
    case Late::kV: a.vle32(v(7), x(16)); break;
    case Late::kVsetvli:
      a.lw(x(5), x(10), 0);
      a.ori(x(16), x(5), 16);  // vl stays 16
      a.vsetvli_e32m1(x(0), x(16));
      break;
    case Late::kIssue:
      a.lw(x(5), x(10), 0);
      for (unsigned k = 0; k < 16; ++k) a.add(x(16 + k % 4), x(5), x(0));
      break;
    case Late::kStoreData:
      a.lw(x(5), x(10), 0);
      a.sw(x(5), x(9), 8);
      break;
    case Late::kVectorLoads:
    case Late::kVectorStores:
      for (unsigned k = 0; k < 16; ++k) {
        if (late == Late::kVectorLoads)
          a.vle32(v(8 + k % 8), x(16));
        else
          a.vse32(v(4), x(16));
        a.addi(x(16), x(16), 64);
      }
      break;
  }
  for (unsigned r = 22; r <= 27; ++r) a.xor_(x(r), x(r), x(6));
  a.addi(x(21), x(21), -1);
  a.bne(x(21), x(0), inner);
  a.addi(x(20), x(20), -1);
  a.bne(x(20), x(0), outer);
  a.ebreak();
  return a.finish();
}

/// A seeded loop body of segments that each vary or consume one part of
/// the pipeline state: loads forwarded from a store or not, vector loads
/// to fresh or hot lines, issue bursts, vector-to-scalar round trips, mul
/// chains, vsetvli and vector sends waiting on a late scalar, stores a
/// later body loads, LSQ-filling loads, markers and a forward branch to
/// the next op on a pseudo-random bit (mispredicted when taken), and a
/// loop branch that may wait on the late value. Seeds are picked so that
/// each program's repeats differ in one part of the state at a time.
inline Program segment_loop_program(std::uint32_t seed, int outer_iters) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  Assembler a;
  const Assembler::Label outer = a.new_label();
  const Assembler::Label inner = a.new_label();
  a.li(x(1), static_cast<std::int64_t>(isa::kVlMax));
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(9), kData);
  a.li(x(15), kData + 0x100000);
  a.li(x(19), kData + 0x1000);
  a.li(x(11), 1103515245);
  a.li(x(12), seed * 3 + 1);
  a.li(x(20), outer_iters);
  a.li(x(16), kData + 0x2000);
  const int inner_iters = pick(2, 6);
  a.bind(outer);
  a.li(x(21), inner_iters);
  a.bind(inner);
  int n = 0;
  const int segs = pick(5, 12);
  XReg late = x(5);
  bool branched = false;
  for (int s = 0; s < segs || n < 26; ++s) {
    switch (pick(0, 22)) {
      case 0: {  // fresh bit and a forwarded-or-hit load
        a.mul(x(12), x(12), x(11));
        a.addi(x(12), x(12), 123);
        a.srli(x(18), x(12), pick(16, 24));
        a.andi(x(18), x(18), 1);
        a.slli(x(13), x(18), 6);
        a.add(x(10), x(9), x(13));
        a.sw(x(8), x(9), 0);
        late = x(static_cast<unsigned>(pick(0, 1) ? 5 : 17));
        a.lw(late, x(10), 0);
        n += 8;
        break;
      }
      case 1: {  // fresh-or-hot vector load
        a.mul(x(12), x(12), x(11));
        a.addi(x(12), x(12), 123);
        a.srli(x(18), x(12), pick(16, 24));
        a.andi(x(18), x(18), 1);
        a.sub(x(16), x(15), x(19));
        a.mul(x(16), x(16), x(18));
        a.add(x(16), x(16), x(19));
        a.slli(x(17), x(18), 10);
        a.add(x(15), x(15), x(17));
        a.vle32(v(static_cast<unsigned>(pick(7, 8))), x(16));
        n += 10;
        break;
      }
      case 2: {  // issue burst on the late value
        const int k = pick(8, 17);
        for (int i = 0; i < k; ++i) a.add(x(static_cast<unsigned>(22 + i % 6)), late, x(0));
        n += k;
        break;
      }
      case 3:  // vector-to-scalar round trip
        a.vredsum_vs(v(3), v(static_cast<unsigned>(pick(4, 8))), v(3));
        a.vmv_x_s(x(6), v(3));
        late = x(6);
        n += 2;
        break;
      case 4: {  // mul chain
        const int k = pick(1, 4);
        const XReg r = x(static_cast<unsigned>(pick(0, 1) ? 7 : 14));
        a.mul(r, late, late);
        for (int i = 1; i < k; ++i) a.mul(r, r, r);
        late = r;
        n += k;
        break;
      }
      case 5: {  // independent ALU
        const int k = pick(2, 10);
        for (int i = 0; i < k; ++i)
          a.addi(x(static_cast<unsigned>(22 + i % 8)), x(static_cast<unsigned>(22 + i % 8)), i + 1);
        n += k;
        break;
      }
      case 6: {  // vector work
        const int k = pick(1, 6);
        for (int i = 0; i < k; ++i) {
          const unsigned d = static_cast<unsigned>(pick(4, 6));
          if (pick(0, 1))
            a.vadd_vv(v(d), v(d), v(static_cast<unsigned>(pick(1, 8))));
          else
            a.vmul_vv(v(d), v(d), v(static_cast<unsigned>(pick(1, 8))));
        }
        n += k;
        break;
      }
      case 7:  // vector op on the late scalar
        a.vmv_v_x(v(1), late);
        n += 1;
        break;
      case 8:  // vsetvli that waits on the late value (vl stays 16)
        a.ori(x(16), late, 16);
        a.andi(x(16), x(16), 16);
        a.vsetvli_e32m1(x(0), x(16));
        n += 3;
        break;
      case 9:  // store of the late value, loaded back by a later body
        a.sw(late, x(9), 8);
        n += 1;
        break;
      case 10:  // load the stored value back
        a.lw(x(17), x(9), 8);
        late = x(17);
        n += 1;
        break;
      case 11: {  // vector stores/loads to hot or fresh lines
        const int k = pick(2, 16);
        const bool st = pick(0, 1);
        for (int i = 0; i < k; ++i) {
          if (st)
            a.vse32(v(4), x(16));
          else
            a.vle32(v(static_cast<unsigned>(9 + i % 6)), x(16));
          a.addi(x(16), x(16), 64);
        }
        n += 2 * k;
        break;
      }
      case 12: {  // scalar loads from hot lines (LSQ pressure)
        const int k = pick(2, 18);
        for (int i = 0; i < k; ++i) a.ld(x(static_cast<unsigned>(3 + i % 2)), x(19), 8 * i);
        n += k;
        break;
      }
      case 13:  // vmacc on the late vector
        a.vmacc_vx(v(4), x(0), v(static_cast<unsigned>(pick(7, 8))));
        n += 1;
        break;
      case 14: {  // loads forwarded or not, filling the LSQ
        a.mul(x(12), x(12), x(11));
        a.addi(x(12), x(12), 123);
        a.srli(x(18), x(12), pick(16, 24));
        a.andi(x(18), x(18), 1);
        a.slli(x(13), x(18), 6);
        a.add(x(10), x(9), x(13));
        a.sw(x(8), x(9), 0);
        const int k = pick(4, 18);
        for (int i = 0; i < k; ++i) a.lw(x(static_cast<unsigned>(3 + i % 2)), x(10), 0);
        n += 7 + k;
        break;
      }
      case 15: {  // two loads, one forwarded: their latencies swap with the bit
        a.mul(x(12), x(12), x(11));
        a.addi(x(12), x(12), 123);
        a.srli(x(18), x(12), pick(16, 24));
        a.andi(x(18), x(18), 1);
        a.slli(x(13), x(18), 6);
        a.add(x(10), x(9), x(13));
        a.xori(x(13), x(13), 64);
        a.add(x(13), x(9), x(13));
        a.sw(x(8), x(9), 0);
        a.lw(x(5), x(10), 0);
        a.lw(x(17), x(13), 0);
        n += 11;
        if (pick(0, 1)) {
          a.sw(x(5), x(9), 8);
          a.add(x(25), x(17), x(0));
          n += 2;
        }
        late = x(5);
        break;
      }
      case 16:  // a load of what an earlier body stored
        a.lw(x(17), x(9), 8);
        a.add(x(25), x(17), x(0));
        n += 2;
        break;
      case 17: {  // independent no-ops
        const int k = pick(1, 6);
        for (int i = 0; i < k; ++i) a.addi(x(0), x(0), 0);
        n += k;
        break;
      }
      case 18: {  // vector sends waiting on the late scalar
        const int k = pick(1, 8);
        for (int i = 0; i < k; ++i) a.vadd_vx(v(static_cast<unsigned>(4 + i % 3)), v(2), late);
        n += k;
        break;
      }
      case 19:  // round trip on a fixed vector
        a.vmv_x_s(x(6), v(2));
        late = x(6);
        n += 1;
        break;
      case 20: {  // a data-dependent forward branch: mispredicted when taken
        a.mul(x(12), x(12), x(11));
        a.addi(x(12), x(12), 123);
        a.srli(x(18), x(12), pick(16, 24));
        a.andi(x(18), x(18), 1);
        const Assembler::Label skip = a.new_label();
        a.beq(x(18), x(0), skip);
        const int k = pick(1, 4);
        for (int i = 0; i < k; ++i)
          a.addi(x(static_cast<unsigned>(22 + i)), x(static_cast<unsigned>(22 + i)), 1);
        a.bind(skip);
        n += 5 + k;
        break;
      }
      case 21:
      case 22: {  // a forward branch to the next op on the bit: mispredicted when taken
        if (branched) break;
        branched = true;
        a.mul(x(12), x(12), x(11));
        a.addi(x(12), x(12), 123);
        a.srli(x(18), x(12), pick(16, 24));
        a.andi(x(18), x(18), 1);
        XReg c = x(18);
        if (pick(0, 1)) {  // resolved late
          a.and_(x(29), late, x(0));
          a.add(x(29), x(29), x(18));
          c = x(29);
          n += 2;
        }
        const Assembler::Label next = a.new_label();
        a.beq(c, x(0), next);
        a.bind(next);
        n += 5;
        break;
      }
    }
  }
  a.addi(x(21), x(21), -1);
  if (pick(0, 2) == 0) {  // the loop branch waits on the late value
    a.and_(x(29), late, x(0));
    a.add(x(30), x(21), x(29));
    a.bne(x(30), x(0), inner);
  } else {
    a.bne(x(21), x(0), inner);
  }
  a.addi(x(20), x(20), -1);
  a.bne(x(20), x(0), outer);
  a.ebreak();
  return a.finish();
}

/// Two loads whose latencies swap on a pseudo-random bit (one forwarded
/// from a store, one not) feed two chains of the same shape, so the issue
/// ports fill the same either way; one chain ends in the loop branch
/// (`vsetvli` false) or in a vsetvli that keeps vl at 16. A mul chain
/// started before them holds commit past both, and with `vector_mask` a
/// vector op on its result sets the vector send and engine state. So
/// between bodies only the branch-resolve or vsetvli cycle differs, and
/// the next body's first vector op waits on it.
inline Program swapped_late_program(bool vsetvli, int mask_muls, int filler, int outer_iters,
                                    bool vector_mask) {
  Assembler a;
  const Assembler::Label outer = a.new_label();
  const Assembler::Label inner = a.new_label();
  a.li(x(1), static_cast<std::int64_t>(isa::kVlMax));
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(9), kData);
  a.li(x(16), kData + 64);
  a.li(x(11), 1103515245);
  a.li(x(12), 7);
  a.li(x(20), outer_iters);
  a.bind(outer);
  a.li(x(21), 5);
  a.bind(inner);
  a.vadd_vv(v(4), v(2), v(2));
  a.mul(x(12), x(12), x(11));
  a.addi(x(12), x(12), 123);
  a.srli(x(18), x(12), 20);
  a.andi(x(18), x(18), 1);
  a.mul(x(7), x(12), x(12));
  for (int i = 1; i < mask_muls; ++i) a.mul(x(7), x(7), x(7));
  a.slli(x(13), x(18), 6);
  a.add(x(10), x(9), x(13));   // bit clear: the store's word
  a.sub(x(13), x(16), x(13));  // bit set: the store's word
  a.sw(x(8), x(9), 0);
  a.lw(x(5), x(10), 0);
  a.lw(x(17), x(13), 0);
  a.addi(x(21), x(21), -1);
  for (int i = 0; i < filler; ++i)
    a.addi(x(static_cast<unsigned>(22 + i % 4)), x(static_cast<unsigned>(22 + i % 4)), 1);
  a.and_(x(28), x(17), x(0));  // the mirror chain
  a.add(x(27), x(21), x(28));
  a.add(x(26), x(27), x(0));
  if (vector_mask) a.vmv_v_x(v(1), x(7));
  a.and_(x(29), x(5), x(0));
  if (vsetvli) {
    a.ori(x(30), x(29), 16);
    a.vsetvli_e32m1(x(0), x(30));
    a.bne(x(21), x(0), inner);
  } else {
    a.add(x(30), x(21), x(29));
    a.bne(x(30), x(0), inner);
  }
  a.addi(x(20), x(20), -1);
  a.bne(x(20), x(0), outer);
  a.ebreak();
  return a.finish();
}

/// A store whose data is late by one of two mul chains, swapped on a
/// pseudo-random bit (the loads feeding them: one forwarded from a store,
/// one not), with a mirror op on the other chain so the issue ports fill
/// the same either way. The next body first loads the stored word, which
/// forwards from the store: only the store's data-ready cycle differs.
inline Program late_store_program(int muls, int outer_iters) {
  Assembler a;
  const Assembler::Label outer = a.new_label();
  const Assembler::Label inner = a.new_label();
  a.li(x(9), kData);
  a.li(x(16), kData + 64);
  a.li(x(11), 1103515245);
  a.li(x(12), 7);
  a.li(x(20), outer_iters);
  a.bind(outer);
  a.li(x(21), 5);
  a.bind(inner);
  a.lw(x(3), x(9), 8);
  a.add(x(24), x(3), x(3));
  a.mul(x(12), x(12), x(11));
  a.addi(x(12), x(12), 123);
  a.srli(x(18), x(12), 20);
  a.andi(x(18), x(18), 1);
  a.slli(x(13), x(18), 6);
  a.add(x(10), x(9), x(13));
  a.sub(x(13), x(16), x(13));
  a.sw(x(8), x(9), 0);
  a.lw(x(5), x(10), 0);
  a.lw(x(17), x(13), 0);
  for (int i = 0; i < muls; ++i) {
    a.mul(x(5), x(5), x(5));
    a.mul(x(17), x(17), x(17));
  }
  a.addi(x(21), x(21), -1);
  a.sw(x(5), x(9), 8);
  a.add(x(25), x(17), x(0));  // the mirror
  a.add(x(26), x(5), x(17));
  a.bne(x(21), x(0), inner);
  a.addi(x(20), x(20), -1);
  a.bne(x(20), x(0), outer);
  a.ebreak();
  return a.finish();
}

/// A nested-loop random program: an outer loop over inner loops whose trip
/// counts and branch outcomes follow a register LCG, with scalar
/// loads/stores at data-dependent offsets, vector loads, gathers and MACs
/// at changing vl, and vector-to-scalar moves.
inline Program looped_random_program(std::uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  Assembler a;
  const Assembler::Label outer = a.new_label();
  const Assembler::Label inner = a.new_label();
  a.li(x(1), kData);
  a.li(x(2), static_cast<std::int64_t>(isa::kVlMax));
  a.vsetvli_e32m1(x(0), x(2));
  a.li(x(28), 1103515245);
  a.li(x(29), static_cast<std::int64_t>(seed) * 7 + 1);
  a.li(x(30), 2000);
  a.bind(outer);
  a.andi(x(31), x(29), 3);
  a.addi(x(31), x(31), 2);
  a.bind(inner);
  a.mul(x(29), x(29), x(28));
  a.addi(x(29), x(29), 77);
  a.srli(x(27), x(29), 18);  // pseudo-random bits for this iteration
  const int body = pick(30, 50);
  for (int i = 0; i < body; ++i) {
    const XReg rd = x(static_cast<unsigned>(pick(3, 15)));
    const XReg rs1 = x(static_cast<unsigned>(pick(3, 15)));
    const VReg vd = v(static_cast<unsigned>(pick(1, 7)));
    const VReg vs = v(static_cast<unsigned>(pick(1, 7)));
    switch (pick(0, 11)) {
      case 0: a.add(rd, rs1, x(27)); break;
      case 1: a.mul(rd, rs1, rs1); break;
      case 2: a.addi(rd, rs1, pick(-8, 8)); break;
      case 3: {  // store then load at a data-dependent offset
        a.andi(x(26), x(27), 56);
        a.add(x(26), x(26), x(1));
        a.sd(rs1, x(26), 8 * pick(0, 3));
        a.ld(rd, x(1), 8 * pick(0, 10));
        break;
      }
      case 4: a.vle32(vd, x(1)); break;
      case 5: a.vadd_vv(vd, vd, vs); break;
      case 6: a.vmv_x_s(rd, vs); break;
      case 7: {  // MAC on a data-dependent row of v8..v15
        a.andi(x(25), x(27), 7);
        a.addi(x(25), x(25), 8);
        a.vindexmac_vx(vd, vs, x(25));
        break;
      }
      case 8: a.vluxei32(vd, x(1), v(16)); break;
      case 9: {  // a vl change: 9..16 elements
        a.andi(x(24), x(27), 7);
        a.addi(x(24), x(24), 9);
        a.vsetvli_e32m1(x(0), x(24));
        break;
      }
      case 10: a.vredsum_vs(vd, vs, vd); break;
      case 11: {  // a data-dependent forward branch over two ops
        const Assembler::Label skip = a.new_label();
        a.andi(x(23), x(27), 1 << pick(0, 4));
        a.beq(x(23), x(0), skip);
        a.addi(rd, rd, 1);
        a.mul(rd, rd, rs1);
        a.bind(skip);
        break;
      }
    }
  }
  a.vsetvli_e32m1(x(0), x(2));
  a.vadd_vi(v(16), v(16), 4);
  a.addi(x(31), x(31), -1);
  a.bne(x(31), x(0), inner);
  a.addi(x(30), x(30), -1);
  a.bne(x(30), x(0), outer);
  a.vse32(v(1), x(1));
  a.ebreak();
  return a.finish();
}

}  // namespace indexmac::timing_programs
