// Small programs that steer the threaded engine onto each of its block
// paths: a fused chain, a fused chain that bails to its per-op replay, a
// chain held off the fused path by vl < VLMAX, and a fused chain that ends
// its block right before a taken branch. Shared by the engine, lockstep
// and timing tests so every layer is checked on the same corners.
#pragma once

#include <cstdint>

#include "asm/assembler.h"
#include "isa/isa.h"

namespace indexmac::engine_programs {

/// The canonical fusable inner-loop shape: `rows` iterations of a
/// deferred-slide chain (vmv.x.s -> vindexmac -> vslide1down) the
/// superblock builder fuses, then ebreak.
inline void emit_chain_kernel(Assembler& a, int rows) {
  const Assembler::Label loop = a.new_label();
  a.li(x(1), static_cast<std::int64_t>(isa::kVlMax));
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 3);
  a.vmv_v_x(v(2), x(2));   // VRF rows the MAC indexes
  a.li(x(2), -5);
  a.vmv_v_x(v(3), x(2));
  a.li(x(2), 0x01020304);
  a.vmv_v_x(v(4), x(2));   // index words driving the indirect row choice
  a.vmv_v_i(v(6), 0);      // accumulator
  a.li(x(9), 0);
  a.li(x(10), rows);
  a.bind(loop);
  a.vmv_x_s(x(5), v(4));   // chain: extract index word
  a.andi(x(5), x(5), 3);
  a.addi(x(5), x(5), 2);   // row 2 or 3
  a.vindexmac_vx(v(6), v(4), x(5));
  a.vslide1down_vx(v(4), v(4), x(0));
  a.addi(x(9), x(9), 1);
  a.blt(x(9), x(10), loop);
  a.ebreak();
}

/// The MAC's runtime-resolved row is v4 — the very register the chain
/// defers a slide on — so the fused run must bail and replay per op.
inline Program slid_row_bail_program() {
  Assembler a;
  a.li(x(1), static_cast<std::int64_t>(isa::kVlMax));
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 9);
  a.vmv_v_x(v(4), x(2));
  a.vmv_v_i(v(6), 1);
  a.li(x(5), 4);                       // names row v4
  a.vslide1down_vx(v(4), v(4), x(0));  // chain: slide first...
  a.vindexmac_vx(v(6), v(7), x(5));    // ...then MAC reading the slid row
  a.ebreak();
  return a.finish();
}

/// A fusable chain at vl = 7 < VLMAX: fused chains assume full-width lanes,
/// so the chain replays per op from its first instruction.
inline Program narrow_vl_chain_program() {
  Assembler a;
  a.li(x(1), 7);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 2);
  a.vmv_v_x(v(2), x(2));
  a.vmv_v_i(v(6), 0);
  a.li(x(5), 2);
  a.vslide1down_vx(v(4), v(4), x(0));
  a.vindexmac_vx(v(6), v(4), x(5));
  a.ebreak();
  return a.finish();
}

/// A loop whose body is a counter bump, a fused lane-MAC chain (vmv.x.s ->
/// vindexmac -> vslide1down) and the loop branch: the chain is the last
/// thing the block runs before a branch taken `rows - 1` times. With
/// `runaway`, the branch is an unconditional jump and the loop never ends.
inline Program chain_then_branch_program(int rows, bool runaway = false) {
  Assembler a;
  const Assembler::Label loop = a.new_label();
  a.li(x(1), static_cast<std::int64_t>(isa::kVlMax));
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 5);
  a.vmv_v_x(v(2), x(2));   // the VRF row the MAC indexes
  a.li(x(2), 2);
  a.vmv_v_x(v(4), x(2));   // index words naming v2 (slid-in zeros name v0)
  a.vmv_v_i(v(3), 3);      // MAC scale values
  a.vmv_v_i(v(6), 0);      // accumulator
  a.li(x(9), 0);
  a.li(x(10), rows);
  a.bind(loop);
  a.addi(x(9), x(9), 1);
  a.vmv_x_s(x(5), v(4));
  a.vindexmac_vx(v(6), v(3), x(5));
  a.vslide1down_vx(v(4), v(4), x(0));
  if (runaway)
    a.j(loop);
  else
    a.blt(x(9), x(10), loop);
  a.ebreak();
  return a.finish();
}

}  // namespace indexmac::engine_programs
