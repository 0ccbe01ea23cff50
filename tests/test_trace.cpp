// Regression coverage for the zero-allocation dynamic-instruction trace:
//  * TraceSource must perform no heap allocation per retired instruction,
//    gathers included (a counting global allocator verifies this over a
//    gather-heavy kernel);
//  * the DynInst stream must be bit-identical to an independent
//    re-derivation of every field from the pre-instruction architectural
//    state (the pre-refactor TraceSource semantics) on a mixed kernel;
//  * the gather scratch buffer must be stable (pointer identity) across
//    next() calls, as documented.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "asm/assembler.h"
#include "asm/text_assembler.h"
#include "fsim/machine.h"
#include "fsim/threaded.h"
#include "kernels/spmv_kernel.h"
#include "sparse/nm_matrix.h"
#include "timing/trace.h"

// ---- counting global allocator (whole test binary) ----

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace indexmac {
namespace {

using timing::DynInst;
using timing::TraceSource;

/// Builds a gather-heavy program (the SpMV kernel: one vluxei32 per slot
/// chunk) with its operands laid out in `mem`.
Program build_spmv(MainMemory& mem, std::size_t rows, std::size_t k) {
  const auto dense = sparse::random_matrix<float>(rows, k, 3, -1.0f, 1.0f);
  const auto a = sparse::NmMatrix<float>::prune_from_dense(dense, sparse::kSparsity14);
  const auto packed = kernels::pack_spmv(a);
  AddressAllocator alloc;
  const kernels::SpmvLayout layout = kernels::make_spmv_layout(rows, k, packed.slots_padded, alloc);
  mem.write_f32s(layout.a_values, packed.values);
  mem.write_i32s(layout.a_offsets, packed.offsets);
  mem.write_f32s(layout.x_base, std::vector<float>(k, 0.25f));
  return kernels::emit_spmv_kernel(layout, kernels::ElemType::kF32);
}

TEST(TraceAllocation, NoHeapAllocationPerInstructionOnGatherKernel) {
  for (const bool threaded : {false, true}) {
    SCOPED_TRACE(threaded ? "threaded block trace" : "interpreter trace");
    MainMemory mem;
    const Program program = build_spmv(mem, 8, 128);
    Machine machine(program, mem);
    ThreadedEngine engine(machine);
    // Untimed warm-up: materializes every page the kernel touches
    // (first-touch page allocation is setup cost, not per-instruction
    // cost) and, on the engine, predecodes every block — block records
    // are sized then. Then rewind to the reset state.
    ASSERT_EQ(threaded ? engine.run(1'000'000) : machine.run(1'000'000), StopReason::kEbreak);
    machine.state() = ArchState{};
    machine.state().pc = program.base();
    const ThreadedEngine::Stats warm = engine.stats();

    TraceSource trace(machine, threaded ? &engine : nullptr);
    DynInst d;
    std::uint64_t instructions = 0;
    std::uint64_t gathers = 0;
    const std::uint64_t allocations_before = g_allocations.load();
    while (trace.next(d)) {
      ++instructions;
      if (d.gather_count > 0) ++gathers;
    }
    const std::uint64_t allocations_after = g_allocations.load();
    EXPECT_GT(instructions, 100u);
    EXPECT_GT(gathers, 8u);  // the scenario actually exercises the gather path
    EXPECT_EQ(allocations_after, allocations_before)
        << "TraceSource::next allocated on a " << instructions << "-instruction trace";
    if (threaded) {  // the drain ran whole warm blocks, not single steps
      EXPECT_EQ(engine.stats().blocks_built, warm.blocks_built);
      EXPECT_GT(engine.stats().block_runs, warm.block_runs);
      EXPECT_EQ(engine.stats().fallback_steps, 0u);
    }
  }
}

TEST(TraceAllocation, GatherScratchPointerIsStable) {
  MainMemory mem;
  const Program program = build_spmv(mem, 4, 64);
  Machine machine(program, mem);
  TraceSource trace(machine);
  DynInst d;
  const std::uint64_t* scratch = nullptr;
  while (trace.next(d)) {
    ASSERT_NE(d.gather_addrs, nullptr);
    if (scratch == nullptr) scratch = d.gather_addrs;
    ASSERT_EQ(d.gather_addrs, scratch) << "scratch storage moved mid-trace";
  }
}

/// Re-derives every DynInst field for the instruction at the machine's
/// current pc directly from the pre-instruction architectural state and
/// the isa:: classification predicates — the exact logic TraceSource used
/// before fields were predecoded — then steps the machine.
struct ReferenceRecord {
  isa::Instruction inst;
  std::uint64_t pc = 0;
  bool branch_taken = false;
  bool is_halt = false;
  std::uint64_t mem_addr = 0;
  std::uint32_t mem_bytes = 0;
  std::uint32_t vl = 0;
  std::uint8_t indirect_vreg = 0;
  std::vector<std::uint64_t> gather_addrs;
  std::int32_t marker_id = -1;
};

ReferenceRecord reference_next(Machine& machine) {
  using isa::Op;
  const ArchState& pre = machine.state();
  ReferenceRecord out;
  out.pc = pre.pc;
  out.inst = machine.program().at(pre.pc);
  out.vl = pre.vl;
  const isa::Instruction& in = out.inst;
  const isa::StaticInstInfo si = isa::predecode(in);
  if (in.op == Op::kVluxei32) {
    const std::uint64_t base = pre.x[in.rs1];
    for (unsigned i = 0; i < pre.vl; ++i) out.gather_addrs.push_back(base + pre.v[in.rs2][i]);
    out.mem_bytes = pre.vl * 4;
  } else if (si.has(isa::kSiScalarLoad | isa::kSiScalarStore)) {
    out.mem_addr = pre.x[in.rs1] + static_cast<std::int64_t>(in.imm);
    out.mem_bytes = (in.op == Op::kLd || in.op == Op::kSd) ? 8 : 4;
  } else if (si.has(isa::kSiVectorLoad | isa::kSiVectorStore)) {
    out.mem_addr = pre.x[in.rs1];
    out.mem_bytes = pre.vl * 4;
  } else if (in.op == Op::kVindexmacVx || in.op == Op::kVfindexmacVx) {
    out.indirect_vreg = static_cast<std::uint8_t>(pre.x[in.rs1] & 0x1f);
  } else if (in.op == Op::kMarker) {
    out.marker_id = in.imm;
  }
  const StopReason stop = machine.step();
  out.branch_taken = si.has(isa::kSiBranch | isa::kSiJump) &&
                     machine.state().pc != out.pc + 4;
  out.is_halt = stop == StopReason::kEbreak || stop == StopReason::kEcall;
  return out;
}

TEST(TraceStream, BitIdenticalToReferenceOnMixedKernel) {
  // A hand-written kernel mixing every trace-relevant shape: scalar
  // loads/stores (4- and 8-byte), branches taken and not taken, vector
  // unit-stride loads/stores, gathers (one overwriting its own index
  // vector), vindexmac (indirect vreg), a vector->scalar move, and a
  // marker. Checked on the interpreter's trace and on the threaded
  // engine's block trace, whose records must hold the pre-state.
  const char* source = R"(
      lui   x1, 1          # x1 = 0x1000 (data)
      addi  x2, x0, 16
      vsetvli x0, x2, e32m1
      vle32.v v8, (x1)     # offsets for the gather
      addi  x3, x1, 256
      vluxei32.v v12, (x3), v8
      vluxei32.v v8, (x3), v8
      addi  x4, x0, 30     # v30 as indirect source
      vmv.v.i v30, 3
      vmv.v.i v2, 1
      vindexmac.vx v12, v2, x4
      vmv.x.s x5, v12
      sw    x5, 64(x1)
      sd    x5, 72(x1)
      ld    x6, 72(x1)
      lw    x7, 64(x1)
      marker 7
      addi  x8, x0, 3
  loop:
      addi  x8, x8, -1
      vadd.vi v4, v2, 2
      vse32.v v4, (x3)
      bne   x8, x0, loop
      beq   x8, x8, fallthru   # taken forward branch
      addi  x9, x0, 99
  fallthru:
      ebreak
  )";
  const AssembledText assembled = assemble_text(source);
  for (const bool threaded : {false, true}) {
    SCOPED_TRACE(threaded ? "threaded block trace" : "interpreter trace");
    MainMemory mem_a;
    MainMemory mem_b;
    std::vector<std::int32_t> offsets(16);
    for (int i = 0; i < 16; ++i) offsets[i] = 4 * ((i * 7) % 16);
    mem_a.write_i32s(0x1000, offsets);
    mem_b.write_i32s(0x1000, offsets);

    Machine machine(assembled.program, mem_a);
    Machine reference_machine(assembled.program, mem_b);
    ThreadedEngine engine(machine);
    TraceSource trace(machine, threaded ? &engine : nullptr);

    DynInst d;
    std::uint64_t n = 0;
    bool saw_gather = false, saw_indexmac = false, saw_marker = false;
    while (trace.next(d)) {
      const ReferenceRecord want = reference_next(reference_machine);
      ASSERT_EQ(d.inst, want.inst) << "instruction " << n;
      ASSERT_EQ(d.pc, want.pc) << "instruction " << n;
      ASSERT_EQ(d.branch_taken, want.branch_taken) << "instruction " << n;
      ASSERT_EQ(d.is_halt, want.is_halt) << "instruction " << n;
      ASSERT_EQ(d.mem_addr, want.mem_addr) << "instruction " << n;
      ASSERT_EQ(d.mem_bytes, want.mem_bytes) << "instruction " << n;
      ASSERT_EQ(d.vl, want.vl) << "instruction " << n;
      ASSERT_EQ(d.indirect_vreg, want.indirect_vreg) << "instruction " << n;
      ASSERT_EQ(d.marker_id, want.marker_id) << "instruction " << n;
      ASSERT_EQ(d.gather_count, want.gather_addrs.size()) << "instruction " << n;
      for (std::uint32_t i = 0; i < d.gather_count; ++i)
        ASSERT_EQ(d.gather_addrs[i], want.gather_addrs[i]) << "instruction " << n << " lane " << i;
      ASSERT_NE(d.info, nullptr);
      saw_gather |= d.gather_count > 0;
      saw_indexmac |= d.info->has(isa::kSiIndirectVreg);
      saw_marker |= d.marker_id >= 0;
      ++n;
    }
    EXPECT_TRUE(saw_gather);
    EXPECT_TRUE(saw_indexmac);
    EXPECT_TRUE(saw_marker);
    EXPECT_TRUE(d.is_halt);  // last delivered instruction was the ebreak
    EXPECT_EQ(machine.instructions_retired(), reference_machine.instructions_retired());
  }
}

}  // namespace
}  // namespace indexmac
