// Regression coverage for the zero-allocation dynamic-instruction trace:
//  * TraceSource must perform no heap allocation per retired instruction,
//    gathers included (a counting global allocator verifies this over a
//    gather-heavy kernel), and neither may the whole timed path
//    (TimingSim::run: trace units, model and memory system);
//  * the DynInst stream must be bit-identical to the independent oracle of
//    trace_reference.h, which re-derives every field from the
//    pre-instruction architectural state, on a mixed kernel;
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
#include "timing/timing_sim.h"
#include "timing/trace.h"
#include "trace_reference.h"

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
  MainMemory mem;
  const Program program = build_spmv(mem, 8, 128);
  Machine machine(program, mem);
  ThreadedEngine engine(machine);
  // Untimed warm-up: materializes every page the kernel touches
  // (first-touch page allocation is setup cost, not per-instruction cost)
  // and predecodes every block — block records are sized then. Then
  // rewind to the reset state.
  ASSERT_EQ(engine.run(1'000'000), StopReason::kEbreak);
  machine.state() = ArchState{};
  machine.state().pc = program.base();
  const ThreadedEngine::Stats warm = engine.stats();

  TraceSource trace(machine, &engine);
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
  // The drain ran whole warm blocks, not single steps.
  EXPECT_EQ(engine.stats().blocks_built, warm.blocks_built);
  EXPECT_GT(engine.stats().block_runs, warm.block_runs);
  EXPECT_EQ(engine.stats().fallback_steps, 0u);
}

TEST(TraceAllocation, TimedRunAllocationsDoNotGrowWithTheTrace) {
  // TimingSim::run builds its machine, engine blocks and model once per
  // run; nothing on the path that times an instruction may allocate. The
  // marker-free SpMV kernel at two sizes — the same code, one retiring
  // several times the instructions of the other — must therefore allocate
  // equally often. An untimed functional run first materializes every page
  // the kernel touches (first-touch page allocation is setup cost).
  struct Timed {
    std::uint64_t allocations = 0;
    std::uint64_t instructions = 0;
    std::size_t code = 0;
  };
  const auto timed = [](std::size_t rows, std::size_t k) {
    MainMemory mem;
    const Program program = build_spmv(mem, rows, k);
    Machine warm(program, mem);
    EXPECT_EQ(ThreadedEngine(warm).run(10'000'000), StopReason::kEbreak);
    timing::TimingSim sim(program, mem, timing::ProcessorConfig{});
    Timed out;
    out.code = program.decoded().size();
    const std::uint64_t before = g_allocations.load();
    out.instructions = sim.run().instructions;
    out.allocations = g_allocations.load() - before;
    return out;
  };
  const Timed small = timed(8, 128);
  const Timed large = timed(40, 128);
  ASSERT_EQ(small.code, large.code);  // one kernel, so one set of blocks
  EXPECT_GT(large.instructions, 4 * small.instructions);
  EXPECT_EQ(large.allocations, small.allocations)
      << small.instructions << " and " << large.instructions
      << " timed instructions allocated differently";
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

TEST(TraceStream, BitIdenticalToReferenceOnMixedKernel) {
  // A hand-written kernel mixing every trace-relevant shape: scalar
  // loads/stores (4- and 8-byte), branches taken and not taken, vector
  // unit-stride loads/stores, gathers (one overwriting its own index
  // vector), vindexmac (indirect vreg), its packed and dual-row forms,
  // SSR stream control and streaming MACs (fallback units, one wrapping
  // its streams), a vector->scalar move, and a marker. The block trace
  // must match the oracle field for field.
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
      addi  x10, x0, 0x7b  # packed nibbles 11, 7: v27 then v23
      vindexmacp.vx v12, v2, x10
      vindexmac2.vx v12, v2, x10
      addi  x11, x1, 512   # stream 0: two values
      addi  x12, x1, 576   # stream 1: two VRF row indices
      addi  x13, x0, 2
      ssrcfg 0, x11, x13
      ssrcfg 1, x12, x13
      addi  x14, x0, 3
      ssren x14
      vindexmacs.v v12
      vindexmacs.v v12
      vindexmacs.v v12     # both streams wrapped to their first word
      ssren x0
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
  MainMemory mem_a;
  MainMemory mem_b;
  std::vector<std::int32_t> offsets(16);
  for (int i = 0; i < 16; ++i) offsets[i] = 4 * ((i * 7) % 16);
  const std::vector<std::int32_t> stream_rows = {30, 2};
  for (MainMemory* mem : {&mem_a, &mem_b}) {
    mem->write_i32s(0x1000, offsets);
    mem->write_i32s(0x1000 + 576, stream_rows);
  }

  Machine machine(assembled.program, mem_a);
  Machine reference_machine(assembled.program, mem_b);
  TraceSource trace(machine);

  DynInst d;
  std::uint64_t n = 0;
  bool saw_gather = false, saw_indexmac = false, saw_dual = false, saw_stream = false,
       saw_ctl = false, saw_marker = false;
  while (trace.next(d)) {
    const trace_reference::Record want = trace_reference::reference_next(reference_machine);
    ASSERT_TRUE(trace_reference::matches(d, want)) << "instruction " << n;
    saw_gather |= d.gather_count > 0;
    saw_indexmac |= d.info->has(isa::kSiIndirectVreg);
    saw_dual |= d.indirect_vreg2 != 0;
    saw_stream |= d.ssr_index_addr != 0 && d.indirect_vreg == 2;
    saw_ctl |= d.ssr_ctl_mask == 3;
    saw_marker |= d.marker_id >= 0;
    ++n;
  }
  EXPECT_TRUE(saw_gather);
  EXPECT_TRUE(saw_indexmac);
  EXPECT_TRUE(saw_dual);
  EXPECT_TRUE(saw_stream);
  EXPECT_TRUE(saw_ctl);
  EXPECT_TRUE(saw_marker);
  EXPECT_TRUE(d.is_halt);  // last delivered instruction was the ebreak
  EXPECT_EQ(n, reference_machine.instructions_retired());
  EXPECT_EQ(machine.instructions_retired(), reference_machine.instructions_retired());
}

}  // namespace
}  // namespace indexmac
