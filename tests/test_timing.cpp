// Behavioural tests of the cycle-level timing model: pipeline widths,
// dependency latencies, structural hazards, the decoupled vector engine,
// and the vector->scalar round trip that the vindexmac optimization targets.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>

#include "asm/assembler.h"
#include "common/error.h"
#include "engine_programs.h"
#include "timing/port_scheduler.h"
#include "timing/timing_sim.h"

namespace indexmac::timing {
namespace {

struct Timed {
  MainMemory mem;
  Program program;
  TimingStats stats;
  std::vector<MarkerEvent> markers;

  explicit Timed(Assembler& a, const ProcessorConfig& config = ProcessorConfig{})
      : program(a.finish()) {
    TimingSim sim(program, mem, config);
    stats = sim.run();
    markers = sim.markers();
  }
};

// ---------- PortScheduler / SlotPool ----------

TEST(PortScheduler, WidthLimitsPerCycle) {
  PortScheduler ports(2);
  EXPECT_EQ(ports.claim(10), 10u);
  EXPECT_EQ(ports.claim(10), 10u);
  EXPECT_EQ(ports.claim(10), 11u);  // third request spills to the next cycle
  EXPECT_EQ(ports.claim(5), 5u);    // earlier cycles still have room
}

TEST(PortScheduler, WindowSlidesForward) {
  PortScheduler ports(1, 64);
  EXPECT_EQ(ports.claim(0), 0u);
  EXPECT_EQ(ports.claim(1'000'000), 1'000'000u);
  // Requests far behind the window are clamped forward, never lost.
  const std::uint64_t c = ports.claim(0);
  EXPECT_GE(c, 1'000'000u - 64);
}

TEST(PortScheduler, RejectsNonPowerOfTwoWindow) {
  EXPECT_THROW(PortScheduler(1, 100), SimError);
  EXPECT_THROW(PortScheduler(1, 0), SimError);
  EXPECT_THROW(PortScheduler(0), SimError);
}

TEST(InOrderPorts, WidthLimitsPerCycle) {
  InOrderPorts ports(2);
  EXPECT_EQ(ports.claim(10), 10u);
  EXPECT_EQ(ports.claim(10), 10u);
  EXPECT_EQ(ports.claim(10), 11u);  // third request spills to the next cycle
  EXPECT_EQ(ports.claim(11), 11u);  // fills the frontier cycle
  EXPECT_EQ(ports.claim(11), 12u);
  EXPECT_EQ(ports.claim(20), 20u);  // past the frontier: a fresh cycle
}

TEST(InOrderPorts, LaggingRequestsFollowTheFrontier) {
  // Fetch between restarts: the request stays put while the claims fill
  // one cycle after another.
  InOrderPorts ports(8);
  for (std::uint64_t n = 0; n < 100; ++n) EXPECT_EQ(ports.claim(3), 3 + n / 8) << n;
}

TEST(InOrderPorts, RejectsZeroWidth) { EXPECT_THROW(InOrderPorts(0), SimError); }

/// Feeds InOrderPorts and the windowed PortScheduler the same
/// non-decreasing request stream and requires identical answers, at the
/// model's 4096-cycle window and at a 64-cycle one. Streams mix runs of
/// equal requests (fetch between restarts: the request lags further and
/// further behind the frontier, past the small window's clamp), small
/// steps, requests just past the frontier, jumps past either window, and
/// commit-style requests at max(ready, previous answer).
class InOrderPortsEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {};

TEST_P(InOrderPortsEquivalence, MatchesWindowedSchedulerOnNonDecreasingStreams) {
  const auto [width, window] = GetParam();
  for (const unsigned seed : {1u, 2u, 3u}) {
    InOrderPorts fast(width);
    PortScheduler reference(width, window);
    std::mt19937 rng(seed * 100 + width);
    std::uniform_int_distribution<int> pick_kind(0, 99);
    std::uniform_int_distribution<std::uint64_t> small(1, 3);
    std::uniform_int_distribution<std::uint64_t> jump(4096, 20000);
    std::uniform_int_distribution<std::uint64_t> run_length(1, 64);
    std::uniform_int_distribution<std::uint64_t> ready_skew(0, 12);
    std::uint64_t request = 0;
    std::uint64_t last = 0;  // the previous answer: the frontier
    for (int i = 0; i < 20000; ++i) {
      const int kind = pick_kind(rng);
      std::uint64_t repeats = 1;
      if (i % 1000 == 500) {
        repeats = 80 * width;  // lag the frontier by 80 cycles
      } else if (kind < 30) {
        repeats = run_length(rng);  // a run of equal requests
      } else if (kind < 55) {
        request += small(rng);
      } else if (kind < 60) {
        request = last + jump(rng);
      } else if (kind < 70) {
        request = std::max(request, last + 1);  // just past the frontier
      } else {
        // Commit: ready somewhere around the frontier, never before the
        // previous commit.
        const std::uint64_t ready = last + ready_skew(rng);
        request = std::max({request, ready >= 6 ? ready - 6 : 0, last});
      }
      for (std::uint64_t r = 0; r < repeats; ++r) {
        const std::uint64_t want = reference.claim(request);
        ASSERT_EQ(fast.claim(request), want)
            << "width " << width << " seed " << seed << " step " << i << " request " << request;
        last = want;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WidthsAndWindows, InOrderPortsEquivalence,
                         ::testing::Combine(::testing::Range(1u, 9u),
                                            ::testing::Values(std::size_t{64},
                                                              std::size_t{4096})));

TEST(SlotPool, BlocksWhenAllSlotsHeld) {
  SlotPool pool(2);
  EXPECT_EQ(pool.available(0), 0u);
  pool.claim(100);
  pool.claim(200);
  EXPECT_EQ(pool.available(0), 100u);  // ring: oldest slot frees first
  pool.claim(150);
  EXPECT_EQ(pool.available(0), 200u);
}

// ---------- scalar pipeline ----------

TEST(Timing, IndependentAddsReachIssueWidth) {
  Assembler a;
  for (int i = 0; i < 800; ++i) a.addi(x(1 + (i % 8)), x(0), i % 100);
  a.ebreak();
  Timed t(a);
  // 8-wide front end and issue: IPC must be near 8.
  EXPECT_GT(t.stats.ipc(), 6.0);
  EXPECT_EQ(t.stats.instructions, 801u);
}

TEST(Timing, DependencyChainSerializes) {
  Assembler a;
  for (int i = 0; i < 400; ++i) a.addi(x(1), x(1), 1);
  a.ebreak();
  Timed t(a);
  // Chained adds: ~1 IPC regardless of width.
  EXPECT_LT(t.stats.ipc(), 1.3);
  EXPECT_GT(t.stats.cycles, 390u);
}

TEST(Timing, MulLatencyLongerThanAdd) {
  Assembler chain_add;
  for (int i = 0; i < 200; ++i) chain_add.add(x(1), x(1), x(1));
  chain_add.ebreak();
  Assembler chain_mul;
  for (int i = 0; i < 200; ++i) chain_mul.mul(x(1), x(1), x(1));
  chain_mul.ebreak();
  Timed ta(chain_add);
  Timed tm(chain_mul);
  EXPECT_GT(tm.stats.cycles, 2 * ta.stats.cycles);
}

TEST(Timing, ColdLoadPaysDramLatency) {
  Assembler a;
  a.li(x(1), 0x100000);
  a.lw(x(2), x(1), 0);
  a.add(x(3), x(2), x(2));  // dependent on the load
  a.ebreak();
  Timed t(a);
  EXPECT_GT(t.stats.cycles, 100u);  // DRAM latency dominates
}

TEST(Timing, WarmLoadIsFast) {
  Assembler a;
  a.li(x(1), 0x100000);
  a.lw(x(2), x(1), 0);   // cold
  for (int i = 0; i < 50; ++i) a.lw(x(2), x(1), 0);  // warm hits
  a.ebreak();
  Timed t(a);
  // 50 warm hits add only a few cycles each beyond the cold miss.
  EXPECT_LT(t.stats.cycles, 400u);
}

TEST(Timing, StoreToLoadForwards) {
  Assembler a;
  a.li(x(1), 0x100000);
  a.li(x(2), 42);
  a.sw(x(2), x(1), 0);
  a.lw(x(3), x(1), 0);  // must forward, not wait for DRAM
  a.ebreak();
  Timed t(a);
  EXPECT_LT(t.stats.cycles, 60u);
}

TEST(Timing, PredictableLoopBranchesAreCheap) {
  Assembler a;
  a.li(x(1), 100);
  auto loop = a.new_label();
  a.bind(loop);
  a.addi(x(1), x(1), -1);
  a.bne(x(1), x(0), loop);  // backward: predicted taken, right 99/100 times
  a.ebreak();
  Timed t(a);
  EXPECT_EQ(t.stats.branch_mispredicts, 1u);  // only the loop exit
}

TEST(Timing, MispredictsCostCycles) {
  // Alternating forward branches taken half the time: static not-taken
  // prediction misses on every taken instance.
  Assembler a;
  a.li(x(1), 50);
  auto loop = a.new_label();
  a.bind(loop);
  auto skip = a.new_label();
  a.andi(x(2), x(1), 1);
  a.beq(x(2), x(0), skip);  // forward branch: predicted not-taken
  a.nop();
  a.bind(skip);
  a.addi(x(1), x(1), -1);
  a.bne(x(1), x(0), loop);
  a.ebreak();
  Timed t(a);
  EXPECT_GT(t.stats.branch_mispredicts, 20u);
  // Each mispredict costs at least the refill penalty.
  EXPECT_GT(t.stats.cycles, t.stats.instructions);
}

TEST(Timing, RobBoundsInflightWork) {
  // A long dependency stall at the head must back-pressure dispatch: total
  // time ~ stall + drain rather than overlapping everything.
  Assembler a;
  a.li(x(1), 0x200000);
  a.lw(x(2), x(1), 0);        // cold miss ~110 cycles
  a.add(x(3), x(2), x(2));    // blocks at ROB head until the load returns
  for (int i = 0; i < 300; ++i) a.addi(x(4 + (i % 4)), x(0), 1);
  a.ebreak();
  Timed t(a);
  // With a 60-entry ROB the adds cannot all hide under the miss: 300 adds
  // at 8/cycle = ~38 cycles, but only ~60 fit in flight during the miss.
  EXPECT_GT(t.stats.cycles, 130u);
}

// ---------- vector engine ----------

TEST(Timing, VectorInstructionsFlowThroughEngine) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x100000);
  a.vle32(v(1), x(2));
  a.vadd_vi(v(2), v(1), 1);
  a.vse32(v(2), x(2));
  a.ebreak();
  Timed t(a);
  EXPECT_EQ(t.stats.vector_instructions, 3u);
  EXPECT_EQ(t.stats.vector_loads, 1u);
  EXPECT_EQ(t.stats.vector_stores, 1u);
  EXPECT_EQ(t.stats.mem.vector_reads, 1u);
  EXPECT_EQ(t.stats.mem.vector_writes, 1u);
}

TEST(Timing, VectorToScalarRoundTripStalls) {
  // vmv.x.s followed by a dependent scalar op pays the engine round trip.
  Assembler with_roundtrip;
  with_roundtrip.li(x(1), 16);
  with_roundtrip.vsetvli_e32m1(x(0), x(1));
  for (int i = 0; i < 64; ++i) {
    with_roundtrip.vmv_x_s(x(2), v(1));
    with_roundtrip.addi(x(3), x(2), 1);  // dependent
  }
  with_roundtrip.ebreak();
  Assembler without;
  without.li(x(1), 16);
  without.vsetvli_e32m1(x(0), x(1));
  for (int i = 0; i < 64; ++i) {
    without.vadd_vi(v(2), v(1), 1);   // engine work, no scalar result
    without.addi(x(3), x(0), 1);      // independent
  }
  without.ebreak();
  Timed tr(with_roundtrip);
  Timed tw(without);
  EXPECT_GT(tr.stats.cycles, tw.stats.cycles);
  EXPECT_EQ(tr.stats.vector_to_scalar_moves, 64u);
}

TEST(Timing, EngineQueueDecouplesAhead) {
  // Independent vector adds behind a scalar dependency chain: the engine
  // keeps working while the scalar core grinds -> high overlap.
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  for (int i = 0; i < 100; ++i) {
    a.vadd_vi(v(1 + (i % 4)), v(10), 1);
    a.addi(x(2), x(2), 1);
  }
  a.ebreak();
  Timed t(a);
  // 100 vector + ~100 scalar in ~max(engine, scalar) time, not the sum.
  EXPECT_LT(t.stats.cycles, 260u);
}

TEST(Timing, VectorLoadsOverlapInLoadQueues) {
  // 16 independent warm vector loads should pipeline through the L2.
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 0x100000);
  for (int rep = 0; rep < 2; ++rep) {  // first pass warms, second measures
    for (int i = 0; i < 16; ++i) {
      a.addi(x(3), x(2), i * 64);
      a.vle32(v(i % 8), x(3));
    }
  }
  a.ebreak();
  Timed t(a);
  // Serial L2 hits would cost 32*8 = 256+ cycles in the engine alone.
  EXPECT_LT(t.stats.cycles, 220u);
}

TEST(Timing, VindexmacAvoidsMemorySystem) {
  // One vindexmac vs one vle32+vfmacc: the indirect read makes no memory
  // accesses at all.
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.li(x(2), 20);
  for (int i = 0; i < 32; ++i) a.vfindexmac_vx(v(1), v(2), x(2));
  a.ebreak();
  Timed t(a);
  EXPECT_EQ(t.stats.mem.data_accesses(), 0u);
  EXPECT_EQ(t.stats.vector_macs, 32u);
}

TEST(Timing, MarkersRecordCommitOrderAndStats) {
  Assembler a;
  a.marker(7);
  a.li(x(1), 0x100000);
  a.lw(x(2), x(1), 0);
  a.marker(8);
  a.ebreak();
  Timed t(a);
  ASSERT_EQ(t.markers.size(), 2u);
  EXPECT_EQ(t.markers[0].id, 7);
  EXPECT_EQ(t.markers[1].id, 8);
  EXPECT_LT(t.markers[0].cycle, t.markers[1].cycle);
  EXPECT_EQ(t.markers[1].mem.scalar_reads, 1u);
  EXPECT_GT(t.markers[1].instructions, t.markers[0].instructions);
}

TEST(Timing, DeterministicAcrossRuns) {
  auto build = [] {
    Assembler a;
    a.li(x(1), 16);
    a.vsetvli_e32m1(x(0), x(1));
    a.li(x(2), 0x100000);
    for (int i = 0; i < 50; ++i) {
      a.vle32(v(1), x(2));
      a.vadd_vi(v(2), v(1), 1);
      a.vse32(v(2), x(2));
    }
    a.ebreak();
    return a;
  };
  Assembler a1 = build();
  Assembler a2 = build();
  Timed t1(a1);
  Timed t2(a2);
  EXPECT_EQ(t1.stats.cycles, t2.stats.cycles);
  EXPECT_EQ(t1.stats.mem.dram_lines, t2.stats.mem.dram_lines);
}

TEST(Timing, RunTwiceThrows) {
  Assembler a;
  a.ebreak();
  MainMemory mem;
  Program p = a.finish();
  TimingSim sim(p, mem, ProcessorConfig{});
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), SimError);
}

/// The SimError text of a timing run of `p` under `budget`, or "" when it
/// finished.
std::string budget_error(const Program& p, std::uint64_t budget) {
  MainMemory mem;
  TimingSim sim(p, mem, ProcessorConfig{});
  try {
    (void)sim.run(budget);
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

TEST(Timing, InstructionBudgetGuard) {
  // A runaway program exhausts the budget. The error names the next
  // undelivered instruction — also when the budget ends mid-block or
  // mid-fused-chain, where the block trace has already run the machine
  // past that pc. The texts are pinned from the interpreter-driven trace
  // this one replaced, which named the machine's own pc.
  Assembler a;
  auto loop = a.new_label();
  a.bind(loop);
  a.j(loop);
  const Program spin = a.finish();
  const Program chain = engine_programs::chain_then_branch_program(0, /*runaway=*/true);
  // The chain program's setup (budgets 1..9 end before these), then its
  // loop: vmv.x.s -> vindexmac -> vslide1down, fused, and the back jump.
  const char* const chain_next[] = {
      "0x1004 (`vsetvli x0, x1, 208`)",        "0x1008 (`addi x2, x0, 5`)",
      "0x100c (`vmv.v.x v2, x2`)",             "0x1010 (`addi x2, x0, 2`)",
      "0x1014 (`vmv.v.x v4, x2`)",             "0x1018 (`vmv.v.i v3, 3`)",
      "0x101c (`vmv.v.i v6, 0`)",              "0x1020 (`addi x9, x0, 0`)",
      "0x1024 (`addi x10, x0, 0`)",            "0x1028 (`addi x9, x9, 1`)",
      "0x102c (`vmv.x.s x5, v4`)",             "0x1030 (`vindexmac.vx v6, v3, x5`)",
      "0x1034 (`vslide1down.vx v4, v4, x0`)",  "0x1038 (`jal x0, -16`)",
  };
  for (std::uint64_t budget = 1; budget <= 40; ++budget) {
    const std::string prefix = "timing: instruction budget of " + std::to_string(budget) +
                               " exhausted (runaway program?) at pc ";
    EXPECT_EQ(budget_error(spin, budget), prefix + "0x1000 (`jal x0, 0`)") << "budget " << budget;
    const std::uint64_t at = budget <= 9 ? budget - 1 : 9 + (budget - 10) % 5;
    EXPECT_EQ(budget_error(chain, budget), prefix + chain_next[at]) << "budget " << budget;
  }
}

// ---------- SSR stream-control line-buffer invalidation ----------

/// Streams 0/1 configured over one 64 B line each (4 value/index pairs),
/// two streaming MACs, `tweak(a)` injected, then two more MACs. The index
/// words name v8 so the MACs resolve a valid VRF row.
template <typename Tweak>
TimingStats ssr_mac_stats(Tweak&& tweak) {
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.vmv_v_i(v(2), 0);
  a.vmv_v_i(v(8), 0);
  a.li(x(3), 0x2000);  // value stream
  a.li(x(4), 0x3000);  // index stream
  a.li(x(5), 4);
  a.ssrcfg(0, x(3), x(5));
  a.ssrcfg(1, x(4), x(5));
  a.li(x(5), 0b11);
  a.ssren(x(5));
  a.vindexmacs_v(v(2));
  a.vindexmacs_v(v(2));
  tweak(a);
  a.vindexmacs_v(v(2));
  a.vindexmacs_v(v(2));
  a.ebreak();
  Program p = a.finish();
  MainMemory mem;
  for (int i = 0; i < 4; ++i) {
    mem.write_u32(0x2000 + 4 * i, 0);  // values (bits irrelevant to timing)
    mem.write_u32(0x3000 + 4 * i, 8);  // indices -> v8
  }
  TimingSim sim(p, mem, ProcessorConfig{});
  return sim.run();
}

TEST(Timing, UnrelatedStreamConfigKeepsLineBuffers) {
  // Regression: ssrcfg on streams 2/3 between streaming MACs used to flush
  // the line buffers of streams 0/1 too, charging refetches the hardware's
  // per-stream address generators would never issue. Setup traffic on
  // other streams must leave the active pair's amortization intact.
  const TimingStats plain = ssr_mac_stats([](Assembler&) {});
  const TimingStats tweaked = ssr_mac_stats([](Assembler& a) {
    a.li(x(6), 0x5000);
    a.li(x(7), 4);
    a.ssrcfg(2, x(6), x(7));
    a.ssrcfg(3, x(6), x(7));
  });
  EXPECT_EQ(tweaked.vector_loads, plain.vector_loads);
  EXPECT_EQ(tweaked.mem.vector_reads, plain.mem.vector_reads);
}

TEST(Timing, ReenableForcesStreamLineRefetch) {
  // ssren re-enabling streams 0/1 rewinds their address generators to
  // base: the held lines must be refetched (one per stream).
  const TimingStats plain = ssr_mac_stats([](Assembler&) {});
  const TimingStats rewound = ssr_mac_stats([](Assembler& a) {
    a.li(x(5), 0b11);
    a.ssren(x(5));
  });
  EXPECT_EQ(rewound.vector_loads, plain.vector_loads + 2);
}

TEST(Timing, ReconfiguringActiveStreamDropsOnlyThatLine) {
  // ssrcfg on stream 0 alone re-fetches stream 0's line but keeps stream
  // 1's buffer (before the fix both were flushed: +2 loads, not +1).
  const TimingStats plain = ssr_mac_stats([](Assembler&) {});
  const TimingStats recfg = ssr_mac_stats([](Assembler& a) {
    a.li(x(6), 0x2008);  // re-point stream 0 inside the same line
    a.li(x(7), 2);
    a.ssrcfg(0, x(6), x(7));
  });
  EXPECT_EQ(recfg.vector_loads, plain.vector_loads + 1);
}

// ---------- pinned statistics ----------

TEST(Timing, ChainLoopStatsAndMarkersArePinned) {
  // A fused vindexmac chain loop between two markers. Every count, stall
  // bucket, memory counter and marker is pinned from the interpreter-
  // driven trace the block trace replaced; the ExecEngine argument has no
  // effect.
  Assembler a;
  a.li(x(1), 16);
  a.vsetvli_e32m1(x(0), x(1));
  a.vmv_v_i(v(2), 0);
  a.vmv_v_i(v(4), 0);
  a.li(x(2), 0x2000);
  a.vle32(v(8), x(2));
  a.marker(1);
  auto loop = a.new_label();
  a.li(x(31), 5);
  a.bind(loop);
  a.vmv_x_s(x(5), v(4));
  a.andi(x(5), x(5), 7);
  a.vindexmac_vx(v(2), v(4), x(5));
  a.vslide1down_vx(v(4), v(4), x(0));
  a.addi(x(31), x(31), -1);
  a.bne(x(31), x(0), loop);
  a.marker(2);
  a.vse32(v(2), x(2));
  a.ebreak();
  Program p = a.finish();

  for (const ExecEngine engine : {ExecEngine::kInterp, ExecEngine::kThreaded}) {
    SCOPED_TRACE(exec_engine_name(engine));
    MainMemory mem;
    TimingSim sim(p, mem, ProcessorConfig{}, engine);
    const TimingStats s = sim.run();
    EXPECT_EQ(s.cycles, 63u);
    EXPECT_EQ(s.instructions, 41u);
    EXPECT_EQ(s.scalar_instructions, 22u);
    EXPECT_EQ(s.vector_instructions, 19u);
    EXPECT_EQ(s.vector_loads, 1u);
    EXPECT_EQ(s.vector_stores, 1u);
    EXPECT_EQ(s.vector_macs, 5u);
    EXPECT_EQ(s.vector_to_scalar_moves, 5u);
    EXPECT_EQ(s.branch_mispredicts, 1u);
    EXPECT_EQ(s.dispatch_stalls.scalar_operand, 165u);
    EXPECT_EQ(s.dispatch_stalls.branch_shadow, 0u);
    EXPECT_EQ(s.dispatch_stalls.queue_full, 0u);
    EXPECT_EQ(s.dispatch_stalls.bandwidth, 335u);
    EXPECT_EQ(s.mem.data_accesses(), 2u);
    EXPECT_EQ(s.mem.dram_lines, 1u);

    ASSERT_EQ(sim.markers().size(), 2u);
    EXPECT_EQ(sim.markers()[0].id, 1);
    EXPECT_EQ(sim.markers()[0].cycle, 8u);
    EXPECT_EQ(sim.markers()[0].instructions, 7u);
    EXPECT_EQ(sim.markers()[1].id, 2);
    EXPECT_EQ(sim.markers()[1].cycle, 62u);
    EXPECT_EQ(sim.markers()[1].instructions, 39u);
  }
}

/// The SimError text of constructing and running a timing model under
/// `config`, or "" when it ran.
std::string config_error(const ProcessorConfig& config) {
  Assembler a;
  a.ebreak();
  MainMemory mem;
  const Program p = a.finish();
  TimingSim sim(p, mem, config);
  try {
    (void)sim.run();
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

TEST(Timing, ZeroVectorLanesIsRejected) {
  ProcessorConfig config;
  config.vector.lanes = 0;
  EXPECT_NE(config_error(config).find("VectorEngineConfig::lanes"), std::string::npos);
}

TEST(Timing, ZeroGatherLanesIsRejected) {
  ProcessorConfig config;
  config.vector.gather_lanes = 0;
  EXPECT_NE(config_error(config).find("VectorEngineConfig::gather_lanes"), std::string::npos);
}

TEST(Timing, ConfigDescribeMentionsTableOneNumbers) {
  const std::string text = ProcessorConfig{}.describe();
  EXPECT_NE(text.find("8-way-issue out-of-order"), std::string::npos);
  EXPECT_NE(text.find("60-entry ROB"), std::string::npos);
  EXPECT_NE(text.find("16-entry LSQ"), std::string::npos);
  EXPECT_NE(text.find("512-bit vector engine"), std::string::npos);
  EXPECT_NE(text.find("512KB"), std::string::npos);
}

}  // namespace
}  // namespace indexmac::timing
