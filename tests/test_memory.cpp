#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "mem/cache.h"
#include "mem/main_memory.h"
#include "mem/memory_system.h"

namespace indexmac {
namespace {

// ---------- MainMemory ----------

TEST(MainMemory, ZeroFilledByDefault) {
  MainMemory mem;
  EXPECT_EQ(mem.read_u32(0x1234), 0u);
  EXPECT_EQ(mem.read_u64(0xdeadbeef), 0u);
  EXPECT_EQ(mem.page_count(), 0u);
}

TEST(MainMemory, ReadBackWrittenValues) {
  MainMemory mem;
  mem.write_u32(0x100, 0xcafebabe);
  mem.write_u64(0x108, 0x1122334455667788ull);
  EXPECT_EQ(mem.read_u32(0x100), 0xcafebabeu);
  EXPECT_EQ(mem.read_u64(0x108), 0x1122334455667788ull);
}

TEST(MainMemory, LittleEndianLayout) {
  MainMemory mem;
  mem.write_u32(0x200, 0x04030201);
  EXPECT_EQ(mem.read_u8(0x200), 1);
  EXPECT_EQ(mem.read_u8(0x203), 4);
}

TEST(MainMemory, CrossPageAccess) {
  MainMemory mem;
  const std::uint64_t addr = MainMemory::kPageBytes - 2;
  mem.write_u32(addr, 0xa1b2c3d4);
  EXPECT_EQ(mem.read_u32(addr), 0xa1b2c3d4u);
  EXPECT_EQ(mem.page_count(), 2u);
}

TEST(MainMemory, FloatRoundTrip) {
  MainMemory mem;
  mem.write_f32(0x40, 3.14159f);
  EXPECT_FLOAT_EQ(mem.read_f32(0x40), 3.14159f);
}

TEST(MainMemory, BulkF32AndI32Helpers) {
  MainMemory mem;
  const std::vector<float> fs = {1.0f, -2.5f, 0.0f, 7.25f};
  const std::vector<std::int32_t> is = {-1, 2, 300000, -400000};
  mem.write_f32s(0x1000, fs);
  mem.write_i32s(0x2000, is);
  EXPECT_EQ(mem.read_f32s(0x1000, 4), fs);
  EXPECT_EQ(mem.read_i32s(0x2000, 4), is);
}

TEST(AddressAllocator, AlignsAndAdvances) {
  AddressAllocator alloc(0x1000, 64);
  const auto a = alloc.alloc(10);
  const auto b = alloc.alloc(100);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 10);
  EXPECT_THROW((void)alloc.alloc(0), SimError);
}

// ---------- Cache ----------

CacheConfig small_cache() {
  return CacheConfig{.size_bytes = 1024, .ways = 2, .line_bytes = 64, .hit_latency = 2};
}

TEST(Cache, MissThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0x0, false).hit);
  EXPECT_TRUE(c.access(0x0, false).hit);
  EXPECT_TRUE(c.access(0x3c, false).hit);  // same line
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEviction) {
  Cache c(small_cache());  // 8 sets, 2 ways
  // Three lines mapping to set 0: stride = sets * line = 512 bytes.
  (void)c.access(0x000, false);
  (void)c.access(0x200, false);
  (void)c.access(0x000, false);  // refresh line 0
  (void)c.access(0x400, false);  // evicts 0x200 (LRU)
  EXPECT_TRUE(c.probe(0x000));
  EXPECT_FALSE(c.probe(0x200));
  EXPECT_TRUE(c.probe(0x400));
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  Cache c(small_cache());
  (void)c.access(0x000, true);  // dirty
  (void)c.access(0x200, false);
  const CacheLineResult r = c.access(0x400, false);  // evicts dirty 0x000
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_addr, 0x000u);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  Cache c(small_cache());
  (void)c.access(0x000, false);
  (void)c.access(0x200, false);
  const CacheLineResult r = c.access(0x400, false);
  EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache c(small_cache());
  (void)c.access(0x000, false);
  (void)c.access(0x000, true);  // now dirty
  (void)c.access(0x200, false);
  const CacheLineResult r = c.access(0x400, false);
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, InvalidateAllClearsResidency) {
  Cache c(small_cache());
  (void)c.access(0x000, false);
  c.invalidate_all();
  EXPECT_FALSE(c.probe(0x000));
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(CacheConfig{.size_bytes = 1000, .ways = 3, .line_bytes = 60}), SimError);
}

// ---------- MemorySystem ----------

MemHierConfig test_hier() { return MemHierConfig{}; }

TEST(MemorySystem, L1HitLatency) {
  MemorySystem ms(test_hier());
  (void)ms.scalar_data(0x100, 4, false, 0);           // cold miss warms the line
  const std::uint64_t done = ms.scalar_data(0x100, 4, false, 1000);
  EXPECT_EQ(done, 1000 + 2);  // L1D hit latency from Table I
}

TEST(MemorySystem, HitUnderFillWaitsForDram) {
  MemorySystem ms(test_hier());
  const std::uint64_t fill_done = ms.scalar_data(0x100, 4, false, 0);
  // A second access during the fill cannot complete before the data arrives.
  const std::uint64_t done = ms.scalar_data(0x100, 4, false, 10);
  EXPECT_EQ(done, fill_done);
}

TEST(MemorySystem, ColdMissGoesToDram) {
  MemorySystem ms(test_hier());
  const std::uint64_t done = ms.scalar_data(0x100, 4, false, 0);
  // L1 tag (2) + L2 tag (8) + DRAM latency (100).
  EXPECT_GE(done, 100u);
}

TEST(MemorySystem, L2HitAfterL1Eviction) {
  MemorySystem ms(test_hier());
  (void)ms.scalar_data(0x100, 4, false, 0);
  // Evict from 64KB 4-way L1 by touching 5 conflicting lines (stride = 16KB).
  for (int i = 1; i <= 4; ++i) (void)ms.scalar_data(0x100 + i * 16384, 4, false, 1000 * i);
  const std::uint64_t done = ms.scalar_data(0x100, 4, false, 100000);
  EXPECT_EQ(done, 100000 + 2 + 8);  // L1 miss -> L2 hit
}

TEST(MemorySystem, VectorAccessBypassesL1) {
  MemorySystem ms(test_hier());
  (void)ms.vector_data(0x100, 64, false, 0);  // warm L2
  const std::uint64_t done = ms.vector_data(0x100, 64, false, 1000);
  EXPECT_EQ(done, 1000 + 8);  // direct L2 hit, no L1 latency added
  EXPECT_EQ(ms.stats().vector_reads, 2u);
  EXPECT_EQ(ms.stats().scalar_reads, 0u);
  EXPECT_FALSE(ms.l1d().probe(0x100));  // vector path must not touch L1D
}

TEST(MemorySystem, InFlightMissesMerge) {
  MemorySystem ms(test_hier());
  const std::uint64_t first = ms.vector_data(0x100, 64, false, 0);
  const std::uint64_t second = ms.vector_data(0x100, 64, false, 1);
  EXPECT_EQ(second, first);  // merged with the in-flight fill
  EXPECT_EQ(ms.stats().dram_lines, 1u);
}

TEST(MemorySystem, BankConflictSerializes) {
  MemorySystem ms(test_hier());
  // Warm both lines (same bank: stride of banks * line = 512).
  (void)ms.vector_data(0x000, 64, false, 0);
  (void)ms.vector_data(0x200, 64, false, 0);
  const std::uint64_t t1 = ms.vector_data(0x000, 64, false, 10000);
  const std::uint64_t t2 = ms.vector_data(0x200, 64, false, 10000);
  EXPECT_EQ(t1, 10000 + 8);
  EXPECT_EQ(t2, 10000 + 2 + 8);  // waited for the bank occupancy
}

TEST(MemorySystem, DifferentBanksProceedInParallel) {
  MemorySystem ms(test_hier());
  (void)ms.vector_data(0x000, 64, false, 0);
  (void)ms.vector_data(0x040, 64, false, 0);  // adjacent line -> next bank
  const std::uint64_t t1 = ms.vector_data(0x000, 64, false, 10000);
  const std::uint64_t t2 = ms.vector_data(0x040, 64, false, 10000);
  EXPECT_EQ(t1, t2);
}

TEST(MemorySystem, UnalignedVectorAccessTouchesTwoLines) {
  MemorySystem ms(test_hier());
  (void)ms.vector_data(0x20, 64, false, 0);  // spans lines 0x00 and 0x40
  EXPECT_EQ(ms.stats().dram_lines, 2u);
}

TEST(MemorySystem, StatsAccumulateAndSubtract) {
  MemorySystem ms(test_hier());
  (void)ms.scalar_data(0x100, 8, true, 0);
  (void)ms.vector_data(0x200, 64, true, 0);
  const MemStats snap = ms.stats();
  (void)ms.scalar_data(0x300, 8, false, 0);
  const MemStats delta = ms.stats() - snap;
  EXPECT_EQ(delta.scalar_reads, 1u);
  EXPECT_EQ(delta.scalar_writes, 0u);
  EXPECT_EQ(snap.scalar_writes, 1u);
  EXPECT_EQ(snap.vector_writes, 1u);
  EXPECT_EQ(snap.data_accesses(), 2u);
}

TEST(MemorySystem, ResetClearsEverything) {
  MemorySystem ms(test_hier());
  (void)ms.scalar_data(0x100, 4, false, 0);
  ms.reset();
  EXPECT_EQ(ms.stats().data_accesses(), 0u);
  const std::uint64_t done = ms.scalar_data(0x100, 4, false, 0);
  EXPECT_GE(done, 100u);  // cold again
}

TEST(MemorySystem, DramChannelOccupancySerializesStreams) {
  MemorySystem ms(test_hier());
  // Two cold misses to different banks still share the DRAM channel.
  const std::uint64_t t1 = ms.vector_data(0x000, 64, false, 0);
  const std::uint64_t t2 = ms.vector_data(0x040, 64, false, 0);
  EXPECT_EQ(t2 - t1, MemHierConfig{}.dram_line_occupancy);
}

/// A direct-mapped two-line L2, so a second line evicts the first.
MemHierConfig tiny_l2_hier() {
  MemHierConfig config;
  config.l2 = CacheConfig{.size_bytes = 128, .ways = 1, .line_bytes = 64, .hit_latency = 8};
  return config;
}

TEST(MemorySystem, MissBeforeFillReadyMergesWithIt) {
  MemorySystem ms(tiny_l2_hier());
  const std::uint64_t fill = ms.vector_data(0x000, 64, false, 0);
  (void)ms.vector_data(0x080, 64, false, 0);  // same set: evicts line 0x000
  // Missing again while the first fill is still in flight merges with it.
  EXPECT_EQ(ms.vector_data(0x000, 64, false, 10), fill);
  EXPECT_EQ(ms.stats().dram_lines, 2u);
}

TEST(MemorySystem, MissAfterFillReadyStartsFreshFill) {
  const MemHierConfig config = tiny_l2_hier();
  MemorySystem ms(config);
  const std::uint64_t fill = ms.vector_data(0x000, 64, false, 0);
  (void)ms.vector_data(0x080, 64, false, 0);
  // Past its ready cycle the old fill is stale: a new DRAM transfer starts
  // at the request, on an idle channel and bank.
  const std::uint64_t later = fill + 1000;
  EXPECT_EQ(ms.vector_data(0x000, 64, false, later),
            later + config.l2.hit_latency + config.dram_latency);
  EXPECT_EQ(ms.stats().dram_lines, 3u);
}

TEST(MemorySystem, InFlightMergeWindowClearsPast4096Lines) {
  const MemHierConfig config = test_hier();
  MemorySystem ms(config);
  // Distinct cold lines in one go: the shared DRAM channel staggers their
  // fills, so every one is still in flight when the next access comes.
  const auto line = [](std::uint64_t i) { return i * 64; };
  std::uint64_t last_fill = 0;
  for (std::uint64_t i = 0; i < 4097; ++i) last_fill = ms.vector_data(line(i), 64, false, 0);
  // 4097 in-flight lines are all remembered: an L2 hit on the newest
  // waits for its fill.
  EXPECT_EQ(ms.vector_data(line(4096), 64, false, 0), last_fill);
  // The next distinct fill clears the merge window first, so the same hit
  // no longer waits.
  (void)ms.vector_data(line(4097), 64, false, 0);
  const std::uint64_t hit = ms.vector_data(line(4096), 64, false, 0);
  EXPECT_LT(hit, last_fill);
  EXPECT_EQ(ms.stats().dram_lines, 4098u);
}

TEST(InflightFills, MatchesUnorderedMapOnRandomStream) {
  // The table against the hash map it replaced, through the operations
  // MemorySystem::dram_line performs: lookup, stale erase, insert, and a
  // clear once the window is full, plus erases without a refill. Lines
  // mix a sequential stream, recent lines of it, random lines and a few
  // hot ones, so probe runs grow, erases shift entries, and shifted
  // entries are looked up again.
  InflightFills table;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> pick_kind(0, 9);
  std::uniform_int_distribution<std::uint64_t> pick_line(0, 20000);
  std::uniform_int_distribution<std::uint64_t> pick_recent(1, 256);
  std::uniform_int_distribution<std::uint64_t> pick_ready(0, 1000);
  std::uint64_t next_line = 256;
  const auto all_found = [&] {
    for (const auto& [line, ready] : reference) {
      const std::uint64_t* got = table.find(line);
      if (got == nullptr || *got != ready) return false;
    }
    return true;
  };
  for (int i = 0; i < 200000; ++i) {
    const int kind = pick_kind(rng);
    const std::uint64_t line = 64 * (kind < 4   ? next_line++
                                     : kind < 7 ? next_line - pick_recent(rng)
                                     : kind < 9 ? pick_line(rng)
                                                : pick_line(rng) % 64);
    if (i % 997 == 0) {
      ASSERT_TRUE(all_found()) << "step " << i;
    }
    const auto it = reference.find(line);
    const std::uint64_t* got = table.find(line);
    ASSERT_EQ(got != nullptr, it != reference.end()) << "step " << i << " line " << line;
    if (got != nullptr) {
      ASSERT_EQ(*got, it->second) << "step " << i;
      if (kind % 2 == 0) continue;  // still in flight: merge
      table.erase(line);
      reference.erase(it);
      // A refill may land in the slot the erase left empty and hide a
      // broken shift; now and then skip it.
      if (kind == 9) continue;
    }
    if (reference.size() == InflightFills::kMaxEntries) {
      reference.clear();
      table.clear();
    }
    const std::uint64_t ready = pick_ready(rng);
    table.insert(line, ready);
    reference[line] = ready;
    ASSERT_EQ(table.size(), reference.size()) << "step " << i;
  }
  EXPECT_TRUE(all_found());
}

TEST(InflightFills, ClearForgetsEveryLine) {
  InflightFills table;
  for (std::uint64_t line = 0; line < 100; ++line) table.insert(line * 64, line);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  for (std::uint64_t line = 0; line < 100; ++line) EXPECT_EQ(table.find(line * 64), nullptr);
  table.insert(64, 5);
  ASSERT_NE(table.find(64), nullptr);
  EXPECT_EQ(*table.find(64), 5u);
}

TEST(MemorySystem, RejectsNonPowerOfTwoBankCount) {
  MemHierConfig config = test_hier();
  for (const unsigned banks : {0u, 3u, 6u, 12u}) {
    config.l2_banks = banks;
    EXPECT_THROW(MemorySystem{config}, SimError) << banks << " banks";
  }
  for (const unsigned banks : {1u, 2u, 8u, 16u}) {
    config.l2_banks = banks;
    EXPECT_NO_THROW(MemorySystem{config}) << banks << " banks";
  }
}

}  // namespace
}  // namespace indexmac
