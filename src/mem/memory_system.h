// The timing-side memory hierarchy of Table I:
//   * L1I  64 KB 4-way, 1-cycle hit: configured and printed, not modelled
//     (instruction fetch does not access a cache)
//   * L1D  64 KB 4-way, 2-cycle hit (scalar data)
//   * L2  512 KB 8-way, 8 banks, 8-cycle hit, shared; the vector engine's
//     load/store queues access the L2 directly (no L1 on the vector path)
//   * DDR4-2400-like DRAM: fixed latency plus per-line channel occupancy
//
// The model is latency-computing: each access is presented with its start
// cycle and returns its completion cycle. Contention is modelled with
// next-free counters per L2 bank and for the DRAM channel, and in-flight
// DRAM fills merge accesses to the same line (MSHR-style).
#pragma once

#include <cstdint>
#include <vector>

#include "mem/cache.h"

namespace indexmac {

/// Configuration of the whole hierarchy (defaults reproduce Table I).
struct MemHierConfig {
  /// Not modelled: instruction fetch does not access the L1I. Kept for
  /// Table I, cache keys and spec hashes.
  CacheConfig l1i{.size_bytes = 64 * 1024, .ways = 4, .line_bytes = 64, .hit_latency = 1};
  CacheConfig l1d{.size_bytes = 64 * 1024, .ways = 4, .line_bytes = 64, .hit_latency = 2};
  CacheConfig l2{.size_bytes = 512 * 1024, .ways = 8, .line_bytes = 64, .hit_latency = 8};
  unsigned l2_banks = 8;            ///< a power of two
  unsigned l2_bank_occupancy = 2;   ///< cycles a bank is busy per access
  unsigned dram_latency = 100;      ///< cycles from request to first data
  unsigned dram_line_occupancy = 7; ///< channel cycles per 64B line (~19.2 GB/s @2 GHz)
};

/// Counter block for the Fig. 6 metric and general reporting.
struct MemStats {
  std::uint64_t scalar_reads = 0;
  std::uint64_t scalar_writes = 0;
  std::uint64_t vector_reads = 0;
  std::uint64_t vector_writes = 0;
  std::uint64_t ifetch_lines = 0;  ///< not modelled: always 0
  std::uint64_t dram_lines = 0;  ///< lines transferred to/from DRAM

  /// Total data-side memory accesses (the paper's Fig. 6 counts memory
  /// operations performed by the kernels; instruction granularity).
  [[nodiscard]] std::uint64_t data_accesses() const {
    return scalar_reads + scalar_writes + vector_reads + vector_writes;
  }

  friend MemStats operator-(MemStats a, const MemStats& b) {
    a.scalar_reads -= b.scalar_reads;
    a.scalar_writes -= b.scalar_writes;
    a.vector_reads -= b.vector_reads;
    a.vector_writes -= b.vector_writes;
    a.ifetch_lines -= b.ifetch_lines;
    a.dram_lines -= b.dram_lines;
    return a;
  }
};

/// The in-flight DRAM fills of a MemorySystem: line address -> data-ready
/// cycle, holding at most kMaxEntries lines. Open addressing with linear
/// probing and backward-shift erase over a power-of-two slot array, so a
/// lookup is a multiply, a shift and a probe or two; clear() bumps an epoch
/// instead of touching the slots.
class InflightFills {
 public:
  /// MemorySystem clears the table before it would exceed this.
  static constexpr std::size_t kMaxEntries = 4097;

  InflightFills() : slots_(kSlots) {}

  /// The ready cycle of `line`'s fill, or nullptr when none is recorded.
  [[nodiscard]] const std::uint64_t* find(std::uint64_t line) const;
  /// Records a fill of `line`, which must not be recorded yet.
  void insert(std::uint64_t line, std::uint64_t ready);
  /// Drops `line`'s fill, which must be recorded.
  void erase(std::uint64_t line);
  void clear();
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  static constexpr unsigned kSlotBits = 13;  // 8192 slots: at most half full
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr std::size_t kMask = kSlots - 1;

  struct Slot {
    std::uint64_t line = 0;
    std::uint64_t ready = 0;
    std::uint64_t epoch = 0;  ///< occupied when equal to epoch_
  };

  static std::size_t home(std::uint64_t line) {
    return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits));
  }
  [[nodiscard]] bool occupied(std::size_t i) const { return slots_[i].epoch == epoch_; }
  /// The slot holding `line`, or the empty slot ending its probe run.
  [[nodiscard]] std::size_t probe(std::uint64_t line) const;

  std::vector<Slot> slots_;
  std::uint64_t epoch_ = 1;
  std::size_t size_ = 0;
};

class MemorySystem {
 public:
  explicit MemorySystem(const MemHierConfig& config);

  /// Scalar load/store of `bytes` at `addr`, starting at `cycle`.
  /// Returns completion cycle.
  std::uint64_t scalar_data(std::uint64_t addr, unsigned bytes, bool is_store,
                            std::uint64_t cycle);

  /// Vector-engine load/store (straight to the banked L2).
  std::uint64_t vector_data(std::uint64_t addr, unsigned bytes, bool is_store,
                            std::uint64_t cycle);

  [[nodiscard]] const MemStats& stats() const { return stats_; }
  [[nodiscard]] const Cache& l1d() const { return l1d_; }
  [[nodiscard]] const Cache& l2() const { return l2_; }

  /// Clears tag arrays and counters (fresh machine).
  void reset();

 private:
  /// Access one line through the L2 (+DRAM on miss); returns completion.
  std::uint64_t l2_line(std::uint64_t line_addr, bool is_store, std::uint64_t cycle);
  /// Completion adjusted for an in-flight fill of this line, if any.
  std::uint64_t pending_fill(std::uint64_t line_addr, std::uint64_t cycle) const;
  /// DRAM fill/writeback of one line; returns data-ready cycle.
  std::uint64_t dram_line(std::uint64_t line_addr, std::uint64_t cycle);
  /// Walk all lines an access touches; returns worst completion.
  template <typename Fn>
  std::uint64_t for_lines(std::uint64_t addr, unsigned bytes, Fn&& fn);

  MemHierConfig config_;
  Cache l1d_;
  Cache l2_;
  unsigned l2_line_shift_ = 0;  ///< log2(l2.line_bytes): bank/line math without divisions
  std::uint64_t l2_bank_mask_ = 0;  ///< l2_banks - 1 (a power of two)
  std::vector<std::uint64_t> l2_bank_free_;
  std::uint64_t dram_channel_free_ = 0;
  InflightFills inflight_fills_;
  /// Upper bound on every ready cycle in inflight_fills_: accesses at or
  /// past it skip the table lookup entirely (pure fast path; stale entries
  /// would have returned `cycle` unchanged anyway).
  std::uint64_t inflight_max_ready_ = 0;
  MemStats stats_;
};

}  // namespace indexmac
