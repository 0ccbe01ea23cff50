// Small helper resources for the timestamp-dataflow timing model.
//
// A W-ports-per-cycle resource is claimed once per instruction at fetch,
// issue and commit. Two schedulers serve them:
//   * InOrderPorts (fetch, commit): requests arrive in non-decreasing cycle
//     order, so every claim lands on the frontier cycle or past it, and two
//     words (the frontier and its fill) are the whole state. It returns
//     exactly what an unbounded per-cycle table would.
//   * PortScheduler (issue): requests arrive in any order, so it keeps a
//     per-cycle fill count over a bounded sliding window of recent cycles.
//     A request older than the window is clamped forward to its start
//     (docs/simplifications.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitutil.h"
#include "common/error.h"

namespace indexmac::timing {

/// A W-ports-per-cycle resource whose requests never go back in time
/// (fetch: the fetch-blocked cycle only grows; commit: in order, at or
/// after the previous commit). By induction over such a stream, every
/// cycle from the latest request to the frontier (the latest claimed
/// cycle) is full and no cycle past the frontier holds a claim. So a
/// request at or before the frontier gets the frontier if it has a free
/// port and the next cycle otherwise, and a request past it gets itself.
/// PortScheduler answers the same stream identically: its window start
/// stays below the frontier, so a request it clamps forward only skips
/// cycles of that full run.
class InOrderPorts {
 public:
  explicit InOrderPorts(unsigned width) : width_(width) {
    IMAC_CHECK(width >= 1, "port width must be positive");
  }

  /// Returns the first cycle >= earliest with a free port and claims it.
  /// `earliest` must not be below any earlier request.
  std::uint64_t claim(std::uint64_t earliest) {
    if (earliest > frontier_) {
      frontier_ = earliest;
      used_ = 1;
    } else if (used_ < width_) {
      ++used_;
    } else {
      ++frontier_;
      used_ = 1;
    }
    return frontier_;
  }

  /// The whole state: the latest claimed cycle and its claimed ports.
  [[nodiscard]] std::uint64_t frontier() const { return frontier_; }
  [[nodiscard]] unsigned used() const { return used_; }
  void restore(std::uint64_t frontier, unsigned used) {
    frontier_ = frontier;
    used_ = used;
  }

 private:
  unsigned width_;
  unsigned used_ = 0;           ///< ports claimed in frontier_
  std::uint64_t frontier_ = 0;  ///< latest claimed cycle
};

/// Schedules use of a W-ports-per-cycle resource whose requests may
/// arrive in any cycle order (issue). Bookkeeping uses a bounded sliding
/// window of recent cycles, a power of two so the ring is indexed by mask;
/// requests older than the window are clamped forward, a negligible
/// approximation for well-formed pipelines.
class PortScheduler {
 public:
  explicit PortScheduler(unsigned width, std::size_t window = 4096)
      : width_(width), mask_(window - 1), used_(window, 0) {
    IMAC_CHECK(width >= 1, "port width must be positive");
    IMAC_CHECK(is_pow2(window), "port window must be a power of two");
  }

  /// Returns the first cycle >= earliest with a free port and claims it.
  /// The scan is short for issue: its requests seldom land on a run of
  /// full cycles (on exact MobileNetV1, 38 extra scan steps in 20.9M
  /// claims). Lagging in-order streams, which would rescan their run of
  /// full cycles on every claim, belong to InOrderPorts.
  std::uint64_t claim(std::uint64_t earliest) {
    for (std::uint64_t cycle = std::max(earliest, base_);; ++cycle) {
      advance_window(cycle);
      std::uint8_t& used = used_[cycle & mask_];
      if (used < width_) {
        ++used;
        last_ = std::max(last_, cycle);
        return cycle;
      }
    }
  }

  /// First cycle of the window: requests before it are clamped to it.
  [[nodiscard]] std::uint64_t base() const { return base_; }
  [[nodiscard]] std::uint64_t window() const { return used_.size(); }
  /// The latest cycle ever claimed. Every cycle of the window past it is
  /// unclaimed.
  [[nodiscard]] std::uint64_t last() const { return last_; }
  /// Ports claimed in `cycle`, which must lie in the window.
  [[nodiscard]] unsigned used_at(std::uint64_t cycle) const { return used_[cycle & mask_]; }
  /// Claims `cycle` as claim() grants it, without the scan: for replaying
  /// a request whose answer is known to be `cycle`.
  void grant(std::uint64_t cycle) {
    advance_window(cycle);
    ++used_[cycle & mask_];
    last_ = std::max(last_, cycle);
  }

 private:
  void advance_window(std::uint64_t cycle) {
    // Slide the window forward so `cycle` is representable. The recycled
    // slots are zeroed range-wise (the ring maps them to at most two
    // contiguous spans) rather than one modulo at a time.
    const std::uint64_t window = used_.size();
    if (cycle < base_ + window) return;
    const std::uint64_t new_base = cycle - window / 2;
    const std::uint64_t count = std::min(new_base - base_, window);
    const std::uint64_t first = base_ & mask_;
    const std::uint64_t head = std::min(count, window - first);
    std::fill_n(used_.begin() + static_cast<std::ptrdiff_t>(first), head, std::uint8_t{0});
    std::fill_n(used_.begin(), count - head, std::uint8_t{0});
    base_ = new_base;
  }

  unsigned width_;
  std::uint64_t mask_;  ///< window size - 1
  std::vector<std::uint8_t> used_;
  std::uint64_t base_ = 0;
  std::uint64_t last_ = 0;
};

/// A pool of N slots each held until a completion time (ROB, LSQ, queues).
/// Allocation is in program order (ring), which matches how these
/// structures fill and drain.
class SlotPool {
 public:
  explicit SlotPool(unsigned entries) : free_at_(entries, 0) {
    IMAC_CHECK(entries >= 1, "slot pool must have at least one entry");
  }

  /// Earliest cycle (>= earliest) at which the next slot is available.
  [[nodiscard]] std::uint64_t available(std::uint64_t earliest) const {
    return std::max(earliest, free_at_[next_]);
  }

  /// Claims the next slot, holding it until `release_cycle`.
  void claim(std::uint64_t release_cycle) {
    free_at_[next_] = release_cycle;
    if (++next_ == free_at_.size()) next_ = 0;
  }

  void reset() {
    std::fill(free_at_.begin(), free_at_.end(), 0);
    next_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return free_at_.size(); }
  /// Calls fn(first, count) on the release cycles of the slots the next
  /// i .. i + n - 1 claims will take (i + n <= size()), as at most two
  /// contiguous runs.
  template <typename Fn>
  void runs_ahead(std::size_t i, std::size_t n, Fn&& fn) {
    std::size_t start = next_ + i;
    if (start >= free_at_.size()) start -= free_at_.size();
    const std::size_t head = std::min(n, free_at_.size() - start);
    fn(free_at_.data() + start, head);
    if (n > head) fn(free_at_.data(), n - head);
  }
  /// Moves the ring's next slot `by` slots on, as that many claims would.
  void advance(std::size_t by) { next_ = (next_ + by) % free_at_.size(); }

 private:
  std::vector<std::uint64_t> free_at_;
  std::size_t next_ = 0;
};

}  // namespace indexmac::timing
