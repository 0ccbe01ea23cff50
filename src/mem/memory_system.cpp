#include "mem/memory_system.h"

#include <algorithm>

#include "common/bitutil.h"

namespace indexmac {

std::size_t InflightFills::probe(std::uint64_t line) const {
  std::size_t i = home(line);
  while (occupied(i) && slots_[i].line != line) i = (i + 1) & kMask;
  return i;
}

const std::uint64_t* InflightFills::find(std::uint64_t line) const {
  const std::size_t i = probe(line);
  return occupied(i) ? &slots_[i].ready : nullptr;
}

void InflightFills::insert(std::uint64_t line, std::uint64_t ready) {
  IMAC_ASSERT(size_ < kMaxEntries, "in-flight fill table overflow");
  const std::size_t i = probe(line);
  IMAC_ASSERT(!occupied(i), "in-flight fill recorded twice");
  slots_[i] = Slot{line, ready, epoch_};
  ++size_;
}

void InflightFills::erase(std::uint64_t line) {
  std::size_t hole = probe(line);
  IMAC_ASSERT(occupied(hole), "erasing an unrecorded in-flight fill");
  // Backward shift: pull later entries of the probe run into the hole
  // unless their home slot lies cyclically in (hole, j].
  for (std::size_t j = (hole + 1) & kMask; occupied(j); j = (j + 1) & kMask) {
    if (((j - home(slots_[j].line)) & kMask) < ((j - hole) & kMask)) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole].epoch = epoch_ - 1;
  --size_;
}

void InflightFills::clear() {
  ++epoch_;  // 64 bits: never wraps back to a stale slot's epoch
  size_ = 0;
}

MemorySystem::MemorySystem(const MemHierConfig& config)
    : config_(config),
      l1d_(config.l1d),
      l2_(config.l2),
      l2_line_shift_(log2_exact(config.l2.line_bytes)),
      l2_bank_mask_(config.l2_banks - 1),
      l2_bank_free_(config.l2_banks, 0) {
  IMAC_CHECK(is_pow2(config.l2_banks), "L2 bank count must be a power of two");
}

std::uint64_t MemorySystem::dram_line(std::uint64_t line_addr, std::uint64_t cycle) {
  // Merge with an in-flight fill of the same line if one exists.
  if (const std::uint64_t* ready = inflight_fills_.find(line_addr)) {
    if (cycle < *ready) return *ready;
    inflight_fills_.erase(line_addr);
  }
  const std::uint64_t start = std::max(cycle, dram_channel_free_);
  dram_channel_free_ = start + config_.dram_line_occupancy;
  const std::uint64_t ready = start + config_.dram_latency;
  ++stats_.dram_lines;
  // Bound the merge window: past 4096 lines in flight, forget them all.
  if (inflight_fills_.size() == InflightFills::kMaxEntries) inflight_fills_.clear();
  inflight_fills_.insert(line_addr, ready);
  inflight_max_ready_ = std::max(inflight_max_ready_, ready);
  return ready;
}

std::uint64_t MemorySystem::pending_fill(std::uint64_t line_addr, std::uint64_t cycle) const {
  // A tag-array hit on a line whose DRAM fill is still in flight must wait
  // for the fill (the tag allocates at miss time in this model). Once
  // `cycle` is past every in-flight ready time no entry can delay it, so
  // the common steady-state hit skips the hash lookup.
  if (cycle >= inflight_max_ready_) return cycle;
  const std::uint64_t* ready = inflight_fills_.find(line_addr);
  return (ready != nullptr && cycle < *ready) ? *ready : cycle;
}

std::uint64_t MemorySystem::l2_line(std::uint64_t line_addr, bool is_store, std::uint64_t cycle) {
  const std::uint64_t bank = (line_addr >> l2_line_shift_) & l2_bank_mask_;
  const std::uint64_t start = std::max(cycle, l2_bank_free_[bank]);
  l2_bank_free_[bank] = start + config_.l2_bank_occupancy;

  const CacheLineResult r = l2_.access(line_addr, is_store);
  if (r.writeback) dram_line(r.victim_addr, start + config_.l2.hit_latency);
  if (r.hit) return pending_fill(line_addr, start + config_.l2.hit_latency);
  return dram_line(line_addr, start + config_.l2.hit_latency);
}

template <typename Fn>
std::uint64_t MemorySystem::for_lines(std::uint64_t addr, unsigned bytes, Fn&& fn) {
  std::uint64_t done = 0;
  const std::uint64_t first = addr >> l2_line_shift_;
  const std::uint64_t last = (addr + std::max(bytes, 1u) - 1) >> l2_line_shift_;
  for (std::uint64_t l = first; l <= last; ++l)
    done = std::max(done, fn(l << l2_line_shift_));
  return done;
}

std::uint64_t MemorySystem::scalar_data(std::uint64_t addr, unsigned bytes, bool is_store,
                                        std::uint64_t cycle) {
  (is_store ? stats_.scalar_writes : stats_.scalar_reads) += 1;
  return for_lines(addr, bytes, [&](std::uint64_t line_addr) {
    const CacheLineResult r = l1d_.access(line_addr, is_store);
    const std::uint64_t tag_done = cycle + config_.l1d.hit_latency;
    if (r.writeback) l2_line(r.victim_addr, /*is_store=*/true, tag_done);
    if (r.hit) return pending_fill(line_addr, tag_done);
    return l2_line(line_addr, /*is_store=*/false, tag_done);
  });
}

std::uint64_t MemorySystem::vector_data(std::uint64_t addr, unsigned bytes, bool is_store,
                                        std::uint64_t cycle) {
  (is_store ? stats_.vector_writes : stats_.vector_reads) += 1;
  return for_lines(addr, bytes,
                   [&](std::uint64_t line_addr) { return l2_line(line_addr, is_store, cycle); });
}

void MemorySystem::reset() {
  l1d_.invalidate_all();
  l2_.invalidate_all();
  l1d_.reset_stats();
  l2_.reset_stats();
  std::fill(l2_bank_free_.begin(), l2_bank_free_.end(), 0);
  dram_channel_free_ = 0;
  inflight_fills_.clear();
  inflight_max_ready_ = 0;
  stats_ = MemStats{};
}

}  // namespace indexmac
