// The timing model's memo of whole trace units (timing_sim.h explains the
// scheme): a fixed-capacity, set-associative table from a unit's key to
// what timing that unit in detail produced from the keyed state. The key
// and the recorded exit state are 16-bit words whose layout the model
// defines; this file only stores, finds and replaces entries.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

namespace indexmac::timing {

/// The TimingStats counters a unit advances (the model lists them).
inline constexpr std::size_t kUnitCounters = 11;

/// One memory request of a recorded unit. Cycles are relative to the
/// unit's anchor.
struct MemoRequest {
  std::uint16_t op = 0;    ///< the unit's instruction that made it
  std::uint16_t sub = 0;   ///< gather element; 0 for other ops
  std::uint16_t start = 0;
  std::uint16_t done = 0;  ///< the response the recording got
};

/// A marker event a recorded unit committed.
struct MemoMarker {
  std::uint16_t request = 0;  ///< memory requests the unit made before it
  std::uint16_t op = 0;       ///< the marker's instruction in the unit
  std::uint16_t cycle = 0;    ///< its commit cycle, relative
};

/// What timing a unit in detail produced for one sequence of memory
/// responses, packed into one array of words: the exit state, the issue
/// port's grants in order, the requests (4 words each) and the markers
/// (3 words each).
class MemoTiming {
 public:
  std::uint64_t last_use = 0;  ///< LRU stamp; 0 while unused
  std::array<std::uint32_t, kUnitCounters> counts{};

  void assign(std::span<const std::uint16_t> exit, std::span<const std::uint16_t> issues,
              std::span<const MemoRequest> requests, std::span<const MemoMarker> markers) {
    n_exit_ = static_cast<std::uint32_t>(exit.size());
    n_issues_ = static_cast<std::uint32_t>(issues.size());
    n_requests_ = static_cast<std::uint32_t>(requests.size());
    n_markers_ = static_cast<std::uint32_t>(markers.size());
    words_.resize(n_exit_ + n_issues_ + 4 * n_requests_ + 3 * n_markers_);
    std::uint16_t* w = std::copy(exit.begin(), exit.end(), words_.data());
    w = std::copy(issues.begin(), issues.end(), w);
    for (const MemoRequest& r : requests) {
      *w++ = r.op;
      *w++ = r.sub;
      *w++ = r.start;
      *w++ = r.done;
    }
    for (const MemoMarker& m : markers) {
      *w++ = m.request;
      *w++ = m.op;
      *w++ = m.cycle;
    }
  }

  [[nodiscard]] const std::uint16_t* exit() const { return words_.data(); }
  [[nodiscard]] std::span<const std::uint16_t> issues() const {
    return {words_.data() + n_exit_, n_issues_};
  }
  [[nodiscard]] std::size_t requests() const { return n_requests_; }
  [[nodiscard]] MemoRequest request(std::size_t j) const {
    const std::uint16_t* w = words_.data() + n_exit_ + n_issues_ + 4 * j;
    return {w[0], w[1], w[2], w[3]};
  }
  [[nodiscard]] std::size_t markers() const { return n_markers_; }
  [[nodiscard]] MemoMarker marker(std::size_t k) const {
    const std::uint16_t* w = words_.data() + n_exit_ + n_issues_ + 4 * n_requests_ + 3 * k;
    return {w[0], w[1], w[2]};
  }

 private:
  std::uint32_t n_exit_ = 0, n_issues_ = 0, n_requests_ = 0, n_markers_ = 0;
  std::vector<std::uint16_t> words_;
};

/// A key and the timings recorded under it, one per response sequence
/// seen: the same unit from the same state takes a few memory outcomes in
/// turn (a stream crossing a line, a fill merging), and each is kept.
struct MemoEntry {
  static constexpr std::size_t kTimings = 4;

  std::uint64_t hash = 0;
  std::uint64_t last_use = 0;  ///< LRU stamp; 0 while the way is empty
  std::vector<std::uint16_t> key;
  std::vector<MemoTiming> timings;  ///< at most kTimings; unused ones are kept for reuse
};

/// 2048 keys in 4-way sets, least recently used out. A set is allocated
/// on its first insert, so short runs pay only for the sets they use.
class UnitMemo {
 public:
  static constexpr std::size_t kWays = 4;
  static constexpr std::size_t kSets = 512;

  static std::uint64_t hash(std::span<const std::uint16_t> key) {
    std::uint64_t h = key.size() * 0x9E3779B97F4A7C15ull;
    std::size_t i = 0;
    for (; i + 4 <= key.size(); i += 4) {
      std::uint64_t w;
      std::memcpy(&w, key.data() + i, sizeof w);
      h = (h ^ w) * 0xff51afd7ed558ccdull;
      h ^= h >> 32;
    }
    for (; i < key.size(); ++i) h = ((h ^ key[i]) * 0xc4ceb9fe1a85ec53ull) ^ (h >> 29);
    return h;
  }

  /// The entry recorded under `key` (with its hash), or nullptr.
  MemoEntry* find(std::uint64_t hash, std::span<const std::uint16_t> key) {
    if (sets_.empty() || sets_[hash % kSets] == nullptr) return nullptr;
    MemoEntry* set = sets_[hash % kSets]->data();
    for (std::size_t w = 0; w < kWays; ++w) {
      MemoEntry& e = set[w];
      if (e.last_use != 0 && e.hash == hash && std::ranges::equal(e.key, key)) {
        e.last_use = ++clock_;
        return &e;
      }
    }
    return nullptr;
  }

  /// A way of `hash`'s set for `key`, with no timings: an empty way, else
  /// the least recently used.
  MemoEntry& claim(std::uint64_t hash, std::span<const std::uint16_t> key) {
    if (sets_.empty()) sets_.resize(kSets);
    std::unique_ptr<std::array<MemoEntry, kWays>>& slot = sets_[hash % kSets];
    if (slot == nullptr) slot = std::make_unique<std::array<MemoEntry, kWays>>();
    MemoEntry* set = slot->data();
    MemoEntry* victim = set;
    for (std::size_t w = 1; w < kWays; ++w)
      if (set[w].last_use < victim->last_use) victim = &set[w];
    victim->hash = hash;
    victim->last_use = ++clock_;
    victim->key.assign(key.begin(), key.end());
    for (MemoTiming& t : victim->timings) t.last_use = 0;
    return *victim;
  }

  /// The timing of `e` to record a new one into: an unused one, else the
  /// least recently used. It counts as used from now on.
  MemoTiming& claim_timing(MemoEntry& e) {
    MemoTiming* victim = nullptr;
    for (MemoTiming& t : e.timings)
      if (victim == nullptr || t.last_use < victim->last_use) victim = &t;
    if (e.timings.size() < MemoEntry::kTimings && (victim == nullptr || victim->last_use != 0))
      victim = &e.timings.emplace_back();
    touch(*victim);
    return *victim;
  }

  void touch(MemoTiming& t) { t.last_use = ++clock_; }

 private:
  std::vector<std::unique_ptr<std::array<MemoEntry, kWays>>> sets_;
  std::uint64_t clock_ = 0;
};

}  // namespace indexmac::timing
