#include "timing/timing_sim.h"

#include <array>
#include <span>
#include <bit>

#include "common/bitutil.h"
#include "common/error.h"
#include "fsim/machine.h"
#include "timing/port_scheduler.h"
#include "timing/trace.h"
#include "timing/unit_memo.h"

namespace indexmac::timing {
namespace {

using isa::Op;

/// Fixed front-end depth between a fetch slot and rename/dispatch.
constexpr std::uint64_t kFrontendDepth = 4;

/// Units shorter than this are timed directly: keying one costs about as
/// much as timing a few dozen instructions.
constexpr std::uint32_t kMemoMinUnit = 24;
/// Instructions a run times directly before it starts keying units. A
/// run's first units mostly record rather than replay, so runs shorter
/// than a few times this (sampled miniatures) would pay for the memo and
/// gain little from it.
constexpr std::uint64_t kMemoWarmup = std::uint64_t{1} << 18;
/// Keys hold issue-port fills for at most this many cycles past the anchor.
constexpr std::uint64_t kMemoMaxIssueSpan = 1024;

/// Recent scalar stores for store-to-load forwarding / disambiguation.
struct PendingStore {
  std::uint64_t addr = 0;
  std::uint32_t bytes = 0;
  std::uint64_t data_ready = 0;
};

/// Rejects vector-engine rates the per-instruction math would divide by.
const ProcessorConfig& checked(const ProcessorConfig& config) {
  if (config.vector.lanes == 0) raise("timing: VectorEngineConfig::lanes must be positive");
  if (config.vector.gather_lanes == 0)
    raise("timing: VectorEngineConfig::gather_lanes must be positive");
  return config;
}

/// Engine cycles to stream `vl` elements at `per_cycle` elements a cycle
/// (at least one, also for vl = 0).
std::uint32_t occupancy_cycles(std::uint32_t vl, unsigned per_cycle) {
  return static_cast<std::uint32_t>(ceil_div(std::max<std::uint32_t>(vl, 1), per_cycle));
}

/// The timing path of an instruction slot: which branch of the model's
/// scalar or vector side times it. Predecoded once per program from the
/// slot's StaticInstInfo (and, where the info does not say, its op), so the
/// per-instruction path is one switch. Vector kinds follow kFirstVector.
enum class Kind : std::uint8_t {
  kAlu,        ///< plain scalar ALU work (also illegal words, which raise first)
  kMul,        ///< mul: the multiplier latency
  kVsetvli,    ///< scalar-side vl computation later vector ops wait for
  kLoadX,      ///< scalar load into an x register
  kLoadF,      ///< flw
  kStore,      ///< scalar store, written at commit
  kBranch,     ///< conditional branch (BTFNT-predicted)
  kJump,       ///< jal/jalr
  kHalt,       ///< ebreak/ecall
  kMarker,     ///< simulation marker
  kSsrCtl,     ///< ssrcfg/ssren
  kFirstVector,
  kGather = kFirstVector,  ///< vluxei32
  kVLoad,      ///< vle32
  kVStore,     ///< vse32
  kToX,        ///< vmv.x.s
  kToF,        ///< vfmv.f.s
  kVAlu,       ///< other engine work at its latency class
  kMac,        ///< vmacc/vfmacc
  kIndexMac,   ///< v(f)indexmac(p): one VRF row read through x[rs1]
  kDualMac,    ///< v(f)indexmac2: two rows, two MAC operations
  kSsrMac,     ///< v(f)indexmacs: operands pop from the SSR streams
};

Kind classify(const isa::Instruction& in, const isa::StaticInstInfo& si) {
  if (si.has(isa::kSiVector)) {
    if (si.has(isa::kSiGather)) return Kind::kGather;
    if (si.has(isa::kSiVectorLoad)) return Kind::kVLoad;
    if (si.has(isa::kSiVectorStore)) return Kind::kVStore;
    if (si.has(isa::kSiVectorToScalar)) return in.op == Op::kVmvXS ? Kind::kToX : Kind::kToF;
    if (si.has(isa::kSiSsrMac)) return Kind::kSsrMac;
    if (si.has(isa::kSiDualMac)) return Kind::kDualMac;
    if (si.has(isa::kSiIndirectVreg)) return Kind::kIndexMac;
    return si.has(isa::kSiVectorMac) ? Kind::kMac : Kind::kVAlu;
  }
  if (si.has(isa::kSiScalarLoad)) return in.op == Op::kFlw ? Kind::kLoadF : Kind::kLoadX;
  if (si.has(isa::kSiScalarStore)) return Kind::kStore;
  if (si.has(isa::kSiBranch)) return Kind::kBranch;
  if (si.has(isa::kSiJump)) return Kind::kJump;
  if (si.has(isa::kSiHalt)) return Kind::kHalt;
  if (si.has(isa::kSiMarker)) return Kind::kMarker;
  if (si.has(isa::kSiSsrCtl)) return Kind::kSsrCtl;
  if (in.op == Op::kMul) return Kind::kMul;
  return in.op == Op::kVsetvli ? Kind::kVsetvli : Kind::kAlu;
}

/// The register ready times an op reads and writes (bit r: register r),
/// as the model's paths below touch them.
struct SlotUse {
  std::uint32_t x_read = 0, f_read = 0, v_read = 0;
  std::uint32_t x_write = 0, f_write = 0, v_write = 0;
};

SlotUse slot_use(const isa::Instruction& in, const isa::StaticInstInfo& si, Kind kind) {
  SlotUse u;
  if (kind != Kind::kHalt && kind != Kind::kMarker) {  // their sources are not waited on
    if (si.has(isa::kSiReadsXRs1)) u.x_read |= 1u << in.rs1;
    if (si.has(isa::kSiReadsXRs2)) u.x_read |= 1u << in.rs2;
    if (si.has(isa::kSiReadsFRs1)) u.f_read |= 1u << in.rs1;
    if (si.has(isa::kSiReadsFRs2)) u.f_read |= 1u << in.rs2;
    u.x_read &= ~1u;  // x0 is always ready
  }
  if (kind >= Kind::kFirstVector) {
    if (si.vreg_reads & isa::kVReadRd) u.v_read |= 1u << in.rd;
    if (si.vreg_reads & isa::kVReadRs1) u.v_read |= 1u << in.rs1;
    if (si.vreg_reads & isa::kVReadRs2) u.v_read |= 1u << in.rs2;
  }
  switch (kind) {
    case Kind::kAlu:
    case Kind::kMul:
    case Kind::kVsetvli:
    case Kind::kLoadX:
    case Kind::kJump:
    case Kind::kToX:
      u.x_write = (1u << in.rd) & ~1u;
      break;
    case Kind::kLoadF:
    case Kind::kToF:
      u.f_write = 1u << in.rd;
      break;
    case Kind::kGather:
    case Kind::kVLoad:
    case Kind::kVAlu:
    case Kind::kMac:
    case Kind::kIndexMac:
    case Kind::kDualMac:
      u.v_write = 1u << in.rd;
      break;
    default:
      break;
  }
  return u;
}

/// What a unit reads before writing it, and writes, of the model's
/// timestamps: register masks, slot-ring claims (ROB, LSQ, vector queue,
/// vector load and store queues), store-ring slots from the next one that
/// its loads overlap, and bits over Model::lasts().
struct Footprint {
  std::uint32_t x_read = 0, f_read = 0, v_read = 0;
  std::uint32_t x_written = 0, f_written = 0, v_written = 0;
  std::array<std::uint32_t, 5> claims{};
  std::uint32_t ring_read = 0;
  std::uint32_t last_read = 0, last_written = 0;
};

/// A unit's static shape (Model::make_plan).
struct UnitPlan {
  struct Input {
    std::uint16_t op;         ///< position in the unit
    Kind kind;
    std::uint8_t bytes;       ///< scalar loads/stores: access size
    std::int32_t imm;         ///< scalar loads/stores: address offset
    bool packed;              ///< indexed MACs: the row comes from a packed index
    std::uint32_t v_written;  ///< indexed MACs: vregs the unit's earlier ops write
    std::uint32_t writers;    ///< indexed MACs: their last writers start at writers[this]
  };
  std::uint32_t count = 0;
  bool keyable = false;
  bool vector = false;  ///< holds vector ops, which read vl
  Footprint footprint;
  std::vector<Input> inputs;
  /// Per indexed MAC, for each vreg of its v_written in ascending order,
  /// the op that last wrote it.
  std::vector<std::uint16_t> writers;
};

class Model {
 public:
  Model(const Program& program, MainMemory& memory, const ProcessorConfig& config)
      : config_(checked(config)),
        machine_(program, memory),
        trace_(machine_),
        mem_(config.memory),
        fetch_ports_(config.scalar.fetch_width),
        issue_ports_(config.scalar.issue_width),
        commit_ports_(config.scalar.commit_width),
        rob_(config.scalar.rob_entries),
        lsq_(config.scalar.lsq_entries),
        viq_(config.vector.queue_entries),
        vlq_(config.vector.load_queues),
        vsq_(config.vector.store_queues) {
    fetch_can_lag_ = config_.scalar.commit_width <= config_.scalar.fetch_width;
    kinds_.reserve(program.decoded().size());
    for (std::size_t i = 0; i < program.decoded().size(); ++i)
      kinds_.push_back(classify(program.decoded()[i], program.static_info()[i]));
    x_ready_.fill(0);
    f_ready_.fill(0);
    v_ready_.fill(0);
    // Resolve the per-class vector-engine latencies once; the per-op
    // switch in process_vector becomes a table lookup.
    vlat_cycles_[static_cast<int>(isa::VLatClass::kNone)] = config_.vector.alu_latency;
    vlat_cycles_[static_cast<int>(isa::VLatClass::kAlu)] = config_.vector.alu_latency;
    vlat_cycles_[static_cast<int>(isa::VLatClass::kMac)] = config_.vector.mac_latency;
    vlat_cycles_[static_cast<int>(isa::VLatClass::kSlide)] = config_.vector.slide_latency;
    vlat_cycles_[static_cast<int>(isa::VLatClass::kMove)] = config_.vector.move_latency;
    vlat_cycles_[static_cast<int>(isa::VLatClass::kReduction)] =
        config_.vector.reduction_latency;
    // Likewise the lane-rate divisions, for every vl the trace can carry.
    for (std::uint32_t vl = 0; vl <= isa::kVlMax; ++vl) {
      occupancy_[vl] = occupancy_cycles(vl, config_.vector.lanes);
      gather_occupancy_[vl] = occupancy_cycles(vl, config_.vector.gather_lanes);
    }
    for (std::uint32_t i = 0; i < isa::kVlMax; ++i)
      gather_slot_[i] = i / config_.vector.gather_lanes;
  }

  /// Walks the trace unit by unit. The budget errors name the next
  /// instruction the model has not timed: inside the unit when the budget
  /// ends there (the block trace has already run the machine past it), else
  /// the first instruction of the next unit, which has not run yet.
  void run(std::uint64_t max_instructions) {
    TraceUnit unit;
    std::uint64_t n = 0;
    for (;;) {
      if (n == max_instructions) budget_exhausted(max_instructions, machine_.state().pc);
      trace_.next_unit(unit);
      const std::uint64_t left = max_instructions - n;
      if (unit.count <= left && admits(unit)) {
        time_memoized(unit);
        n += unit.count;
      } else {
        const std::uint32_t take =
            unit.count <= left ? unit.count : static_cast<std::uint32_t>(left);
        time_ops(unit, take);
        n += take;
        if (take < unit.count) budget_exhausted(max_instructions, trace_.pc_of(unit.slot + take));
      }
      if (unit.halts()) {
        stats_.instructions = n;
        stats_.mem = mem_.stats();
        return;
      }
    }
  }

  [[nodiscard]] const TimingStats& stats() const { return stats_; }
  [[nodiscard]] std::vector<MarkerEvent>& markers() { return markers_; }
  [[nodiscard]] const MemoStats& memo_stats() const { return memo_stats_; }

 private:
  // ---- helpers ----

  [[noreturn]] void budget_exhausted(std::uint64_t max_instructions, std::uint64_t pc) const {
    raise("timing: instruction budget of " + std::to_string(max_instructions) +
          " exhausted (runaway program?) at " + describe_pc(machine_.program(), pc));
  }

  std::uint64_t xr(unsigned r) const { return r == 0 ? 0 : x_ready_[r]; }

  void set_x(unsigned r, std::uint64_t cycle) {
    if (r != 0) x_ready_[r] = cycle;
  }

  std::uint64_t scalar_srcs(const OpView& d) const {
    const std::uint32_t flags = d.info.flags;
    std::uint64_t ready = 0;
    if (flags & isa::kSiReadsXRs1) ready = std::max(ready, xr(d.inst.rs1));
    if (flags & isa::kSiReadsXRs2) ready = std::max(ready, xr(d.inst.rs2));
    if (flags & isa::kSiReadsFRs1) ready = std::max(ready, f_ready_[d.inst.rs1]);
    if (flags & isa::kSiReadsFRs2) ready = std::max(ready, f_ready_[d.inst.rs2]);
    return ready;
  }

  /// Store-to-load forwarding: completion if an older in-flight store
  /// overlaps this load.
  std::uint64_t forward_from_stores(std::uint64_t addr, std::uint32_t bytes,
                                    std::uint64_t issue) const {
    std::uint64_t ready = 0;
    for (const PendingStore& s : store_ring_) {
      if (s.bytes == 0) continue;
      const bool overlap = addr < s.addr + s.bytes && s.addr < addr + bytes;
      if (overlap) ready = std::max(ready, std::max(issue, s.data_ready) + 1);
    }
    return ready;
  }

  // ---- the unit memo (timing_sim.h) ----

  template <bool kRecord = false>
  void time_ops(const TraceUnit& unit, std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      if constexpr (kRecord) cur_op_ = i;
      process<kRecord>(trace_.op(unit, i), kinds_[unit.slot + i]);
    }
  }

  /// Units worth keying: past the run's warm-up, long enough, and at a
  /// slot a unit started at before.
  bool admits(const TraceUnit& unit) {
    if (committed_ < kMemoWarmup || unit.count < kMemoMinUnit || unit.count > 0xffff)
      return false;
    if (seen_.empty()) {
      seen_.resize(kinds_.size());
      plan_of_.assign(kinds_.size(), -1);
    }
    if (seen_[unit.slot]) return true;
    seen_[unit.slot] = true;
    return false;
  }

  /// Times a whole admitted unit: replays a recorded timing when the key
  /// matches and every memory response checks out, else times it in
  /// detail and records it.
  void time_memoized(const TraceUnit& unit) {
    if (!encode_key(unit)) {
      time_ops(unit, unit.count);
      return;
    }
    ++memo_stats_.units_keyed;
    const std::span<const std::uint16_t> key(key_.data(), key_len_);
    const std::uint64_t hash = UnitMemo::hash(key);
    MemoEntry* entry = memo_.find(hash, key);
    if (entry != nullptr) {
      if (const MemoTiming* timing = replay(unit, *entry)) {
        install(*timing, unit.count);
        ++memo_stats_.units_replayed;
        memo_stats_.instructions_replayed += unit.count;
        return;
      }
      ++memo_stats_.units_retimed;
    }
    record(unit, entry, hash, key);
  }

  /// Times the unit in detail, logging its memory requests and markers,
  /// and records the result as a timing of `entry` (or of a new way). The
  /// first served_.size() requests take the responses a failed replay
  /// already got from the memory system, so each request reaches it once.
  void record(const TraceUnit& unit, MemoEntry* entry, std::uint64_t hash,
              std::span<const std::uint16_t> key) {
    std::array<std::uint64_t, kUnitCounters> before;
    const auto counters = unit_counters(stats_);
    for (std::size_t i = 0; i < kUnitCounters; ++i) before[i] = *counters[i];
    rec_requests_.clear();
    rec_issues_.clear();
    rec_markers_.clear();
    rec_fits_ = true;
    cursor_ = 0;
    time_ops<true>(unit, unit.count);
    IMAC_ASSERT(cursor_ == served_.size(), "memo: a re-timed unit made other requests");
    served_.clear();
    for (std::size_t i = 0; i < kUnitCounters; ++i)
      rec_fits_ &= *counters[i] - before[i] <= 0xffffffffu;
    if (!rec_fits_ || !encode_exit(unit.count)) return;
    MemoTiming& t = memo_.claim_timing(entry != nullptr ? *entry : memo_.claim(hash, key));
    t.assign({exit_.data(), exit_len_}, rec_issues_, rec_requests_, rec_markers_);
    for (std::size_t i = 0; i < kUnitCounters; ++i)
      t.counts[i] = static_cast<std::uint32_t>(*counters[i] - before[i]);
  }

  /// Makes the memory requests of `e`'s most recent timing with this
  /// unit's addresses, in recorded order, and commits its markers at their
  /// recorded positions. A response that differs from that timing's
  /// switches to another timing that got the same responses so far and
  /// this one: up to there both made the same requests. Returns the timing
  /// every response matched, else nullptr with the responses served so far,
  /// the unmatched one last, in served_.
  const MemoTiming* replay(const TraceUnit& unit, MemoEntry& e) {
    served_.clear();
    MemoTiming* t = &e.timings.front();
    for (MemoTiming& u : e.timings)
      if (u.last_use > t->last_use) t = &u;
    std::size_t marker = 0;
    for (std::size_t j = 0;; ++j) {
      for (; marker < t->markers() && t->marker(marker).request == j; ++marker)
        commit_marker(unit, t->marker(marker));
      if (j == t->requests()) break;
      const MemoRequest r = t->request(j);
      const std::uint64_t done =
          access(trace_.op(unit, r.op), kinds_[unit.slot + r.op], r.sub, anchor_ + r.start);
      served_.push_back(done);
      if (done == anchor_ + r.done) continue;
      t = timing_after(e, j);
      if (t == nullptr) return nullptr;
      marker = 0;  // the markers before the switch are the same in both timings
      while (marker < t->markers() && t->marker(marker).request <= j) ++marker;
    }
    served_.clear();
    memo_.touch(*t);
    return t;
  }

  /// A timing of `e` whose first j + 1 responses equal served_, or nullptr.
  MemoTiming* timing_after(MemoEntry& e, std::size_t j) {
    for (MemoTiming& u : e.timings) {
      if (u.last_use == 0 || u.requests() <= j) continue;
      std::size_t k = 0;
      while (k <= j && anchor_ + u.request(k).done == served_[k]) ++k;
      if (k > j) return &u;
    }
    return nullptr;
  }

  void commit_marker(const TraceUnit& unit, const MemoMarker& m) {
    markers_.push_back(MarkerEvent{trace_.op(unit, m.op).marker_id(), anchor_ + m.cycle,
                                   committed_ + m.op + 1, mem_.stats()});
  }

  /// Logs a marker the unit being recorded commits; false when a failed
  /// replay already committed it.
  bool note_marker(std::uint64_t commit) {
    rec_fits_ &= commit - anchor_ <= 0xffff && rec_requests_.size() <= 0xffff;
    rec_markers_.push_back(MemoMarker{static_cast<std::uint16_t>(rec_requests_.size()),
                                      static_cast<std::uint16_t>(cur_op_),
                                      static_cast<std::uint16_t>(commit - anchor_)});
    return rec_requests_.size() >= served_.size();
  }

  /// The last-event cycles, in the order of Footprint::last_read's bits.
  std::array<std::uint64_t*, 5> lasts() {
    return {&last_commit_, &last_branch_resolve_, &last_vector_send_, &last_vsetvli_done_,
            &engine_next_issue_};
  }

  std::array<SlotPool*, 5> pools() { return {&rob_, &lsq_, &viq_, &vlq_, &vsq_}; }

  /// Calls fn(first, count) on each run of timestamps of the unit's
  /// footprint: with `written` false the ones it reads before writing them
  /// (its key), else the ones it writes (its exit state). Slot rings list
  /// the slots the unit claims (written: the last slot-count of them, in
  /// claim order).
  template <typename Fn>
  void for_each_footprint(bool written, Fn&& fn) {
    const Footprint& fp = footprint_;
    const auto each_bit = [&fn](std::uint32_t mask, std::uint64_t* values) {
      for (; mask != 0; mask &= mask - 1) fn(values + std::countr_zero(mask), 1);
    };
    each_bit(written ? fp.x_written : fp.x_read, x_ready_.data());
    each_bit(written ? fp.f_written : fp.f_read, f_ready_.data());
    each_bit(written ? fp.v_written : fp.v_read, v_ready_.data());
    std::size_t p = 0;
    for (SlotPool* pool : pools()) {
      const std::size_t n = pool->size();
      const std::size_t m = std::min<std::size_t>(fp.claims[p++], n);
      pool->runs_ahead(written ? n - m : 0, m, fn);
    }
    constexpr std::size_t kRing = std::tuple_size_v<decltype(store_ring_)>;
    if (written) {
      const std::size_t m = std::min<std::size_t>(unit_stores_.size(), kRing);
      for (std::size_t j = 0; j < m; ++j)
        fn(&store_ring_[(store_ring_next_ + kRing - m + j) % kRing].data_ready, 1);
    } else {
      for (std::uint32_t mask = fp.ring_read; mask != 0; mask &= mask - 1)
        fn(&store_ring_[(store_ring_next_ + std::countr_zero(mask)) % kRing].data_ready, 1);
    }
    const auto last = lasts();
    for (std::uint32_t mask = written ? fp.last_written : fp.last_read; mask != 0; mask &= mask - 1)
      fn(last[std::countr_zero(mask)], 1);
  }

  /// Writes each footprint timestamp as max(t, A) - A for the anchor A,
  /// and for the key the issue-port fills from A to the last claimed
  /// cycle. False when a value does not fit its word.
  bool encode_timestamps(bool written, std::uint16_t*& out) {
    const std::uint64_t a = anchor_;
    std::uint64_t bits = 0;
    std::uint16_t* o = out;
    for_each_footprint(written, [&](const std::uint64_t* t, std::size_t n) {
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint64_t rel = t[k] > a ? t[k] - a : 0;
        bits |= rel;
        o[k] = static_cast<std::uint16_t>(rel);
      }
      o += n;
    });
    if (!written) {
      const std::uint64_t last = issue_ports_.last();
      const std::uint64_t span = last >= a ? last - a + 1 : 0;
      if (span > kMemoMaxIssueSpan) return false;
      *o++ = static_cast<std::uint16_t>(span);
      for (std::uint64_t c = 0; c < span; c += 2) {
        unsigned pair = issue_ports_.used_at(a + c);
        if (c + 1 < span) pair |= issue_ports_.used_at(a + c + 1) << 8;
        *o++ = static_cast<std::uint16_t>(pair);
      }
    }
    out = o;
    return bits <= 0xffff;
  }

  /// Words the key or exit state of a unit of `count` ops can take at most.
  std::size_t max_words(std::uint32_t count) const {
    const ScalarCoreConfig& sc = config_.scalar;
    const VectorEngineConfig& vc = config_.vector;
    return 8 + 2 * std::size_t{count} + 3 * 32 + sc.rob_entries + sc.lsq_entries +
           vc.queue_entries + vc.load_queues + vc.store_queues + store_ring_.size() + 5 + 1 +
           kMemoMaxIssueSpan / 2 + 1;
  }

  /// The key: slot and length, the fetch and commit ports, the unit's
  /// pipeline-visible inputs, then the timestamps it reads. False when
  /// the unit cannot be keyed.
  ///
  /// The anchor A is the earliest cycle the next instruction can dispatch
  /// at, less the front-end depth: every later dispatch, and so every
  /// cycle the pipeline compares a stored timestamp with, is at least
  /// A + depth. The fetch side is kept as E = max(fetch-blocked cycle,
  /// fetch frontier) and the ports claimed at E, which behave as the
  /// three values did. When the next fetch trails the oldest ROB entry's
  /// release by more than the front-end depth, and commit is no wider than
  /// fetch, fetch cannot catch up before the next redirect, so every
  /// dispatch until then waits on the ROB and the trailing fetch state is
  /// keyed as "behind" whatever its distance.
  bool encode_key(const TraceUnit& unit) {
    const UnitPlan& plan = plan_for(unit);
    if (!plan.keyable) return false;
    const std::uint64_t blocked = fetch_blocked_until_;
    const std::uint64_t front = fetch_ports_.frontier();
    fetch_edge_ = std::max(blocked, front);
    fetch_used_ = blocked > front ? 0 : fetch_ports_.used();
    const std::uint64_t next_fetch =
        fetch_edge_ + (fetch_used_ < config_.scalar.fetch_width ? 0 : 1);
    const std::uint64_t rob_head = rob_.available(0);
    anchor_ = std::max(fetch_edge_, rob_head > kFrontendDepth ? rob_head - kFrontendDepth : 0);
    if (issue_ports_.base() > anchor_) return false;  // a claim could be clamped to it
    const std::size_t need = max_words(unit.count);
    if (key_.size() < need) key_.resize(need);
    std::uint16_t* out = key_.data();
    *out++ = static_cast<std::uint16_t>(unit.slot);
    *out++ = static_cast<std::uint16_t>(unit.slot >> 16);
    *out++ = static_cast<std::uint16_t>(unit.count);
    if (fetch_can_lag_ && next_fetch + kFrontendDepth < rob_head) {
      *out++ = 0xffff;
      *out++ = 0;
    } else {
      *out++ = static_cast<std::uint16_t>(anchor_ - fetch_edge_);
      *out++ = static_cast<std::uint16_t>(fetch_used_);
    }
    // The commit port's fill matters only while its frontier can be asked for.
    *out++ = static_cast<std::uint16_t>(
        last_commit_ >= anchor_ + kFrontendDepth ? commit_ports_.used() : 0);
    footprint_ = plan.footprint;
    if (!encode_inputs(unit, plan, out) || !encode_timestamps(false, out)) return false;
    key_len_ = static_cast<std::size_t>(out - key_.data());
    return true;
  }

  /// The exit state, relative to the entry anchor: the fetch-blocked cycle
  /// if the unit's branch raised it (else 0), the commit port's fill, then
  /// the timestamps the unit wrote.
  bool encode_exit(std::uint32_t count) {
    const std::size_t need = max_words(count);
    if (exit_.size() < need) exit_.resize(need);
    std::uint16_t* out = exit_.data();
    const std::uint64_t blocked =
        fetch_blocked_until_ > anchor_ ? fetch_blocked_until_ - anchor_ : 0;
    *out++ = static_cast<std::uint16_t>(blocked);
    *out++ = static_cast<std::uint16_t>(commit_ports_.used());
    if (blocked > 0xffff || !encode_timestamps(true, out)) return false;
    exit_len_ = static_cast<std::size_t>(out - exit_.data());
    return true;
  }

  /// Installs timing `e`'s exit state, shifted to this unit's anchor, and its
  /// counter deltas; what the unit does not write stays as it is. The
  /// store ring takes this unit's store addresses; the fetch port advances
  /// from this unit's own fetch state (a unit's only branch is its last op,
  /// so nothing redirects fetch inside it).
  void install(const MemoTiming& e, std::uint32_t count) {
    const std::uint64_t a = anchor_;
    const std::uint16_t* p = e.exit();
    if (*p != 0) fetch_blocked_until_ = a + *p;  // else unchanged, at or behind E
    ++p;
    const unsigned width = config_.scalar.fetch_width;
    const std::uint64_t fetched = fetch_used_ + count - 1;
    fetch_ports_.restore(fetch_edge_ + fetched / width,
                         static_cast<unsigned>(fetched % width) + 1);
    const unsigned commit_used = *p++;
    std::size_t i = 0;
    for (SlotPool* pool : pools()) pool->advance(footprint_.claims[i++] % pool->size());
    for (const PendingStore& s : unit_stores_) {
      store_ring_[store_ring_next_] = s;
      store_ring_next_ = (store_ring_next_ + 1) % store_ring_.size();
    }
    for_each_footprint(true, [&](std::uint64_t* t, std::size_t n) {
      for (std::size_t k = 0; k < n; ++k) t[k] = a + p[k];
      p += n;
    });
    commit_ports_.restore(last_commit_, commit_used);
    for (const std::uint16_t cycle : e.issues()) issue_ports_.grant(a + cycle);
    const auto counters = unit_counters(stats_);
    for (std::size_t k = 0; k < kUnitCounters; ++k) *counters[k] += e.counts[k];
    committed_ += count;
    stats_.cycles = last_commit_;
  }

  /// The TimingStats counters a unit advances, in the memo's order.
  static std::array<std::uint64_t*, kUnitCounters> unit_counters(TimingStats& s) {
    VectorDispatchStalls& st = s.dispatch_stalls;
    return {&s.scalar_instructions, &s.vector_instructions, &s.vector_loads, &s.vector_stores,
            &s.vector_macs,         &s.vector_to_scalar_moves, &s.branch_mispredicts,
            &st.scalar_operand,     &st.branch_shadow,      &st.queue_full, &st.bandwidth};
  }

  /// The plan of `unit`'s slot and length, derived on first use.
  const UnitPlan& plan_for(const TraceUnit& unit) {
    std::int32_t& index = plan_of_[unit.slot];
    if (index >= 0 && plans_[static_cast<std::size_t>(index)].count == unit.count)
      return plans_[static_cast<std::size_t>(index)];
    if (index < 0) {
      index = static_cast<std::int32_t>(plans_.size());
      plans_.emplace_back();
    }
    UnitPlan& plan = plans_[static_cast<std::size_t>(index)];
    plan = make_plan(unit.slot, unit.count);
    return plan;
  }

  /// Walks a unit's ops once: its footprint but for the store-ring slots
  /// its loads read, and the ops whose recorded values the key takes.
  /// Units with SSR ops, or a branch before the last op, are not keyable.
  UnitPlan make_plan(std::size_t slot, std::uint32_t count) const {
    const Program& program = machine_.program();
    UnitPlan plan;
    plan.count = count;
    Footprint& fp = plan.footprint;
    enum : std::uint32_t { kCommit = 1, kBranchResolve = 2, kVectorLasts = 0b11110, kVsetvli = 8,
                           kVectorWritten = 0b10100 };
    const auto read_last = [&fp](std::uint32_t bits) { fp.last_read |= bits & ~fp.last_written; };
    std::array<std::uint16_t, isa::kNumVRegs> writer{};  // per vreg: the op that last wrote it
    for (std::uint32_t i = 0; i < count; ++i) {
      const Kind kind = kinds_[slot + i];
      const SlotUse use =
          slot_use(program.decoded()[slot + i], program.static_info()[slot + i], kind);
      fp.x_read |= use.x_read & ~fp.x_written;
      fp.f_read |= use.f_read & ~fp.f_written;
      fp.v_read |= use.v_read & ~fp.v_written;
      read_last(kCommit);
      if (kind >= Kind::kFirstVector) {
        read_last(kVectorLasts);
        fp.last_written |= kVectorWritten;
        ++fp.claims[2];
        plan.vector = true;
      }
      const auto input = [&] {
        const isa::StaticInstInfo& si = program.static_info()[slot + i];
        plan.inputs.push_back({static_cast<std::uint16_t>(i), kind, si.scalar_mem_bytes,
                               program.decoded()[slot + i].imm,
                               si.has(isa::kSiPackedIndex), fp.v_written,
                               static_cast<std::uint32_t>(plan.writers.size())});
        if (kind == Kind::kIndexMac || kind == Kind::kDualMac)
          for (std::uint32_t m = fp.v_written; m != 0; m &= m - 1)
            plan.writers.push_back(writer[std::countr_zero(m)]);
      };
      switch (kind) {
        case Kind::kLoadX:
        case Kind::kLoadF:
        case Kind::kStore:
          ++fp.claims[1];
          input();
          break;
        case Kind::kBranch:
        case Kind::kJump:
          if (kind == Kind::kBranch) {
            if (i + 1 != count) return plan;
            input();
          }
          read_last(kBranchResolve);
          fp.last_written |= kBranchResolve;
          break;
        case Kind::kVsetvli:
          fp.last_written |= kVsetvli;
          if (i + 1 != count) input();
          break;
        case Kind::kSsrCtl:
        case Kind::kSsrMac:
          return plan;
        case Kind::kIndexMac:
        case Kind::kDualMac:
          input();
          break;
        case Kind::kGather:
        case Kind::kVLoad:
          ++fp.claims[3];
          break;
        case Kind::kVStore:
          ++fp.claims[4];
          break;
        default:
          break;
      }
      fp.x_written |= use.x_write;
      fp.f_written |= use.f_write;
      fp.v_written |= use.v_write;
      if (use.v_write != 0) writer[std::countr_zero(use.v_write)] = static_cast<std::uint16_t>(i);
    }
    fp.last_written |= kCommit;
    fp.claims[0] = count;
    plan.keyable = true;
    return plan;
  }

  /// Writes what the pipeline reads of the unit's recorded values: the vl
  /// it starts with and each vsetvli's result, each indirect VRF row's
  /// ready time, the last op's branch outcome and, per scalar load, which
  /// in-flight stores it overlaps. Gathers the unit's stores and the
  /// store-ring slots its loads read. Marker ids are static, so the slot
  /// covers them; vl changes only at vsetvli.
  bool encode_inputs(const TraceUnit& unit, const UnitPlan& plan, std::uint16_t*& out) {
    unit_stores_.clear();
    constexpr std::size_t kRing = std::tuple_size_v<decltype(store_ring_)>;
    // The in-flight stores span [lo, hi): a load outside it overlaps none,
    // which spares most loads the comparison with every ring entry.
    std::uint64_t lo = ~std::uint64_t{0};
    std::uint64_t hi = 0;
    bool spanned = false;
    std::array<PendingStore, kRing> ring;  // as the next load sees it, from the next slot on
    std::size_t ring_stores = kRing + 1;   // unit stores in `ring`; > kRing: not built
    bool fits = true;
    std::uint16_t* o = out;
    if (plan.vector) *o++ = static_cast<std::uint16_t>(unit.ops[0].vl);
    for (const UnitPlan::Input& in : plan.inputs) {
      const std::uint32_t i = in.op;
      const std::uint64_t rs1 = unit.ops[i].rs1;
      switch (in.kind) {
        case Kind::kLoadX:
        case Kind::kLoadF:
        case Kind::kStore: {
          if (!spanned) {
            for (const PendingStore& st : store_ring_)
              if (st.bytes != 0) {
                lo = std::min(lo, st.addr);
                hi = std::max(hi, st.addr + st.bytes);
              }
            spanned = true;
          }
          const std::uint64_t addr = rs1 + static_cast<std::int64_t>(in.imm);
          if (in.kind == Kind::kStore) {
            unit_stores_.push_back(PendingStore{addr, in.bytes, 0});
            lo = std::min(lo, addr);
            hi = std::max(hi, addr + in.bytes);
            break;
          }
          unsigned overlap = 0;
          if (addr < hi && lo < addr + in.bytes) {
            if (ring_stores > kRing) {
              const auto next = store_ring_.begin() + static_cast<std::ptrdiff_t>(store_ring_next_);
              std::copy(store_ring_.begin(), next,
                        std::copy(next, store_ring_.end(), ring.begin()));
              ring_stores = 0;
            }
            for (; ring_stores < unit_stores_.size(); ++ring_stores)
              ring[ring_stores % kRing] = unit_stores_[ring_stores];
            for (std::size_t j = 0; j < kRing; ++j)
              if (ring[j].bytes != 0 && addr < ring[j].addr + ring[j].bytes &&
                  ring[j].addr < addr + in.bytes)
                overlap |= 1u << j;
          }
          *o++ = static_cast<std::uint16_t>(overlap);
          footprint_.ring_read |= overlap;
          break;
        }
        case Kind::kBranch:
          *o++ = trace_.op(unit, i).taken();
          break;
        case Kind::kVsetvli:
          *o++ = static_cast<std::uint16_t>(unit.ops[i + 1].vl);
          break;
        default: {  // kIndexMac, kDualMac
          // The row read through x[rs1] (OpView::indirect_vreg) matters only
          // by its ready time: the unit's op that last wrote it, else its
          // entry value.
          const auto row_word = [&](unsigned row) {
            if ((in.v_written >> row) & 1)
              return 0x8000u | plan.writers[in.writers + static_cast<unsigned>(std::popcount(
                                                              in.v_written & ((1u << row) - 1)))];
            const std::uint64_t t = v_ready_[row];
            const std::uint64_t rel = t > anchor_ ? t - anchor_ : 0;
            fits &= rel < 0x8000;
            return static_cast<unsigned>(rel);
          };
          *o++ = static_cast<std::uint16_t>(
              row_word(in.packed ? 16u | (rs1 & 0xf) : static_cast<unsigned>(rs1 & 0x1f)));
          if (in.kind == Kind::kDualMac)
            *o++ = static_cast<std::uint16_t>(row_word(16u | ((rs1 >> 4) & 0xf)));
        }
      }
    }
    out = o;
    return fits;
  }


  /// The memory access of op `d` (gathers: of element `sub`) starting at
  /// `start`; returns its completion.
  std::uint64_t access(const OpView& d, Kind kind, std::uint32_t sub, std::uint64_t start) {
    switch (kind) {
      case Kind::kLoadX:
      case Kind::kLoadF:
        return mem_.scalar_data(d.mem_addr(), d.mem_bytes(), false, start);
      case Kind::kStore:
        return mem_.scalar_data(d.mem_addr(), d.mem_bytes(), true, start);
      case Kind::kGather:
        return mem_.vector_data(d.gather_addr(sub), 4, false, start);
      case Kind::kVLoad:
        return mem_.vector_data(d.mem_addr(), d.mem_bytes(), false, start);
      default:  // kVStore
        return mem_.vector_data(d.mem_addr(), d.mem_bytes(), true, start);
    }
  }

  /// The issue port's claim, logged while a unit is being recorded. A
  /// logged claim asks for a cycle at most half a window before every
  /// earlier grant, so the window's base, which the key leaves out, never
  /// clamps it: replaying the grants in order moves the window exactly as
  /// the claims did.
  template <bool kRecord>
  std::uint64_t claim_issue(std::uint64_t earliest) {
    if constexpr (!kRecord) return issue_ports_.claim(earliest);
    rec_fits_ &= earliest + issue_ports_.window() / 2 >= issue_ports_.last();
    const std::uint64_t cycle = issue_ports_.claim(earliest);
    rec_fits_ &= cycle - anchor_ <= 0xffff;
    rec_issues_.push_back(static_cast<std::uint16_t>(cycle - anchor_));
    return cycle;
  }

  /// The memory access of op `d` (gathers: of element `sub`) starting at
  /// `start`, as access() makes it; logged while a unit is being recorded.
  template <bool kRecord>
  std::uint64_t request(const OpView& d, Kind kind, std::uint32_t sub, std::uint64_t start) {
    if constexpr (!kRecord) return access(d, kind, sub, start);
    const std::uint64_t done =
        cursor_ < served_.size() ? served_[cursor_++] : access(d, kind, sub, start);
    rec_fits_ &= done - anchor_ <= 0xffff;  // start <= done
    rec_requests_.push_back(MemoRequest{static_cast<std::uint16_t>(cur_op_),
                                        static_cast<std::uint16_t>(sub),
                                        static_cast<std::uint16_t>(start - anchor_),
                                        static_cast<std::uint16_t>(done - anchor_)});
    return done;
  }

  // ---- per-instruction model ----

  template <bool kRecord>
  void process(const OpView& d, Kind kind) {
    // Front end: fetch slot (stalled after a mispredict), fixed depth to
    // dispatch, ROB entry must be free.
    const std::uint64_t fetch = fetch_ports_.claim(fetch_blocked_until_);
    std::uint64_t disp = rob_.available(fetch + kFrontendDepth);

    std::uint64_t ready = 0;  // ROB-completion cycle

    if (kind >= Kind::kFirstVector) {
      ready = process_vector<kRecord>(d, kind, disp);
      ++stats_.vector_instructions;
    } else {
      ready = process_scalar<kRecord>(d, kind, disp);
      ++stats_.scalar_instructions;
    }

    // In-order commit.
    const std::uint64_t commit = commit_ports_.claim(std::max(ready, last_commit_));
    last_commit_ = commit;
    rob_.claim(commit + 1);

    if (kind == Kind::kStore) {  // scalar stores write at commit
      const std::uint64_t addr = d.mem_addr();
      const std::uint32_t bytes = d.mem_bytes();
      (void)request<kRecord>(d, kind, 0, commit + 1);
      lsq_.claim(commit + 1);
      store_ring_[store_ring_next_] = PendingStore{addr, bytes, ready};
      store_ring_next_ = (store_ring_next_ + 1) % store_ring_.size();
    } else if (kind == Kind::kMarker && d.marker_id() >= 0 && (!kRecord || note_marker(commit))) {
      markers_.push_back(MarkerEvent{d.marker_id(), commit, committed_ + 1, mem_.stats()});
    }
    ++committed_;
    stats_.cycles = commit;
  }

  template <bool kRecord>
  std::uint64_t process_scalar(const OpView& d, Kind kind, std::uint64_t disp) {
    const std::uint64_t srcs = scalar_srcs(d);

    switch (kind) {
      case Kind::kLoadX:
      case Kind::kLoadF: {
        const std::uint64_t addr = d.mem_addr();
        const std::uint32_t bytes = d.mem_bytes();
        const std::uint64_t avail = lsq_.available(disp);
        const std::uint64_t issue = claim_issue<kRecord>(std::max(avail, srcs));
        std::uint64_t done = forward_from_stores(addr, bytes, issue);
        if (done == 0) done = request<kRecord>(d, kind, 0, issue + 1);
        lsq_.claim(done);
        if (kind == Kind::kLoadF)
          f_ready_[d.inst.rd] = done;
        else
          set_x(d.inst.rd, done);
        return done;
      }
      case Kind::kStore: {
        // The LSQ entry and the write are handled at commit.
        const std::uint64_t avail = lsq_.available(disp);
        const std::uint64_t issue = claim_issue<kRecord>(std::max(avail, srcs));
        return issue + 1;
      }
      case Kind::kBranch:
      case Kind::kJump: {
        const std::uint64_t issue = claim_issue<kRecord>(std::max(disp, srcs));
        const std::uint64_t resolve = issue + config_.scalar.alu_latency;
        // Static BTFNT predictor for conditional branches; direct jumps and
        // returns are assumed predicted (decode target / return stack).
        if (kind == Kind::kBranch) {
          const bool predicted_taken = d.inst.imm < 0;
          if (predicted_taken != d.taken()) {
            ++stats_.branch_mispredicts;
            fetch_blocked_until_ =
                std::max(fetch_blocked_until_, resolve + config_.scalar.mispredict_penalty);
          }
        }
        last_branch_resolve_ = std::max(last_branch_resolve_, resolve);
        if (kind == Kind::kJump) set_x(d.inst.rd, resolve);
        return resolve;
      }
      case Kind::kHalt:
      case Kind::kMarker:
        // Architectural no-ops: occupy a dispatch slot, complete immediately.
        return disp;
      case Kind::kSsrCtl: {
        // Stream control (ssrcfg/ssren): reprograms the address-generation
        // state machines. No x-register destination — the rd field names a
        // stream, not a register — and later streaming MACs must not issue
        // before the new stream state is visible engine-side.
        const std::uint64_t issue = claim_issue<kRecord>(std::max(disp, srcs));
        const std::uint64_t done = issue + config_.scalar.alu_latency;
        last_ssr_ctl_done_ = std::max(last_ssr_ctl_done_, done);
        // Drop buffered lines only for the streams this op reprograms
        // (OpView::ssr_ctl_mask): configuring or re-enabling a stream moves
        // its address generator, so the held line must be refetched, but
        // setup traffic on the *other* streams must not flush lines an
        // active stream is still amortizing pops against.
        const std::uint8_t mask = d.ssr_ctl_mask();
        for (unsigned s = 0; s < ssr_line_valid_.size(); ++s)
          if ((mask >> s) & 1) ssr_line_valid_[s] = false;
        return done;
      }
      default: {
        // Plain ALU work (incl. vsetvli, which computes vl on the scalar side).
        const std::uint64_t issue = claim_issue<kRecord>(std::max(disp, srcs));
        const unsigned latency =
            kind == Kind::kMul ? config_.scalar.mul_latency : config_.scalar.alu_latency;
        const std::uint64_t done = issue + latency;
        set_x(d.inst.rd, done);
        if (kind == Kind::kVsetvli) last_vsetvli_done_ = done;
        return done;
      }
    }
  }

  template <bool kRecord>
  std::uint64_t process_vector(const OpView& d, Kind kind, std::uint64_t disp) {
    const VectorEngineConfig& vc = config_.vector;

    // Dispatch to the engine: in program order, squash-free (all older
    // branches resolved), scalar operands and the governing vl available,
    // and a vector-queue slot free. One vector instruction per cycle.
    // Attribute the wait to its binding constraint for the stall breakdown.
    std::uint64_t operand_ready = std::max(scalar_srcs(d), last_vsetvli_done_);
    if (kind == Kind::kSsrMac) operand_ready = std::max(operand_ready, last_ssr_ctl_done_);
    std::uint64_t send =
        std::max({disp, operand_ready, last_branch_resolve_, last_vector_send_ + 1});
    const std::uint64_t queue_ready = viq_.available(send);
    if (send > disp) {
      VectorDispatchStalls& st = stats_.dispatch_stalls;
      if (send == operand_ready && operand_ready > disp)
        st.scalar_operand += send - disp;
      else if (send == last_branch_resolve_ && last_branch_resolve_ > disp)
        st.branch_shadow += send - disp;
      else
        st.bandwidth += send - disp;
    }
    stats_.dispatch_stalls.queue_full += queue_ready - send;
    send = queue_ready;
    last_vector_send_ = send;

    // Engine-side in-order issue with register-granular scoreboarding; the
    // per-op source sets are predecoded into StaticInstInfo::vreg_reads.
    const std::uint8_t vreads = d.info.vreg_reads;
    std::uint64_t deps = 0;
    if (vreads & isa::kVReadRd) deps = std::max(deps, v_ready_[d.inst.rd]);
    if (vreads & isa::kVReadRs1) deps = std::max(deps, v_ready_[d.inst.rs1]);
    if (vreads & isa::kVReadRs2) deps = std::max(deps, v_ready_[d.inst.rs2]);
    if (kind == Kind::kIndexMac || kind == Kind::kDualMac) {
      deps = std::max(deps, v_ready_[d.indirect_vreg()]);  // the indirect VRF read
      if (kind == Kind::kDualMac) deps = std::max(deps, v_ready_[d.indirect_vreg2()]);
    } else if (kind == Kind::kSsrMac) {
      deps = std::max(deps, v_ready_[d.indirect_vreg()]);  // stream-resolved VRF read
      // Each stream fronts memory with a one-line (64 B) buffer: only a
      // line crossing costs a vector-load access, so sequential streaming
      // amortizes one fetch over 16 pops per stream.
      const std::uint64_t addrs[2] = {d.ssr.value_addr, d.ssr.index_addr};
      for (unsigned s = 0; s < 2; ++s) {
        const std::uint64_t line = addrs[s] & ~std::uint64_t{63};
        if (ssr_line_valid_[s] && ssr_line_[s] == line) {
          deps = std::max(deps, ssr_line_ready_[s]);
          continue;
        }
        const std::uint64_t start = vlq_.available(send + vc.dispatch_latency);
        const std::uint64_t done = mem_.vector_data(line, 64, false, start + 1);
        vlq_.claim(done);
        ++stats_.vector_loads;
        ssr_line_[s] = line;
        ssr_line_valid_[s] = true;
        ssr_line_ready_[s] = done;
        deps = std::max(deps, done);
      }
    }

    const std::uint64_t occupancy = occupancy_[d.vl];
    std::uint64_t e_issue = std::max({send + vc.dispatch_latency, engine_next_issue_, deps});

    std::uint64_t ready_for_rob = send;    // most vector ops complete at send
    std::uint64_t engine_ops = occupancy;  // lane time the engine is busy for

    switch (kind) {
      case Kind::kGather: {
        // One element access per address, a few addresses per cycle.
        e_issue = std::max(e_issue, vlq_.available(e_issue));
        std::uint64_t done = e_issue + 1;
        for (std::uint32_t i = 0; i < d.vl; ++i) {
          const std::uint64_t start = e_issue + 1 + gather_slot_[i];
          done = std::max(done, request<kRecord>(d, kind, i, start));
        }
        vlq_.claim(done);
        v_ready_[d.inst.rd] = done;
        ++stats_.vector_loads;
        engine_next_issue_ = e_issue + gather_occupancy_[d.vl];
        viq_.claim(e_issue);
        return ready_for_rob;
      }
      case Kind::kVLoad: {
        e_issue = std::max(e_issue, vlq_.available(e_issue));
        const std::uint32_t bytes = d.mem_bytes();
        const std::uint64_t done =
            bytes == 0 ? e_issue + 1 : request<kRecord>(d, kind, 0, e_issue + 1);
        vlq_.claim(done);
        v_ready_[d.inst.rd] = done;
        ++stats_.vector_loads;
        break;
      }
      case Kind::kVStore: {
        e_issue = std::max(e_issue, vsq_.available(e_issue));
        const std::uint32_t bytes = d.mem_bytes();
        const std::uint64_t done =
            bytes == 0 ? e_issue + 1 : request<kRecord>(d, kind, 0, e_issue + 1);
        vsq_.claim(done);
        ++stats_.vector_stores;
        break;
      }
      case Kind::kToX:
      case Kind::kToF: {
        const std::uint64_t returned = e_issue + vc.move_latency + vc.to_scalar_latency;
        if (kind == Kind::kToX)
          set_x(d.inst.rd, returned);
        else
          f_ready_[d.inst.rd] = returned;
        ready_for_rob = returned;  // commits only once the value is back
        ++stats_.vector_to_scalar_moves;
        break;
      }
      default: {
        const unsigned latency = vlat_cycles_[static_cast<int>(d.info.vlat)];
        if (kind == Kind::kDualMac) {
          // Dual-row MACs run two back-to-back operations through the MAC
          // pipeline: the second starts one occupancy slice after the first,
          // so the accumulator is ready one slice later and the engine stays
          // busy for two operations' worth of lane time — while costing a
          // single dispatch and a single queue slot.
          stats_.vector_macs += 2;
          v_ready_[d.inst.rd] = e_issue + latency + occupancy;
          engine_ops = 2 * occupancy;
        } else {
          if (kind != Kind::kVAlu) ++stats_.vector_macs;
          v_ready_[d.inst.rd] = e_issue + latency;
        }
      }
    }

    engine_next_issue_ = e_issue + engine_ops;
    viq_.claim(e_issue);  // the queue slot frees when the engine issues
    return ready_for_rob;
  }

  ProcessorConfig config_;
  Machine machine_;
  TraceSource trace_;
  MemorySystem mem_;
  InOrderPorts fetch_ports_;   ///< requests fetch_blocked_until_, which only grows
  PortScheduler issue_ports_;  ///< out-of-order requests
  InOrderPorts commit_ports_;  ///< in order, at or after the last commit
  SlotPool rob_;
  SlotPool lsq_;
  SlotPool viq_;
  SlotPool vlq_;
  SlotPool vsq_;

  std::array<std::uint64_t, isa::kNumXRegs> x_ready_{};
  std::array<std::uint64_t, isa::kNumFRegs> f_ready_{};
  std::array<std::uint64_t, isa::kNumVRegs> v_ready_{};
  std::array<PendingStore, 16> store_ring_{};
  std::size_t store_ring_next_ = 0;

  /// Engine latency per isa::VLatClass, resolved from the config once.
  std::array<unsigned, static_cast<int>(isa::VLatClass::kCount)> vlat_cycles_{};
  /// Engine occupancy per vl: at `lanes`, and for gathers at `gather_lanes`.
  std::array<std::uint32_t, isa::kVlMax + 1> occupancy_{};
  std::array<std::uint32_t, isa::kVlMax + 1> gather_occupancy_{};
  /// Cycle offset, after issue, at which gather element i is addressed.
  std::array<std::uint32_t, isa::kVlMax> gather_slot_{};

  /// SSR stream-side line buffers (value stream 0, index stream 1): the
  /// last fetched 64-byte line and the cycle it becomes usable. Invalidated
  /// by stream-control ops, which reprogram the address generators.
  std::array<std::uint64_t, 2> ssr_line_{};
  std::array<bool, 2> ssr_line_valid_{};
  std::array<std::uint64_t, 2> ssr_line_ready_{};

  std::uint64_t fetch_blocked_until_ = 0;
  std::uint64_t last_commit_ = 0;
  std::uint64_t last_branch_resolve_ = 0;
  std::uint64_t last_vector_send_ = 0;
  std::uint64_t last_vsetvli_done_ = 0;
  std::uint64_t last_ssr_ctl_done_ = 0;
  std::uint64_t engine_next_issue_ = 0;
  std::uint64_t committed_ = 0;

  /// The slot-indexed timing path of every instruction of the program.
  std::vector<Kind> kinds_;

  // The unit memo and the scratch state of the unit being keyed.
  UnitMemo memo_;
  MemoStats memo_stats_;
  std::vector<bool> seen_;                 ///< per slot: a unit started there
  bool fetch_can_lag_ = false;             ///< commit is no wider than fetch
  std::uint64_t anchor_ = 0;               ///< the unit's anchor A (encode_key)
  std::uint64_t fetch_edge_ = 0;           ///< E: where the unit's first fetch starts
  unsigned fetch_used_ = 0;                ///< fetch ports already claimed at E
  std::uint32_t cur_op_ = 0;               ///< the op being timed, in its unit
  std::vector<std::uint16_t> key_;
  std::vector<std::uint16_t> exit_;
  Footprint footprint_;                    ///< the keyed unit's
  std::vector<std::int32_t> plan_of_;      ///< per slot: its plan in plans_, or -1
  std::vector<UnitPlan> plans_;
  std::size_t key_len_ = 0;                ///< words of key_ in use
  std::size_t exit_len_ = 0;               ///< words of exit_ in use
  std::vector<PendingStore> unit_stores_;  ///< the unit's stores, in order
  bool rec_fits_ = true;                   ///< the log's relative cycles fit their fields
  std::vector<MemoRequest> rec_requests_;
  std::vector<std::uint16_t> rec_issues_;  ///< granted issue cycles, relative
  std::vector<MemoMarker> rec_markers_;
  std::vector<std::uint64_t> served_;      ///< responses a failed replay got
  std::size_t cursor_ = 0;                 ///< served_ entries handed back so far
  /// Counted by value: a store through a reference could alias every
  /// std::uint64_t member above and force reloads after each count.
  TimingStats stats_;
  std::vector<MarkerEvent> markers_;
};

}  // namespace

TimingSim::TimingSim(const Program& program, MainMemory& memory, const ProcessorConfig& config,
                     ExecEngine /*engine: no effect, see timing_sim.h*/)
    : program_(program), memory_(memory), config_(config) {}

const TimingStats& TimingSim::run(std::uint64_t max_instructions) {
  IMAC_CHECK(!ran_, "TimingSim::run may only be called once per instance");
  ran_ = true;
  Model model(program_, memory_, config_);
  // The stats read after a throw are those the model had counted so far.
  try {
    model.run(max_instructions);
  } catch (...) {
    stats_ = model.stats();
    markers_ = std::move(model.markers());
    memo_stats_ = model.memo_stats();
    throw;
  }
  stats_ = model.stats();
  markers_ = std::move(model.markers());
  memo_stats_ = model.memo_stats();
  return stats_;
}

}  // namespace indexmac::timing
