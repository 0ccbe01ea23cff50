#include "timing/timing_sim.h"

#include <array>

#include "common/bitutil.h"
#include "common/error.h"
#include "fsim/machine.h"
#include "timing/port_scheduler.h"
#include "timing/trace.h"

namespace indexmac::timing {
namespace {

using isa::Op;

/// Fixed front-end depth between a fetch slot and rename/dispatch.
constexpr std::uint64_t kFrontendDepth = 4;

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
      const std::uint32_t take =
          unit.count <= left ? unit.count : static_cast<std::uint32_t>(left);
      for (std::uint32_t i = 0; i < take; ++i) process(trace_.op(unit, i), kinds_[unit.slot + i]);
      n += take;
      if (take < unit.count) budget_exhausted(max_instructions, trace_.pc_of(unit.slot + take));
      if (unit.halts()) {
        stats_.instructions = n;
        stats_.mem = mem_.stats();
        return;
      }
    }
  }

  [[nodiscard]] const TimingStats& stats() const { return stats_; }
  [[nodiscard]] std::vector<MarkerEvent>& markers() { return markers_; }

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

  // ---- per-instruction model ----

  void process(const OpView& d, Kind kind) {
    // Front end: fetch slot (stalled after a mispredict), fixed depth to
    // dispatch, ROB entry must be free.
    const std::uint64_t fetch = fetch_ports_.claim(fetch_blocked_until_);
    std::uint64_t disp = rob_.available(fetch + kFrontendDepth);

    std::uint64_t ready = 0;  // ROB-completion cycle

    if (kind >= Kind::kFirstVector) {
      ready = process_vector(d, kind, disp);
      ++stats_.vector_instructions;
    } else {
      ready = process_scalar(d, kind, disp);
      ++stats_.scalar_instructions;
    }

    // In-order commit.
    const std::uint64_t commit = commit_ports_.claim(std::max(ready, last_commit_));
    last_commit_ = commit;
    rob_.claim(commit + 1);

    if (kind == Kind::kStore) {  // scalar stores write at commit
      const std::uint64_t addr = d.mem_addr();
      const std::uint32_t bytes = d.mem_bytes();
      (void)mem_.scalar_data(addr, bytes, /*is_store=*/true, commit + 1);
      lsq_.claim(commit + 1);
      store_ring_[store_ring_next_] = PendingStore{addr, bytes, ready};
      store_ring_next_ = (store_ring_next_ + 1) % store_ring_.size();
    } else if (kind == Kind::kMarker && d.marker_id() >= 0) {
      markers_.push_back(MarkerEvent{d.marker_id(), commit, committed_ + 1, mem_.stats()});
    }
    ++committed_;
    stats_.cycles = commit;
  }

  std::uint64_t process_scalar(const OpView& d, Kind kind, std::uint64_t disp) {
    const std::uint64_t srcs = scalar_srcs(d);

    switch (kind) {
      case Kind::kLoadX:
      case Kind::kLoadF: {
        const std::uint64_t addr = d.mem_addr();
        const std::uint32_t bytes = d.mem_bytes();
        const std::uint64_t avail = lsq_.available(disp);
        const std::uint64_t issue = issue_ports_.claim(std::max(avail, srcs));
        std::uint64_t done = forward_from_stores(addr, bytes, issue);
        if (done == 0) done = mem_.scalar_data(addr, bytes, false, issue + 1);
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
        const std::uint64_t issue = issue_ports_.claim(std::max(avail, srcs));
        return issue + 1;
      }
      case Kind::kBranch:
      case Kind::kJump: {
        const std::uint64_t issue = issue_ports_.claim(std::max(disp, srcs));
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
        const std::uint64_t issue = issue_ports_.claim(std::max(disp, srcs));
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
        const std::uint64_t issue = issue_ports_.claim(std::max(disp, srcs));
        const unsigned latency =
            kind == Kind::kMul ? config_.scalar.mul_latency : config_.scalar.alu_latency;
        const std::uint64_t done = issue + latency;
        set_x(d.inst.rd, done);
        if (kind == Kind::kVsetvli) last_vsetvli_done_ = done;
        return done;
      }
    }
  }

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
          done = std::max(done, mem_.vector_data(d.gather_addr(i), 4, false, start));
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
            bytes == 0 ? e_issue + 1 : mem_.vector_data(d.mem_addr(), bytes, false, e_issue + 1);
        vlq_.claim(done);
        v_ready_[d.inst.rd] = done;
        ++stats_.vector_loads;
        break;
      }
      case Kind::kVStore: {
        e_issue = std::max(e_issue, vsq_.available(e_issue));
        const std::uint32_t bytes = d.mem_bytes();
        const std::uint64_t done =
            bytes == 0 ? e_issue + 1 : mem_.vector_data(d.mem_addr(), bytes, true, e_issue + 1);
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
    throw;
  }
  stats_ = model.stats();
  markers_ = std::move(model.markers());
  return stats_;
}

}  // namespace indexmac::timing
