#include "asm/text_assembler.h"

#include <cctype>
#include <optional>
#include <sstream>
#include <vector>

#include "asm/assembler.h"
#include "common/error.h"
#include "isa/op_table.h"

namespace indexmac {
namespace {

using isa::Op;

struct Operand {
  enum class Kind { kXReg, kFReg, kVReg, kImm, kMem, kSymbol } kind;
  unsigned reg = 0;       // kXReg/kFReg/kVReg; base register for kMem
  std::int64_t imm = 0;   // kImm; offset for kMem
  std::string symbol;     // kSymbol
};

std::optional<unsigned> parse_xreg_name(const std::string& t) {
  static const std::map<std::string, unsigned> kAbi = {
      {"zero", 0}, {"ra", 1},  {"sp", 2},   {"gp", 3},   {"tp", 4},  {"t0", 5},  {"t1", 6},
      {"t2", 7},   {"s0", 8},  {"fp", 8},   {"s1", 9},   {"a0", 10}, {"a1", 11}, {"a2", 12},
      {"a3", 13},  {"a4", 14}, {"a5", 15},  {"a6", 16},  {"a7", 17}, {"s2", 18}, {"s3", 19},
      {"s4", 20},  {"s5", 21}, {"s6", 22},  {"s7", 23},  {"s8", 24}, {"s9", 25}, {"s10", 26},
      {"s11", 27}, {"t3", 28}, {"t4", 29},  {"t5", 30},  {"t6", 31}};
  if (auto it = kAbi.find(t); it != kAbi.end()) return it->second;
  if (t.size() >= 2 && t[0] == 'x') {
    unsigned n = 0;
    for (std::size_t i = 1; i < t.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(t[i]))) return std::nullopt;
      n = n * 10 + static_cast<unsigned>(t[i] - '0');
    }
    if (n < 32) return n;
  }
  return std::nullopt;
}

std::optional<unsigned> parse_prefixed_reg(const std::string& t, char prefix) {
  if (t.size() < 2 || t[0] != prefix) return std::nullopt;
  unsigned n = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(t[i]))) return std::nullopt;
    n = n * 10 + static_cast<unsigned>(t[i] - '0');
  }
  if (n < 32) return n;
  return std::nullopt;
}

std::optional<std::int64_t> parse_int(const std::string& t) {
  if (t.empty()) return std::nullopt;
  std::size_t i = 0;
  bool neg = false;
  if (t[0] == '-' || t[0] == '+') {
    neg = t[0] == '-';
    i = 1;
  }
  if (i >= t.size()) return std::nullopt;
  int base = 10;
  if (t.size() - i > 2 && t[i] == '0' && (t[i + 1] == 'x' || t[i + 1] == 'X')) {
    base = 16;
    i += 2;
  }
  std::int64_t value = 0;
  for (; i < t.size(); ++i) {
    const char c = static_cast<char>(std::tolower(static_cast<unsigned char>(t[i])));
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (base == 16 && c >= 'a' && c <= 'f') digit = 10 + (c - 'a');
    else return std::nullopt;
    value = value * base + digit;
  }
  return neg ? -value : value;
}

/// Splits "off(reg)" into offset text and register text.
std::optional<std::pair<std::string, std::string>> split_mem(const std::string& t) {
  const std::size_t open = t.find('(');
  if (open == std::string::npos || t.back() != ')') return std::nullopt;
  return std::make_pair(t.substr(0, open), t.substr(open + 1, t.size() - open - 2));
}

class Parser {
 public:
  explicit Parser(std::uint64_t base) : base_(base) {}

  void parse_line(const std::string& raw, int line_no) {
    line_no_ = line_no;
    std::string line = strip_comment(raw);
    // Handle one optional "label:" prefix, then an optional instruction.
    std::size_t colon = line.find(':');
    if (colon != std::string::npos && line.find('"') == std::string::npos) {
      const std::string name = trim(line.substr(0, colon));
      fail_if(name.empty(), "empty label name");
      bind_label(name);
      line = line.substr(colon + 1);
    }
    line = trim(line);
    if (line.empty()) return;
    parse_instruction(line);
  }

  AssembledText finish() {
    Program p = asm_.finish(base_);
    std::map<std::string, std::uint64_t> symbols;
    for (const auto& [name, info] : labels_) {
      fail_if(!info.bound, "label '" + name + "' used but never defined");
      symbols[name] = p.base() + 4 * info.position;
    }
    return AssembledText{std::move(p), std::move(symbols)};
  }

 private:
  struct LabelInfo {
    Assembler::Label label;
    bool bound = false;
    std::size_t position = 0;
  };

  [[noreturn]] void fail(const std::string& msg) const {
    raise("asm line " + std::to_string(line_no_) + ": " + msg);
  }
  void fail_if(bool cond, const std::string& msg) const {
    if (cond) fail(msg);
  }

  static std::string strip_comment(std::string line) {
    for (const std::string sep : {"#", "//"}) {
      if (const std::size_t p = line.find(sep); p != std::string::npos) line = line.substr(0, p);
    }
    return line;
  }

  static std::string trim(const std::string& s) {
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
  }

  LabelInfo& label(const std::string& name) {
    auto it = labels_.find(name);
    if (it == labels_.end())
      it = labels_.emplace(name, LabelInfo{asm_.new_label(), false, 0}).first;
    return it->second;
  }

  void bind_label(const std::string& name) {
    LabelInfo& info = label(name);
    fail_if(info.bound, "label '" + name + "' defined twice");
    info.bound = true;
    info.position = asm_.size();
    asm_.bind(info.label);
  }

  Operand parse_operand(const std::string& t) {
    if (auto mem = split_mem(t)) {
      auto reg = parse_xreg_name(trim(mem->second));
      fail_if(!reg, "bad base register in '" + t + "'");
      std::int64_t off = 0;
      const std::string off_text = trim(mem->first);
      if (!off_text.empty()) {
        auto o = parse_int(off_text);
        fail_if(!o, "bad memory offset in '" + t + "'");
        off = *o;
      }
      return Operand{Operand::Kind::kMem, *reg, off, {}};
    }
    if (auto r = parse_xreg_name(t)) return Operand{Operand::Kind::kXReg, *r, 0, {}};
    if (auto r = parse_prefixed_reg(t, 'f')) return Operand{Operand::Kind::kFReg, *r, 0, {}};
    if (auto r = parse_prefixed_reg(t, 'v')) return Operand{Operand::Kind::kVReg, *r, 0, {}};
    if (auto i = parse_int(t)) return Operand{Operand::Kind::kImm, 0, *i, {}};
    fail_if(t.empty(), "empty operand");
    return Operand{Operand::Kind::kSymbol, 0, 0, t};
  }

  /// The register (or the base register of a memory operand) of `o`.
  std::uint8_t reg(const Operand& o, Operand::Kind kind, const char* expected) const {
    fail_if(o.kind != kind, std::string("expected ") + expected);
    return static_cast<std::uint8_t>(o.reg);
  }
  XReg xop(const Operand& o) const { return x(reg(o, Operand::Kind::kXReg, "x register")); }
  std::int32_t iop(const Operand& o) const {
    fail_if(o.kind != Operand::Kind::kImm, "expected immediate");
    return int32(o.imm);
  }
  std::int32_t int32(std::int64_t value) const {
    fail_if(value < INT32_MIN || value > INT32_MAX, "immediate out of 32-bit range");
    return static_cast<std::int32_t>(value);
  }
  Assembler::Label target(const Operand& o) {
    fail_if(o.kind != Operand::Kind::kSymbol, "expected label operand");
    return label(o.symbol).label;
  }

  void parse_instruction(const std::string& text) {
    std::size_t sp = text.find_first_of(" \t");
    const std::string mnem = text.substr(0, sp);
    std::vector<Operand> ops;
    if (sp != std::string::npos) {
      std::string rest = text.substr(sp);
      std::string cur;
      std::istringstream ss(rest);
      while (std::getline(ss, cur, ',')) {
        cur = trim(cur);
        if (!cur.empty()) ops.push_back(parse_operand(cur));
      }
    }
    if (!pseudo(mnem, ops)) assemble(mnem, ops);
  }

  void expect(std::size_t want, std::size_t got) const {
    fail_if(want != got, "expected " + std::to_string(want) + " operands, got " +
                             std::to_string(got));
  }

  /// Expands the four pseudo-instructions; false when `m` is none of them.
  bool pseudo(const std::string& m, const std::vector<Operand>& o) {
    if (m == "li") { expect(2, o.size()); asm_.li(xop(o[0]), iop(o[1])); return true; }
    if (m == "mv") { expect(2, o.size()); asm_.mv(xop(o[0]), xop(o[1])); return true; }
    if (m == "nop") { expect(0, o.size()); asm_.nop(); return true; }
    if (m == "j") { expect(1, o.size()); asm_.j(target(o[0])); return true; }
    return false;
  }

  /// Fills the fields of a table op from its operands in the row's syntax,
  /// checks them with the encoder, and emits the instruction.
  void assemble(const std::string& m, const std::vector<Operand>& o) {
    using isa::Slot;
    const Op op = isa::find_op(m);
    fail_if(op == Op::kIllegal, "unknown mnemonic '" + m + "'");
    const isa::Syntax& syntax = isa::op_info(op).syntax;
    std::size_t arity = 0;
    while (arity < syntax.size() && syntax[arity].slot != Slot::kNone) ++arity;
    expect(arity, o.size());

    isa::Instruction inst{op};
    std::optional<Assembler::Label> label_target;
    for (std::size_t i = 0; i < arity; ++i) {
      const isa::Arg arg = syntax[i];
      std::uint8_t& field = isa::field(inst, arg.field);
      switch (arg.slot) {
        case Slot::kX: field = reg(o[i], Operand::Kind::kXReg, "x register"); break;
        case Slot::kF: field = reg(o[i], Operand::Kind::kFReg, "f register"); break;
        case Slot::kV: field = reg(o[i], Operand::Kind::kVReg, "v register"); break;
        case Slot::kImm: inst.imm = iop(o[i]); break;
        case Slot::kMem:
          field = reg(o[i], Operand::Kind::kMem, "mem operand 'off(reg)'");
          inst.imm = int32(o[i].imm);
          break;
        case Slot::kVMem:
          field = reg(o[i], Operand::Kind::kMem, "mem operand '(reg)'");
          fail_if(o[i].imm != 0, m + " takes a plain '(reg)' address, not an offset");
          break;
        case Slot::kTarget: label_target = target(o[i]); break;
        case Slot::kStream: {
          const std::int32_t id = iop(o[i]);
          fail_if(id < 0 || id > 31, "stream id out of range");
          field = static_cast<std::uint8_t>(id);
          break;
        }
        case Slot::kVtype:
          // "e32m1" or its numeric vtype, the form disassemble() prints.
          fail_if(o[i].kind == Operand::Kind::kSymbol ? o[i].symbol != "e32m1"
                                                      : iop(o[i]) != isa::kVtypeE32M1,
                  "only e32m1 vtype is supported");
          inst.imm = isa::kVtypeE32M1;
          break;
        case Slot::kNone: break;
      }
    }
    try {
      (void)isa::encode(inst);  // range checks, reported against this line
    } catch (const SimError& e) {
      fail(e.what());
    }
    if (label_target) asm_.emit(inst, *label_target);
    else asm_.emit(inst);
  }

  std::uint64_t base_;
  int line_no_ = 0;
  Assembler asm_;
  std::map<std::string, LabelInfo> labels_;
};

}  // namespace

AssembledText assemble_text(const std::string& source, std::uint64_t base) {
  Parser parser(base);
  std::istringstream ss(source);
  std::string line;
  int line_no = 0;
  while (std::getline(ss, line)) parser.parse_line(line, ++line_no);
  return parser.finish();
}

std::string program_to_source(const Program& program) {
  // PC-relative instructions (branches, and the jump without a base
  // register) carry their target as a byte offset; collect the absolute
  // targets and name them in address order.
  const std::vector<isa::Instruction>& decoded = program.decoded();
  std::vector<bool> pc_relative(decoded.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    const isa::StaticInstInfo& si = program.static_info()[i];
    pc_relative[i] = si.has(isa::kSiBranch) || (si.has(isa::kSiJump) && !si.has(isa::kSiReadsXRs1));
  }
  std::map<std::uint64_t, unsigned> labels;  // target address -> label number
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (!pc_relative[i]) continue;
    const std::uint64_t target =
        program.base() + 4 * i + static_cast<std::uint64_t>(static_cast<std::int64_t>(decoded[i].imm));
    IMAC_CHECK(target >= program.base() && target <= program.end() && (target & 3) == 0,
               "program_to_source: branch target outside the program");
    labels.emplace(target, 0);
  }
  unsigned n = 0;
  for (auto& [addr, number] : labels) number = n++;
  const auto label_name = [](unsigned number) {
    std::string name = "L";
    name += std::to_string(number);
    return name;
  };

  std::string out;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    const std::uint64_t pc = program.base() + 4 * i;
    if (const auto it = labels.find(pc); it != labels.end())
      out += label_name(it->second) + ":\n";
    std::string line = isa::disassemble(decoded[i]);
    if (pc_relative[i]) {
      // The offset is always the trailing operand; swap it for the label.
      const std::uint64_t target =
          pc + static_cast<std::uint64_t>(static_cast<std::int64_t>(decoded[i].imm));
      line = line.substr(0, line.rfind(' ') + 1) + label_name(labels.at(target));
    }
    out += "  " + line + "\n";
  }
  // A branch may target the address just past the last instruction.
  if (const auto it = labels.find(program.end()); it != labels.end())
    out += label_name(it->second) + ":\n";
  return out;
}

}  // namespace indexmac
