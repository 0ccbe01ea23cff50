// Table-driven command lines for imac_run and imac_serve.
//
// Each command is one Command row: its name, summary, operand synopsis,
// about text, flag rows and handler. Args checks argv against the rows and
// print_help renders them, so the flags --help documents (and, through
// tools/gen_cli_docs.py, docs/cli.md) are exactly the flags accepted.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace indexmac::cli {

struct Flag {
  const char* name;       ///< "--max-steps"
  const char* value;      ///< value placeholder ("N"), or nullptr for a switch
  const char* help;       ///< one line of prose; print_help word-wraps it
  bool repeats = false;   ///< may be given more than once (see Args::all)
};

class Args;

struct Command {
  const char* name;
  const char* summary;       ///< one line for imac_run's subcommand list
  const char* operands;      ///< operand synopsis for the usage line
  std::size_t max_operands;  ///< kMany for a list
  const char* about;         ///< prose; '\n' breaks a line, "\n\n" a paragraph
  std::span<const Flag> flags;
  int (*handler)(const Args&);  ///< returns the process exit code
};

inline constexpr std::size_t kMany = std::numeric_limits<std::size_t>::max();

/// argv checked against one command's flag rows.
class Args {
 public:
  /// Throws UsageError naming the argument on an unknown flag, a missing or
  /// empty value, a non-repeating flag given twice, or a surplus operand.
  Args(const Command& command, int argc, char** argv);

  [[nodiscard]] bool has(const char* flag) const { return get(flag) != nullptr; }
  /// The flag's (last) value, or `fallback` when it was not given.
  [[nodiscard]] const char* get(const char* flag, const char* fallback = nullptr) const;
  /// Every value of a repeating flag, in command-line order.
  [[nodiscard]] std::vector<const char*> all(const char* flag) const;
  /// The flag's value through parse_uint, or `fallback` when absent.
  [[nodiscard]] std::uint64_t uint(
      const char* flag, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  [[nodiscard]] const std::vector<const char*>& operands() const { return operands_; }

 private:
  /// The row of `flag`; a handler asking for an undeclared flag is a bug.
  [[nodiscard]] const Flag& row(const char* flag) const;

  const Command& command_;
  std::vector<std::pair<const Flag*, const char*>> given_;  ///< switches map to ""
  std::vector<const char*> operands_;
};

inline constexpr Flag kFormatFlag{"--format", "F", "report format: csv (default) | json"};

/// kFormatFlag's value: true for json; throws UsageError on anything else.
[[nodiscard]] bool json_format(const Args& args);

/// Whether any argument is --help or -h.
[[nodiscard]] bool wants_help(int argc, char** argv);

/// Prints `prog`'s usage line, about text and one line per flag.
void print_help(std::FILE* out, const std::string& prog, const Command& command);

/// Parses argv against `command` and calls its handler. A UsageError
/// exits 2 and any other SimError 1, each printed as "PROG: what".
[[nodiscard]] int run(const Command& command, const std::string& prog, int argc, char** argv);

}  // namespace indexmac::cli
