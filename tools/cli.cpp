#include "cli.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "common/error.h"
#include "common/format.h"

namespace indexmac::cli {
namespace {

constexpr std::size_t kWidth = 78;

/// Prints `text` word-wrapped at kWidth, the cursor standing at column
/// `indent`, where continuation lines start too.
void put_wrapped(std::FILE* out, std::string_view text, std::size_t indent) {
  std::size_t col = indent;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t end = text.find(' ', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view word = text.substr(pos, end - pos);
    pos = end + 1;
    if (word.empty()) continue;
    if (col > indent && col + 1 + word.size() > kWidth) {
      std::fprintf(out, "\n%*s", static_cast<int>(indent), "");
      col = indent;
    } else if (col > indent) {
      std::fputc(' ', out);
      ++col;
    }
    std::fwrite(word.data(), 1, word.size(), out);
    col += word.size();
  }
  std::fputc('\n', out);
}

const Flag* find_flag(const Command& command, const char* name) {
  for (const Flag& f : command.flags)
    if (std::strcmp(f.name, name) == 0) return &f;
  return nullptr;
}

std::string label(const Flag& flag) {
  std::string text = flag.name;
  if (flag.value != nullptr) text += std::string(" ") + flag.value;
  if (flag.repeats) text += "...";
  return text;
}

}  // namespace

Args::Args(const Command& command, int argc, char** argv) : command_(command) {
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] != '-') {
      if (operands_.size() == command.max_operands)
        throw UsageError(std::string("unexpected argument ") + arg);
      operands_.push_back(arg);
      continue;
    }
    const Flag* found = find_flag(command, arg);
    if (found == nullptr) throw UsageError(std::string("unknown flag ") + arg);
    if (!found->repeats && get(arg) != nullptr)
      throw UsageError(std::string(arg) + " given more than once");
    const char* value = "";
    if (found->value != nullptr) {
      if (i + 1 == argc || *argv[i + 1] == '\0')
        throw UsageError(std::string(arg) + " expects a value");
      value = argv[++i];
    }
    given_.emplace_back(found, value);
  }
}

const Flag& Args::row(const char* flag) const {
  const Flag* found = find_flag(command_, flag);
  IMAC_ASSERT(found != nullptr, std::string(command_.name) + " declares no flag " + flag);
  return *found;
}

const char* Args::get(const char* flag, const char* fallback) const {
  const Flag* wanted = &row(flag);
  const char* value = fallback;
  for (const auto& [f, v] : given_)
    if (f == wanted) value = v;
  return value;
}

std::vector<const char*> Args::all(const char* flag) const {
  const Flag* wanted = &row(flag);
  std::vector<const char*> values;
  for (const auto& [f, v] : given_)
    if (f == wanted) values.push_back(v);
  return values;
}

std::uint64_t Args::uint(const char* flag, std::uint64_t fallback, std::uint64_t max) const {
  const char* value = get(flag);
  return value == nullptr ? fallback : parse_uint(value, flag, max);
}

bool json_format(const Args& args) {
  const std::string_view format = args.get("--format", "csv");
  if (format != "csv" && format != "json")
    throw UsageError("unknown format " + std::string(format) + " (csv|json)");
  return format == "json";
}

bool wants_help(int argc, char** argv) {
  return std::any_of(argv + 1, argv + argc, [](std::string_view arg) {
    return arg == "--help" || arg == "-h";
  });
}

void print_help(std::FILE* out, const std::string& prog, const Command& command) {
  std::fprintf(out, "usage: %s%s%s%s\n\n", prog.c_str(), command.flags.empty() ? "" : " [flags]",
               *command.operands != '\0' ? " " : "", command.operands);
  for (std::string_view about = command.about; !about.empty();) {
    const std::size_t end = std::min(about.find('\n'), about.size());
    if (end == 0) std::fputc('\n', out);
    else put_wrapped(out, about.substr(0, end), 0);
    about.remove_prefix(std::min(end + 1, about.size()));
  }
  std::size_t width = std::strlen("-h, --help");
  for (const Flag& flag : command.flags) width = std::max(width, label(flag).size());
  const std::size_t col = width + 4;
  std::fprintf(out, "\nflags:\n");
  for (const Flag& flag : command.flags) {
    std::fprintf(out, "  %-*s", static_cast<int>(col - 2), label(flag).c_str());
    put_wrapped(out, flag.help, col);
  }
  std::fprintf(out, "  %-*s", static_cast<int>(col - 2), "-h, --help");
  put_wrapped(out, "show this help and exit", col);
}

int run(const Command& command, const std::string& prog, int argc, char** argv) {
  try {
    return command.handler(Args(command, argc, argv));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s: %s\n", prog.c_str(), e.what());
    return 2;
  } catch (const SimError& e) {
    std::fprintf(stderr, "%s: %s\n", prog.c_str(), e.what());
    return 1;
  }
}

}  // namespace indexmac::cli
