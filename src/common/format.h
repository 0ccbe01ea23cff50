// Minimal fixed-width table formatting used by benches and examples to print
// paper-style result tables without external dependencies.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace indexmac {

/// Accumulates rows of string cells and renders an aligned ASCII table.
class TextTable {
 public:
  /// Sets the header row; column count of all rows must match it.
  void set_header(std::vector<std::string> header);

  /// Appends a data row.
  void add_row(std::vector<std::string> row);

  /// Renders the table with a separator under the header.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimal places. Locale-independent: the
/// decimal separator is always '.', regardless of LC_NUMERIC — CSV/JSON
/// reports and golden byte-for-byte diffs must not drift on comma-decimal
/// locales (implemented on std::to_chars, never printf).
[[nodiscard]] std::string fmt_fixed(double v, int digits);

/// Shortest-form general formatting, equivalent to printf("%.*g") in the
/// C locale (std::to_chars, chars_format::general). Used for JSON number
/// emission.
[[nodiscard]] std::string fmt_general(double v, int precision);

/// Locale-independent full-string double parse (std::from_chars): the
/// whole of `text` must be one finite-syntax C-locale number. Throws
/// SimError naming `what` on empty, partial, or malformed input.
[[nodiscard]] double parse_double(const std::string& text, const char* what);

/// Strict full-string unsigned decimal parse: `text` must be digits only
/// (no sign, whitespace or suffix) and at most `max`. Throws UsageError
/// naming `what` and the bound otherwise.
[[nodiscard]] std::uint64_t parse_uint(
    const std::string& text, const char* what,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// The whole content of the file at `path`, read in binary mode. Throws
/// SimError "cannot open PATH" when it cannot be opened.
[[nodiscard]] std::string read_text_file(const std::string& path);

/// Writes `text` to the file at `path` in binary mode, so report bytes are
/// exact, or to stdout when `path` is empty. Throws SimError when the file
/// cannot be opened or the write comes up short (a full disk, a closed
/// pipe): a truncated report must never pass for a complete one.
void write_text_file(const std::string& path, const std::string& text);

/// Formats "1.95x"-style speedup cells.
[[nodiscard]] std::string fmt_speedup(double v);

/// Formats a large count with thousands separators ("12,345,678").
[[nodiscard]] std::string fmt_count(std::uint64_t v);

}  // namespace indexmac
