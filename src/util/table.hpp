#pragma once
// Tabular output for the benchmark harness: the benches print
// paper-shaped rows both as aligned text (for the console) and CSV
// (for regenerating the paper tables; see docs/ARCHITECTURE.md).

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace wdag::util {

/// A cell is a string, an integer, or a double.
using Cell = std::variant<std::string, long long, double>;

/// Column-aligned results table with a title and header row.
class Table {
 public:
  Table(std::string title, std::vector<std::string> header);

  /// Appends a row; must have exactly as many cells as the header.
  void add_row(std::vector<Cell> row);

  /// Number of data rows.
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Renders as an aligned, boxed text table.
  [[nodiscard]] std::string to_text() const;

  /// Renders as CSV (header included, no title).
  [[nodiscard]] std::string to_csv() const;

  /// Renders as a GitHub-flavored markdown table.
  [[nodiscard]] std::string to_markdown() const;

  /// Renders as a JSON array of objects keyed by the header (one object
  /// per row, numbers unquoted) — the row format of the BENCH_*.json
  /// records tracked across PRs.
  [[nodiscard]] std::string to_json_rows() const;

  /// Convenience: stream the text rendering.
  friend std::ostream& operator<<(std::ostream& os, const Table& t);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
};

/// Formats a Cell as a display string (doubles with 4 significant digits
/// after the decimal point trimmed).
std::string cell_to_string(const Cell& c);

}  // namespace wdag::util
