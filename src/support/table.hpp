// Plain-text table formatting used by the benchmark harness to print the
// rows/series corresponding to each table and figure of the paper.
#pragma once

#include <string>
#include <vector>

namespace tt {

/// Column-aligned ASCII table with a title, header row, and data rows.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Set the header row (defines the column count).
  Table& header(std::vector<std::string> cols);

  /// Append a data row; must match the header width.
  Table& row(std::vector<std::string> cells);

  /// Render the table to a string (markdown-ish pipe layout).
  std::string str() const;

  /// Render and print to stdout.
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (helper for Table cells).
std::string fmt(double v, int precision = 3);

/// Format a double in scientific notation.
std::string fmt_sci(double v, int precision = 2);

/// Format an integer with thousands separators ("32,768").
std::string fmt_int(long long v);

}  // namespace tt
