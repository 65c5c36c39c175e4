// Plain-text table printer used by the benchmark harness to emit rows in the
// same layout as the paper's tables (metric rows × approach columns).
#pragma once

#include <string>
#include <vector>

namespace teamnet {

/// Accumulates cells and renders an aligned ASCII table.
///
///   Table t({"", "Baseline", "TeamNet"});
///   t.add_row({"Accuracy (%)", "98.8", "98.7"});
///   std::cout << t.to_string();
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends one row; must have the same number of cells as the header.
  void add_row(std::vector<std::string> cells);

  /// Formats a double with `digits` decimals (helper for numeric cells).
  static std::string num(double value, int digits = 1);

  std::string to_string() const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace teamnet
