#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace teamnet {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  TEAMNET_CHECK(!header_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  TEAMNET_CHECK_MSG(cells.size() == header_.size(),
                    "row has " << cells.size() << " cells, header has "
                               << header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int digits) {
  if (std::isnan(value)) return "-";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << row[c] << std::string(widths[c] - row[c].size(), ' ') << " |";
    }
    os << '\n';
  };
  auto emit_rule = [&] {
    os << "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << std::string(widths[c] + 2, '-') << "|";
    }
    os << '\n';
  };

  emit_row(header_);
  emit_rule();
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

}  // namespace teamnet
