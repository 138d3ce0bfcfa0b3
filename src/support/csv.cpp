#include "tytra/support/csv.hpp"

#include <fstream>
#include <stdexcept>

#include "tytra/support/strings.hpp"

namespace tytra {

namespace {

std::string escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

CsvTable::CsvTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  if (header_.empty()) {
    throw std::invalid_argument("CsvTable: empty header");
  }
}

void CsvTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("CsvTable: row width " +
                                std::to_string(cells.size()) +
                                " does not match header width " +
                                std::to_string(header_.size()));
  }
  rows_.push_back(std::move(cells));
}

void CsvTable::add_row(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (const double v : values) cells.push_back(format_general(v, 6));
  add_row(std::move(cells));
}

std::string CsvTable::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i != 0) out += ',';
    out += escape(header_[i]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out += ',';
      out += escape(row[i]);
    }
    out += '\n';
  }
  return out;
}

bool CsvTable::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_string();
  return static_cast<bool>(out);
}

}  // namespace tytra
