#include "relation/printer.h"

#include <algorithm>

namespace codb {

namespace {

std::string Rule(const std::vector<size_t>& widths) {
  std::string out = "+";
  for (size_t w : widths) {
    out.append(w + 2, '-');
    out += "+";
  }
  out += "\n";
  return out;
}

std::string Row(const std::vector<std::string>& cells,
                const std::vector<size_t>& widths) {
  std::string out = "|";
  for (size_t i = 0; i < cells.size(); ++i) {
    out += " " + cells[i];
    out.append(widths[i] - cells[i].size() + 1, ' ');
    out += "|";
  }
  out += "\n";
  return out;
}

}  // namespace

std::string FormatTable(const std::vector<std::string>& header,
                        const std::vector<Tuple>& rows) {
  std::vector<size_t> widths(header.size());
  for (size_t i = 0; i < header.size(); ++i) widths[i] = header[i].size();

  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows.size());
  for (const Tuple& t : rows) {
    std::vector<std::string> row;
    row.reserve(header.size());
    for (int i = 0; i < t.arity(); ++i) {
      std::string s = t.at(i).ToString();
      size_t col = static_cast<size_t>(i);
      if (col < widths.size()) widths[col] = std::max(widths[col], s.size());
      row.push_back(std::move(s));
    }
    cells.push_back(std::move(row));
  }

  std::string out = Rule(widths);
  out += Row(header, widths);
  out += Rule(widths);
  for (const auto& row : cells) out += Row(row, widths);
  out += Rule(widths);
  return out;
}

std::string FormatRelation(const Relation& relation) {
  std::vector<std::string> header;
  for (const Attribute& a : relation.schema().attributes()) {
    header.push_back(a.name);
  }
  const RowStore& rows = relation.rows();
  return relation.schema().name() + "\n" +
         FormatTable(header, std::vector<Tuple>(rows.begin(), rows.end()));
}

}  // namespace codb
