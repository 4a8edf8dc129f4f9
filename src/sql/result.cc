#include "sql/result.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"
#include "util/json.h"

namespace mview::sql {

std::optional<size_t> Result::ColumnIndex(const std::string& name) const {
  return schema.IndexOf(name);
}

const Value& Result::ValueAt(size_t row, size_t col) const {
  MVIEW_CHECK(kind == Kind::kRows, "ValueAt on a message result");
  MVIEW_CHECK(row < rows.size(), "row ", row, " out of range (", rows.size(),
              " rows)");
  MVIEW_CHECK(col < schema.size(), "column ", col, " out of range (",
              schema.size(), " columns)");
  return rows[row].first.at(col);
}

const Tuple& Result::RowAt(size_t row) const {
  MVIEW_CHECK(kind == Kind::kRows, "RowAt on a message result");
  MVIEW_CHECK(row < rows.size(), "row ", row, " out of range (", rows.size(),
              " rows)");
  return rows[row].first;
}

int64_t Result::CountAt(size_t row) const {
  MVIEW_CHECK(kind == Kind::kRows, "CountAt on a message result");
  MVIEW_CHECK(row < rows.size(), "row ", row, " out of range (", rows.size(),
              " rows)");
  return rows[row].second;
}

std::string Result::ToString() const {
  if (kind == Kind::kMessage) return message + "\n";
  std::vector<std::string> headers;
  headers.reserve(schema.size());
  for (const auto& attr : schema.attributes()) headers.push_back(attr.name);
  std::vector<size_t> widths;
  for (const auto& h : headers) widths.push_back(h.size());
  std::vector<std::vector<std::string>> cells;
  bool any_dup = false;
  for (const auto& [tuple, count] : rows) {
    std::vector<std::string> row;
    for (size_t i = 0; i < tuple.size(); ++i) {
      const Value& v = tuple.at(i);
      row.push_back(v.type() == ValueType::kString
                         ? std::string(v.AsString())
                         : v.ToString());
      widths[i] = std::max(widths[i], row.back().size());
    }
    if (count != 1) any_dup = true;
    cells.push_back(std::move(row));
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      os << (i > 0 ? " | " : "") << row[i];
      if (i + 1 < row.size() || any_dup) {
        os << std::string(widths[i] - row[i].size(), ' ');
      }
    }
  };
  emit(headers);
  if (any_dup) os << " | #";
  os << "\n";
  size_t total = any_dup ? 4 : 0;
  for (size_t w : widths) total += w + 3;
  os << std::string(total > 3 ? total - 3 : total, '-') << "\n";
  for (size_t r = 0; r < cells.size(); ++r) {
    emit(cells[r]);
    if (any_dup) os << " | " << rows[r].second;
    os << "\n";
  }
  os << "(" << cells.size() << " row" << (cells.size() == 1 ? "" : "s")
     << ")\n";
  return os.str();
}

void Result::AppendJsonBody(std::string* out) const {
  if (kind == Kind::kMessage) {
    if (json_message) {
      *out += "\"kind\":\"json\",\"payload\":";
      *out += message.empty() ? "null" : message;
    } else {
      *out += "\"kind\":\"message\",\"message\":";
      *out += util::JsonQuote(message);
    }
    return;
  }
  *out += "\"kind\":\"rows\",\"columns\":[";
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) *out += ',';
    *out += util::JsonQuote(schema.attribute(i).name);
  }
  *out += "],\"types\":[";
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) *out += ',';
    *out += util::JsonQuote(ValueTypeName(schema.attribute(i).type));
  }
  *out += "],\"rows\":[";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) *out += ',';
    *out += '[';
    const Tuple& tuple = rows[r].first;
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) *out += ',';
      const Value& v = tuple.at(i);
      if (v.type() == ValueType::kString) {
        *out += util::JsonQuote(v.AsString());
      } else {
        *out += v.ToString();
      }
    }
    *out += ']';
  }
  *out += "],\"counts\":[";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) *out += ',';
    *out += std::to_string(rows[r].second);
  }
  *out += ']';
}

std::string Result::ToJson() const {
  std::string out;
  out += '{';
  AppendJsonBody(&out);
  out += '}';
  return out;
}

}  // namespace mview::sql
