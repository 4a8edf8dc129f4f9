#include "relational/csv.h"

#include <fstream>
#include <sstream>

#include "util/error.h"

namespace mview {
namespace {

bool NeedsQuoting(std::string_view s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

void AppendField(const Value& v, std::string* out) {
  if (v.type() == ValueType::kInt64) {
    out->append(std::to_string(v.AsInt64()));
    return;
  }
  std::string_view s = v.AsString();
  if (!NeedsQuoting(s)) {
    out->append(s);
    return;
  }
  out->push_back('"');
  for (char c : s) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

// Splits one CSV record into raw fields, honoring quoting.  Consumes
// additional lines when a quoted field spans a newline.
std::vector<std::string> SplitRecord(std::istream& in, std::string line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  size_t i = 0;
  while (true) {
    if (i >= line.size()) {
      if (in_quotes) {
        std::string next;
        MVIEW_CHECK(static_cast<bool>(std::getline(in, next)),
                    "unterminated quoted CSV field");
        current += '\n';
        line = next;
        i = 0;
        continue;
      }
      break;
    }
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // tolerate CRLF
    } else {
      current += c;
    }
    ++i;
  }
  fields.push_back(std::move(current));
  return fields;
}

int64_t ParseInt(const std::string& s) {
  MVIEW_CHECK(!s.empty(), "empty integer field in CSV");
  size_t pos = 0;
  int64_t value = 0;
  try {
    value = std::stoll(s, &pos);
  } catch (const std::exception&) {
    internal::ThrowError("bad integer in CSV: '", s, "'");
  }
  MVIEW_CHECK(pos == s.size(), "trailing junk in CSV integer: '", s, "'");
  return value;
}

Schema ParseHeader(std::istream& in, bool* counted) {
  std::string line;
  MVIEW_CHECK(static_cast<bool>(std::getline(in, line)), "empty CSV input");
  std::vector<std::string> fields = SplitRecord(in, std::move(line));
  *counted = !fields.empty() && fields.back() == "#count";
  if (*counted) fields.pop_back();
  std::vector<Attribute> attrs;
  for (const auto& f : fields) {
    size_t colon = f.rfind(':');
    MVIEW_CHECK(colon != std::string::npos,
                "CSV header field missing ':type': '", f, "'");
    std::string name = f.substr(0, colon);
    std::string type = f.substr(colon + 1);
    ValueType vt;
    if (type == "int64") {
      vt = ValueType::kInt64;
    } else if (type == "string") {
      vt = ValueType::kString;
    } else {
      internal::ThrowError("unknown CSV type: '", type, "'");
    }
    attrs.push_back({std::move(name), vt});
  }
  return Schema(std::move(attrs));
}

Tuple ParseTuple(const Schema& schema, const std::vector<std::string>& fields) {
  MVIEW_CHECK(fields.size() == schema.size(), "CSV row has ", fields.size(),
              " fields, expected ", schema.size());
  std::vector<Value> values;
  values.reserve(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema.attribute(i).type == ValueType::kInt64) {
      values.emplace_back(ParseInt(fields[i]));
    } else {
      values.emplace_back(fields[i]);
    }
  }
  return Tuple(std::move(values));
}

// The header line, with a trailing `#count` field when `counted`.
void AppendCsvHeader(const Schema& schema, bool counted, std::string* out) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(schema.attribute(i).name);
    out->push_back(':');
    out->append(ValueTypeName(schema.attribute(i).type));
  }
  if (counted) out->append(",#count");
  out->push_back('\n');
}

// One row line, with its count when `count` is non-null.
void AppendCsvRow(const Tuple& t, const int64_t* count, std::string* out) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendField(t.at(i), out);
  }
  if (count != nullptr) {
    out->push_back(',');
    out->append(std::to_string(*count));
  }
  out->push_back('\n');
}

}  // namespace

void WriteCsv(const Relation& relation, std::ostream& out) {
  std::string line;
  AppendCsvHeader(relation.schema(), /*counted=*/false, &line);
  out << line;
  for (const auto& t : relation.ToSortedVector()) {
    line.clear();
    AppendCsvRow(t, nullptr, &line);
    out << line;
  }
}

void WriteCsv(const CountedRelation& relation, std::ostream& out) {
  std::string line;
  AppendCsvHeader(relation.schema(), /*counted=*/true, &line);
  out << line;
  for (const auto& [t, c] : relation.ToSortedVector()) {
    line.clear();
    AppendCsvRow(t, &c, &line);
    out << line;
  }
}

Relation ReadCsv(std::istream& in) {
  bool counted = false;
  Schema schema = ParseHeader(in, &counted);
  MVIEW_CHECK(!counted, "a '#count' column marks a counted relation, which "
                        "cannot be read as a relation");
  Relation out(std::move(schema));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    out.Insert(ParseTuple(out.schema(), SplitRecord(in, std::move(line))));
  }
  return out;
}

void WriteCsvFile(const Relation& relation, const std::string& path) {
  std::ofstream out(path);
  MVIEW_CHECK(out.is_open(), "cannot open for writing: ", path);
  WriteCsv(relation, out);
}

Relation ReadCsvFile(const std::string& path) {
  std::ifstream in(path);
  MVIEW_CHECK(in.is_open(), "cannot open for reading: ", path);
  return ReadCsv(in);
}

}  // namespace mview
