#include "server/wire.h"

#include <cstdint>

#include "util/digits.h"
#include "util/json.h"

namespace mview::server {
namespace {

// Decodes the JSON string whose opening quote has already been consumed
// (`pos` points at the first content character).  Returns false on a
// malformed escape or a missing closing quote.
bool DecodeJsonStringAt(const std::string& s, size_t pos, std::string* out) {
  while (pos < s.size()) {
    char c = s[pos];
    if (c == '"') return true;
    if (c != '\\') {
      out->push_back(c);
      ++pos;
      continue;
    }
    if (++pos >= s.size()) return false;
    switch (s[pos]) {
      case '"':
        out->push_back('"');
        break;
      case '\\':
        out->push_back('\\');
        break;
      case '/':
        out->push_back('/');
        break;
      case 'b':
        out->push_back('\b');
        break;
      case 'f':
        out->push_back('\f');
        break;
      case 'n':
        out->push_back('\n');
        break;
      case 'r':
        out->push_back('\r');
        break;
      case 't':
        out->push_back('\t');
        break;
      case 'u': {
        if (pos + 4 >= s.size()) return false;
        uint32_t cp = 0;
        for (int i = 1; i <= 4; ++i) {
          char h = s[pos + i];
          cp <<= 4;
          if (h >= '0' && h <= '9') {
            cp |= static_cast<uint32_t>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            cp |= static_cast<uint32_t>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            cp |= static_cast<uint32_t>(h - 'A' + 10);
          } else {
            return false;
          }
        }
        pos += 4;
        // Basic-plane codepoint to UTF-8 (the encoder only ever emits
        // \u00XX control characters, but decode the full plane anyway).
        if (cp < 0x80) {
          out->push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
          out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
          out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
        break;
      }
      default:
        return false;
    }
    ++pos;
  }
  return false;
}

// Finds `"key":"` and decodes the string value that follows; returns false
// when the key is absent or the value is malformed.
bool ExtractStringField(const std::string& line, const std::string& key,
                        std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  return DecodeJsonStringAt(line, pos + needle.size(), out);
}

// Finds `"key":` followed by a non-negative integer; 0 when absent.
int64_t ExtractIntField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return 0;
  pos += needle.size();
  int64_t value = 0;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    value = value * 10 + (line[pos] - '0');
    ++pos;
  }
  return value;
}

}  // namespace

std::string EncodeResponse(const Status& status, const sql::Result* result) {
  std::string out;
  if (status.ok) {
    out += "{\"ok\":true,";
    if (result != nullptr) {
      result->AppendJsonBody(&out);
    } else {
      out += "\"kind\":\"message\",\"message\":\"\"";
    }
    out += '}';
    return out;
  }
  out += "{\"ok\":false,\"kind\":\"";
  out += StatusKindName(status.kind);
  out += "\",\"message\":";
  out += util::JsonQuote(status.message);
  if (status.retry_after_ms > 0) {
    out += ",\"retry_after_ms\":";
    out += std::to_string(status.retry_after_ms);
  }
  out += '}';
  return out;
}

WireResponse ParseResponse(const std::string& line) {
  WireResponse response;
  response.raw = line;
  if (line.rfind("{\"ok\":true,", 0) == 0) {
    response.ok = true;
    response.kind = Status::Kind::kOk;
    return response;
  }
  if (line.rfind("{\"ok\":false,", 0) == 0) {
    std::string kind;
    if (ExtractStringField(line, "kind", &kind) &&
        ExtractStringField(line, "message", &response.message)) {
      response.kind = StatusKindFromName(kind);
      response.retry_after_ms = ExtractIntField(line, "retry_after_ms");
      return response;
    }
  }
  response.kind = Status::Kind::kInternal;
  response.message = "malformed wire response: " + line;
  return response;
}

std::string EncodeRequest(const std::string& sql, int64_t deadline_ms) {
  if (deadline_ms <= 0) return sql;
  return "@" + std::to_string(deadline_ms) + " " + sql;
}

std::string SplitRequestDeadline(const std::string& line,
                                 int64_t* deadline_ms) {
  *deadline_ms = 0;
  if (line.empty() || line[0] != '@') return line;
  size_t pos = 1;
  uint64_t magnitude = 0;
  int64_t ms = 0;
  // Require at least one digit, an int64 value and a following space;
  // anything else is statement text (SQL will reject it with a real parse
  // error).
  if (!util::ScanDigits(line, &pos, &magnitude) ||
      !util::SignedFromMagnitude(magnitude, false, &ms) || pos == 1 ||
      pos >= line.size() || line[pos] != ' ') {
    return line;
  }
  *deadline_ms = ms;
  return line.substr(pos + 1);
}

}  // namespace mview::server
