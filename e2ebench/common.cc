#include "common.h"

#include <cstdio>
#include <fstream>

namespace e2e {

double Num(const Json& v, std::initializer_list<const char*> path) {
  const Json* at = &v;
  for (const char* key : path) {
    if (!at->Has(key)) return 0;
    at = &at->At(key);
  }
  return at->kind == Json::Kind::kNumber ? at->number : 0;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

size_t SpanLog::Count(const std::string& name) const {
  size_t n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

std::map<int64_t, double> SpanLog::ByRequest(const std::string& name) const {
  std::map<int64_t, double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out[s.request] += s.dur_us;
  }
  return out;
}

std::map<std::string, double> SpanLog::MedianSelfTimes() const {
  // child coverage per (request, parent name)
  std::map<std::pair<int64_t, std::string>, double> covered;
  for (const Span& s : spans_) {
    if (!s.parent.empty()) covered[{s.request, s.parent}] += s.dur_us;
  }
  std::map<std::string, std::vector<double>> self;
  for (const Span& s : spans_) {
    auto it = covered.find({s.request, s.name});
    double child = it == covered.end() ? 0 : it->second;
    self[s.name].push_back(s.dur_us - child);
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : self) out[name] = Median(v);
  return out;
}

void SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace " + path);
  std::map<std::string, int> lanes;
  for (const Span& s : spans_) lanes.emplace(s.name, 0);
  int tid = 1;
  for (auto& [name, lane] : lanes) lane = tid++;
  f << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [name, lane] : lanes) {
    f << (first ? "" : ",") << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << lane
      << ",\"name\":\"thread_name\",\"args\":{\"name\":" << Quote(name)
      << "}}";
    first = false;
  }
  for (const Span& s : spans_) {
    f << ",{\"ph\":\"X\",\"pid\":1,\"tid\":" << lanes[s.name]
      << ",\"name\":" << Quote(s.name) << ",\"ts\":" << FormatNumber(s.start_us)
      << ",\"dur\":" << FormatNumber(s.dur_us)
      << ",\"args\":{\"request\":" << s.request
      << ",\"parent\":" << Quote(s.parent) << "}}";
  }
  f << "]}\n";
}

}  // namespace e2e
