// Shared helpers of the end-to-end benchmark: a seeded PRNG, sample
// statistics, `SHOW STATS JSON` lookups, and the benchmark-side span
// recorder used by the traced run.
#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "json_test_util.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// splitmix64: the benchmark's only randomness, so one seed fixes every
/// generated input independent of the standard library's distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }
  /// Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi) { return lo + Below(hi - lo + 1); }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

/// Linear-interpolated quantile of `v` (q in [0,1]); 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// A parsed `SHOW STATS JSON` payload (the tests' JSON parser).
using Json = mview::testjson::JsonValue;
inline Json ParseJson(const std::string& text) {
  return mview::testjson::JsonParser::Parse(text);
}
/// The number at `path` in `v`; 0 when a key is missing.
double Num(const Json& v, std::initializer_list<const char*> path);

/// Formats a double with every significant digit.
std::string FormatNumber(double v);

/// Escapes `s` as a JSON string literal (with quotes).
std::string Quote(const std::string& s);

/// Benchmark-side span recorder (traced run only).  Spans are kept in
/// memory and written as Chrome trace JSON at the end.  `parent` names the
/// logical parent span of the same request: spans measured in separate
/// replays of one statement (TCP round trip, in-process session, parse,
/// maintenance) form one tree per request id.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t request = -1;
    std::string parent;  // empty: a root
    double start_us = 0;
    double dur_us = 0;
  };

  SpanLog() : origin_(Clock::now()) {}

  void Record(const std::string& name, int64_t request,
              const std::string& parent, Clock::time_point t0,
              Clock::time_point t1) {
    spans_.push_back({name, request, parent, MicrosSince(origin_, t0),
                      MicrosSince(t0, t1)});
  }
  /// A span whose duration comes from the program's own breakdown (a
  /// `PhaseBreakdown` field): laid out from `t0`, flagged as derived.
  void RecordDerived(const std::string& name, int64_t request,
                     const std::string& parent, Clock::time_point t0,
                     double dur_us) {
    spans_.push_back(
        {name + "*", request, parent, MicrosSince(origin_, t0), dur_us});
  }

  size_t Count(const std::string& name) const;
  /// Durations of every span named `name`, keyed by request id.
  std::map<int64_t, double> ByRequest(const std::string& name) const;
  /// Per-name median self time: duration minus the summed durations of
  /// the same request's spans whose parent is this span's name.
  std::map<std::string, double> MedianSelfTimes() const;
  /// Writes the spans as Chrome `trace_event` JSON (one lane per name).
  void WriteChromeTrace(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H_
