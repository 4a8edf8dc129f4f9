#ifndef MVIEW_BENCH_BENCH_UTIL_H_
#define MVIEW_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/stopwatch.h"

namespace mview::bench {

/// Harness flags shared by every bench binary (parsed before
/// `benchmark::Initialize` so google-benchmark never sees them):
///   --smoke         run a tiny workload and skip the google-benchmark
///                   suites — the CI `bench-smoke` ctest label uses this to
///                   prove each binary still runs, not to measure anything.
///   --json <path>   additionally write the summary rows as a JSON array
///                   (e.g. BENCH_E16.json for the experiment log).
struct BenchOptions {
  bool smoke = false;
  std::string json_path;
};

inline BenchOptions& Options() {
  static BenchOptions options;
  return options;
}

/// Strips the flags above out of argc/argv into `Options()`.
inline void ParseBenchOptions(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      Options().smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
      Options().json_path = argv[++i];
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Picks the full-size or smoke-size workload parameter.
inline size_t Scaled(size_t full, size_t smoke) {
  return Options().smoke ? smoke : full;
}

/// Accumulates numeric result rows and writes them as a JSON array of
/// objects — the machine-readable twin of `SummaryTable`.
class JsonRows {
 public:
  void Add(std::vector<std::pair<std::string, double>> fields) {
    rows_.push_back(std::move(fields));
  }

  /// Writes to `Options().json_path` when set; returns false on I/O error.
  bool WriteIfRequested() const {
    if (Options().json_path.empty()) return true;
    std::FILE* f = std::fopen(Options().json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", Options().json_path.c_str());
      return false;
    }
    std::fprintf(f, "[\n");
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "  {");
      for (size_t c = 0; c < rows_[r].size(); ++c) {
        std::fprintf(f, "%s\"%s\": %.9g", c == 0 ? "" : ", ",
                     rows_[r][c].first.c_str(), rows_[r][c].second);
      }
      std::fprintf(f, "}%s\n", r + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::vector<std::pair<std::string, double>>> rows_;
};

/// Formats seconds with an adaptive unit ("1.23 ms").
inline std::string FormatSeconds(double s) {
  char buf[64];
  if (s < 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.2f ns", s * 1e9);
  } else if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f us", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", s);
  }
  return buf;
}

/// Formats a ratio as "12.3x".
inline std::string FormatSpeedup(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", r);
  return buf;
}

/// A paper-style summary table printed to stdout after the google-benchmark
/// output; EXPERIMENTS.md records these rows.
class SummaryTable {
 public:
  SummaryTable(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    std::printf("\n=== %s ===\n", title_.c_str());
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (size_t c = 0; c < cells.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]), cells[c].c_str());
      }
      std::printf("\n");
    };
    print_row(columns_);
    size_t total = 2 * columns_.size();
    for (size_t w : widths) total += w;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
    std::printf("\n");
    std::fflush(stdout);
  }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

struct Spread {
  double median = 0;
  double iqr = 0;
};

/// Median and interquartile range of `samples` (linear interpolation
/// between ranks); `samples` must not be empty.
inline Spread SpreadOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) *
                             (samples[hi] - samples[lo]);
  };
  return {quantile(0.5), quantile(0.75) - quantile(0.25)};
}

/// The host a result was measured on: online cores, CPU model, compiler
/// and build type, as one line for a summary table's title.
inline std::string HostFingerprint() {
  std::string cpu = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (colon == nullptr) break;
      cpu = colon + 1;
      cpu.erase(0, cpu.find_first_not_of(' '));
      cpu.erase(cpu.find_last_not_of(" \n") + 1);
      break;
    }
    std::fclose(f);
  }
#ifdef NDEBUG
  const char* build = "optimized (NDEBUG)";
#else
  const char* build = "debug (asserts on)";
#endif
  return "nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", cpu=" + cpu + ", compiler=" + __VERSION__ + ", build=" + build;
}

/// Runs `fn` `reps` times and returns the average seconds per run (a
/// single rep under --smoke).
inline double TimeIt(const std::function<void()>& fn, int reps = 3) {
  if (Options().smoke) reps = 1;
  // One warm-up run.
  fn();
  Stopwatch timer;
  for (int i = 0; i < reps; ++i) fn();
  return timer.ElapsedSeconds() / reps;
}

}  // namespace mview::bench

/// The standard bench entry point: strip the harness flags above, hand
/// the rest to google-benchmark, run the registered suites (skipped under
/// --smoke), then print the binary's summary table — every bench defines
/// a `mview::PrintSummary()` that renders its `SummaryTable` and writes
/// the `--json` rows.  Binaries with a non-standard driver (e.g. the
/// concurrent-session bench, which orchestrates threads itself) write
/// their own `main` instead.
#define MVIEW_BENCH_MAIN()                                 \
  int main(int argc, char** argv) {                        \
    mview::bench::ParseBenchOptions(&argc, argv);          \
    benchmark::Initialize(&argc, argv);                    \
    if (!mview::bench::Options().smoke) {                  \
      benchmark::RunSpecifiedBenchmarks();                 \
    }                                                      \
    mview::PrintSummary();                                 \
    return 0;                                              \
  }

#endif  // MVIEW_BENCH_BENCH_UTIL_H_
