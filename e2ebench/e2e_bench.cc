// End-to-end benchmark program for mview.
//
//   e2e_bench --workload <commit_stream|view_reads|ops_cycle> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--inject-drift] [--source-id <text>]
//
// Untraced (--trace 0): sets the workload up six times, warms up, runs its
// main phase for --seconds (commit_stream after a closed-loop read probe),
// then operator cycles on commit_stream and view_reads so every metric is
// measured on every workload, then the correctness gate (SCRUB ALL, every
// acknowledged commit present), then six more set-ups (`setup_s` is the
// median of all twelve).  Traced (--trace 1): see layers.cc.  The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "harness.h"

#ifndef E2E_CXX_COMPILER
#define E2E_CXX_COMPILER "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

std::string g_source_id = "unknown";

// Set-ups per untraced run; `setup_s` is their median.  Half run before
// the workload and half after it, so the median spans the whole run rather
// than the one second in which the host's drifting speed would otherwise
// decide it.
constexpr int kSetUps = 12;
// Seconds of the workload's own traffic before timing starts: commit
// latency climbs for the first ~2 s of a fresh database, then levels off.
constexpr double kWarmUpS = 3.0;
// commit_stream's closed-loop snapshot reads, before its main phase.
constexpr int kReadProbe = 3000;

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FsType(const std::string& path) {
  struct statfs sf {};
  if (statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

/// Jiffies of the host's aggregate CPU line: {steal, total}.
std::pair<double, double> CpuJiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int i = 0; i < 10 && f >> v; ++i) {
    if (i < 8) total += v;  // guest time is already inside user time
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// The host and configuration record printed with every result.
std::string Fingerprint(const RunOptions& opt) {
  std::string out = "{";
  auto add = [&out](const std::string& k, const std::string& v) {
    if (out.size() > 1) out += ", ";
    out += Quote(k) + ": " + v;
  };
  add("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  add("cpu", Quote(CpuModel()));
  add("compiler", Quote(E2E_CXX_COMPILER));
  add("build_type", Quote(E2E_BUILD_TYPE));
  add("source", Quote(g_source_id));
  add("workload", Quote(opt.spec->name));
  add("seed", std::to_string(opt.seed));
  add("seconds", FormatNumber(opt.seconds));
  add("data_fs", Quote(FsType(opt.work_dir)));
  add("fsync", Quote("on (Storage::Options default, group window 0)"));
  add("maintenance_parallelism", std::to_string(opt.spec->parallelism));
  return out + "}";
}

int RunUntraced(const RunOptions& opt) {
  const WorkloadSpec& spec = *opt.spec;
  const std::string dir = opt.work_dir + "/db";
  Tally tally;
  std::unique_ptr<Instance> inst;
  std::unique_ptr<Generator> gen;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetUps / 2; ++rep) {
    setup_s.push_back(SetUp(spec, opt.seed, dir, &inst, &gen, &tally));
  }
  auto conn = std::make_unique<Conn>(inst->port(), &tally);

  const std::pair<double, double> cpu0 = CpuJiffies();
  // Warm the join caches and the page cache before timing starts.
  RunMainPhase(spec, *inst, *gen, &conn, &tally, kWarmUpS, opt.seed + 1,
               false);
  // Every workload reports every metric: commit_stream's reads come from
  // a closed-loop probe on the warmed-up state, before its main phase
  // (whose length in commits depends on the host's speed), and the
  // operator metrics of commit_stream and view_reads from operator cycles
  // after the main phase.
  PhaseResult probe;
  if (spec.name == "commit_stream") {
    RunReadProbe(*conn, *gen, opt.seed, kReadProbe, &probe);
  }
  PhaseResult main = RunMainPhase(spec, *inst, *gen, &conn, &tally,
                                  opt.seconds, opt.seed, false);
  PhaseResult tail;
  for (int i = 0; i < spec.tail_cycles; ++i) {
    tail.cycles.push_back(RunCycle(spec, *inst, *gen, &conn, &tally, &tail));
  }

  if (opt.inject_drift) {
    // Drift one view behind the engine's back; the gate must catch it.
    inst->core().mutable_views().MutableMaterialization("v_join2").Add(
        mview::Tuple({mview::Value(-1), mview::Value(-1), mview::Value(-1)}),
        1);
  }
  CheckScrub(*inst, &tally);
  CheckBases(inst->core(), *gen, &tally);
  conn.reset();
  // Before the last set-ups, whose new threads' heaps would add to it.
  const double peak_rss_mb = PeakRssMb();
  for (int rep = kSetUps / 2; rep < kSetUps; ++rep) {
    setup_s.push_back(SetUp(spec, opt.seed, dir, &inst, &gen, &tally));
  }

  const std::pair<double, double> cpu1 = CpuJiffies();
  const PhaseResult& reads = spec.name == "commit_stream" ? probe : main;
  const std::vector<CycleTimes>& cycles =
      spec.name == "ops_cycle" ? main.cycles : tail.cycles;
  auto cycle_median = [&cycles](double CycleTimes::*field) {
    std::vector<double> v;
    for (const CycleTimes& c : cycles) v.push_back(c.*field);
    return Median(v);
  };
  const double user_bytes = 8.0 * static_cast<double>(main.cells);
  std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"write_amp",
       static_cast<double>(main.wal_bytes + main.checkpoint_bytes) /
           user_bytes,
       "ratio"},
      {"space_amp", cycle_median(&CycleTimes::space_amp), "ratio"},
  };
  // Printed, but not result metrics: error_rate is 0 on every correct
  // run (the result carries failed/attempted); the timings spread between
  // runs of one build beyond any usable bound on a shared virtual host,
  // because the host's speed drifts for tens of seconds at a time (see
  // README.md).
  std::vector<Metric> info = {
      {"error_rate",
       static_cast<double>(tally.failed) /
           static_cast<double>(std::max<int64_t>(1, tally.attempted)),
       "ratio"},
      {"commit_p50_us", Quantile(main.commit_us, 0.5), "us"},
      // Commits per second spent writing (for the open-loop writer of
      // view_reads: per second of its requests' service time).
      {"commits_per_s", static_cast<double>(main.commits) / main.write_s,
       "1/s"},
      {"read_p50_us", Quantile(reads.read_us, 0.5), "us"},
      {"recovery_s", cycle_median(&CycleTimes::recovery_s), "s"},
      {"repair_s", cycle_median(&CycleTimes::repair_s), "s"},
      {"refresh_ms", cycle_median(&CycleTimes::refresh_ms), "ms"},
      {"adhoc_ms", cycle_median(&CycleTimes::adhoc_ms), "ms"},
      {"checkpoint_s", cycle_median(&CycleTimes::checkpoint_s), "s"},
      {"commit_p99_us", Quantile(main.commit_us, 0.99), "us"},
      {"read_p99_us", Quantile(reads.read_us, 0.99), "us"},
      {"commit_samples", static_cast<double>(main.commit_us.size()), "count"},
      {"read_samples", static_cast<double>(reads.read_us.size()), "count"},
      {"cycles", static_cast<double>(cycles.size()), "count"},
      // CPU time the hypervisor gave to other guests while this run
      // measured: high values explain slow, spread-out runs.
      {"host_steal_frac",
       (cpu1.first - cpu0.first) /
           std::max(1.0, cpu1.second - cpu0.second),
       "ratio"},
      {"gen_late_p50_us", Quantile(main.late_us, 0.5), "us"},
      {"gen_late_p99_us", Quantile(main.late_us, 0.99), "us"},
      {"gen_backlog_max", static_cast<double>(main.backlog_max), "count"},
  };
  inst.reset();
  std::filesystem::remove_all(dir);
  return Report(opt, tally, metrics, info);
}

}  // namespace

int Report(const RunOptions& opt, const Tally& tally,
           const std::vector<Metric>& metrics,
           const std::vector<Metric>& info) {
  std::cout << "fingerprint " << Fingerprint(opt) << "\n";
  for (const auto* list : {&metrics, &info}) {
    for (const Metric& m : *list) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "  %-34s %14.4f %s\n", m.name.c_str(),
                    m.value, m.unit.c_str());
      std::cout << buf;
    }
  }
  const bool correct = tally.failed == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted.load());
  line += ", \"failed\": " + std::to_string(tally.failed.load());
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += Quote(metrics[i].name) + ": {\"value\": " +
            FormatNumber(metrics[i].value) +
            ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}

}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  RunOptions opt;
  std::string workload;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      workload = next();
    } else if (a == "--seed") {
      opt.seed = std::stoull(next());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (a == "--trace") {
      trace = std::stoi(next());
    } else if (a == "--work-dir") {
      opt.work_dir = next();
    } else if (a == "--source-id") {
      g_source_id = next();
    } else if (a == "--inject-drift") {
      opt.inject_drift = true;
    } else {
      std::cerr << "unknown argument " << a << "\n";
      return 2;
    }
  }
  opt.spec = FindWorkload(workload);
  if (opt.spec == nullptr || opt.seconds <= 0 || opt.work_dir.empty()) {
    std::cerr << "usage: e2e_bench --workload <commit_stream|view_reads|"
                 "ops_cycle> --seed <n> --seconds <s> --trace <0|1> "
                 "--work-dir <dir>\n";
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);
  try {
    return trace != 0 ? RunTraced(opt) : RunUntraced(opt);
  } catch (const std::exception& e) {
    std::cerr << "benchmark aborted: " << e.what() << "\n";
    return 1;
  }
}
