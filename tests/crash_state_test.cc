// Power-loss crash states, after Pillai et al., "All File Systems Are Not
// Created Equal" (OSDI 2014): a recording `storage::FileSystem` logs every
// mutating file operation of a scripted workload, and an enumerator
// rebuilds each disk image a power cut after each operation could leave.
//
// The crash model is the ordered one of `storage/file.h`:
//   - bytes written to a file since its last fsync may each be dropped,
//     kept whole, or kept as a torn prefix (half the write);
//   - creates, renames and removes persist in the order they were issued,
//     so a power cut keeps some prefix of those issued since the last
//     directory sync, and a directory sync persists all of them;
//   - the database directory exists before the script starts.
//
// Every image must open, recover to the state after some prefix of the
// statements that holds every acknowledged one (a statement counts as
// acknowledged once all its file operations are done), and hold views
// equal to `testing::NaiveEvaluate`.  A refused open is a failure too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ivm_test_util.h"
#include "sql/engine.h"
#include "storage/file.h"
#include "storage/storage.h"
#include "test_util.h"

namespace mview {
namespace {

using sql::Engine;
using storage::File;

// Images enumerated per crash point at most.  Correct code stays far below
// (the test checks that no point reached it); an ordering bug that leaves
// many files unsynced at once is cut here instead of running long.
constexpr size_t kMaxImagesPerPoint = 512;

// A script step that kills the process (no checkpoint) and reopens.
constexpr const char* kReopen = "<reopen>";

struct Op {
  enum Kind { kCreate, kWrite, kTruncate, kSync, kRename, kRemove, kSyncDir };
  Kind kind = kCreate;
  int inode = -1;       // kCreate, kWrite, kTruncate, kSync
  std::string name;     // kCreate, kRename (from), kRemove
  std::string to;       // kRename
  uint64_t offset = 0;  // kWrite; the new size for kTruncate
  std::string data;     // kWrite

  std::string Describe() const {
    static const char* const kNames[] = {"create",  "write", "truncate",
                                         "fsync",   "rename", "remove",
                                         "dirsync"};
    std::string out = kNames[kind];
    if (inode >= 0) out += " #" + std::to_string(inode);
    if (!name.empty()) out += " " + name;
    if (!to.empty()) out += " -> " + to;
    if (kind == kWrite) {
      out += " @" + std::to_string(offset) + "+" +
             std::to_string(data.size());
    }
    return out;
  }
};

// Runs the POSIX seam and logs each mutating call against file identities
// ("inodes"), which renames move between names.  Every path must lie in
// `dir`.
class RecordingFileSystem : public storage::FileSystem {
 public:
  explicit RecordingFileSystem(std::string dir) : dir_(std::move(dir)) {}

  int Open(const std::string& path, bool truncate) override {
    int fd = FileSystem::Open(path, truncate);
    const std::string name = Name(path);
    auto it = names_.find(name);
    if (it == names_.end()) {
      it = names_.emplace(name, next_inode_++).first;
      Log(Op::kCreate, it->second, name);
    } else if (truncate) {
      Log(Op::kTruncate, it->second, "", "", 0);
    }
    inodes_[fd] = it->second;
    return fd;
  }
  void Write(const File& file, std::string_view data,
             uint64_t offset) override {
    FileSystem::Write(file, data, offset);
    Log(Op::kWrite, inodes_.at(file.fd()), "", "", offset, std::string(data));
  }
  void Sync(const File& file) override {
    FileSystem::Sync(file);
    Log(Op::kSync, inodes_.at(file.fd()));
  }
  void Truncate(const File& file, uint64_t size) override {
    FileSystem::Truncate(file, size);
    Log(Op::kTruncate, inodes_.at(file.fd()), "", "", size);
  }
  void Rename(const std::string& from, const std::string& to) override {
    FileSystem::Rename(from, to);
    const int inode = names_.at(Name(from));
    names_.erase(Name(from));
    names_[Name(to)] = inode;
    Log(Op::kRename, -1, Name(from), Name(to));
  }
  void SyncDir(const std::string& dir) override {
    FileSystem::SyncDir(dir);
    EXPECT_EQ(std::filesystem::path(dir), std::filesystem::path(dir_));
    Log(Op::kSyncDir);
  }
  void Remove(const std::string& path) override {
    FileSystem::Remove(path);
    if (names_.erase(Name(path)) > 0) {
      Log(Op::kRemove, -1, Name(path));
    }
  }

  const std::vector<Op>& ops() const { return ops_; }

 private:
  void Log(Op::Kind kind, int inode = -1, std::string name = "",
           std::string to = "", uint64_t offset = 0, std::string data = "") {
    ops_.push_back({kind, inode, std::move(name), std::move(to), offset,
                    std::move(data)});
  }

  std::string Name(const std::string& path) const {
    const std::filesystem::path p(path);
    EXPECT_EQ(p.parent_path(), std::filesystem::path(dir_)) << path;
    return p.filename().string();
  }

  std::string dir_;
  std::map<std::string, int> names_;
  std::map<int, int> inodes_;  // open descriptor -> inode
  int next_inode_ = 0;
  std::vector<Op> ops_;
};

// What a power cut after some prefix of the operations leaves durable for
// certain, and what it may or may not keep.
class CrashModel {
 public:
  void Apply(const Op& op) {
    switch (op.kind) {
      case Op::kCreate:
        durable_.resize(std::max<size_t>(durable_.size(), op.inode + 1));
        pending_.resize(durable_.size());
        dir_ops_.push_back(&op);
        break;
      case Op::kWrite:
      case Op::kTruncate:
        pending_[op.inode].push_back(&op);
        break;
      case Op::kSync:
        for (const Op* p : pending_[op.inode]) {
          ApplyData(&durable_[op.inode], *p, kWhole);
        }
        pending_[op.inode].clear();
        break;
      case Op::kRename:
      case Op::kRemove:
        dir_ops_.push_back(&op);
        break;
      case Op::kSyncDir:
        for (const Op* d : dir_ops_) ApplyName(&names_, *d);
        dir_ops_.clear();
        break;
    }
  }

  // Calls `fn(files, description)` for each image this state can leave, at
  // most `cap` of them; returns false when the cap cut the enumeration.
  template <typename Fn>
  bool ForEachImage(size_t cap, const Fn& fn) const {
    size_t emitted = 0;
    for (size_t kept = 0; kept <= dir_ops_.size(); ++kept) {
      std::map<std::string, int> names = names_;
      for (size_t i = 0; i < kept; ++i) ApplyName(&names, *dir_ops_[i]);
      // One choice slot per unsynced write or truncate of a visible file.
      std::vector<const Op*> slots;
      for (const auto& [name, inode] : names) {
        for (const Op* p : pending_[inode]) slots.push_back(p);
      }
      std::vector<int> choice(slots.size(), kDrop);
      while (true) {
        if (emitted++ == cap) return false;
        std::map<std::string, std::string> files;
        std::string description =
            "dir ops kept " + std::to_string(kept) + "/" +
            std::to_string(dir_ops_.size());
        for (const auto& [name, inode] : names) {
          std::string contents = durable_[inode];
          for (size_t s = 0; s < slots.size(); ++s) {
            if (slots[s]->inode != inode) continue;
            ApplyData(&contents, *slots[s], choice[s]);
            static const char* const kChoice[] = {"dropped", "whole", "torn"};
            description += "; " + slots[s]->Describe() + " " +
                           kChoice[choice[s]];
          }
          files[name] = std::move(contents);
        }
        fn(files, description);
        // Next choice vector: a write may be dropped, whole or torn, a
        // truncate dropped or done.
        size_t s = 0;
        for (; s < slots.size(); ++s) {
          const int radix = slots[s]->kind == Op::kWrite ? 3 : 2;
          if (++choice[s] < radix) break;
          choice[s] = kDrop;
        }
        if (s == slots.size()) break;
      }
    }
    return true;
  }

 private:
  enum Keep { kDrop = 0, kWhole = 1, kTorn = 2 };

  static void ApplyData(std::string* contents, const Op& op, int keep) {
    if (keep == kDrop) return;
    if (op.kind == Op::kTruncate) {
      contents->resize(op.offset);
      return;
    }
    const size_t size = keep == kTorn ? op.data.size() / 2 : op.data.size();
    if (contents->size() < op.offset + size) {
      contents->resize(op.offset + size);
    }
    contents->replace(op.offset, size, op.data, 0, size);
  }

  static void ApplyName(std::map<std::string, int>* names, const Op& op) {
    switch (op.kind) {
      case Op::kCreate:
        (*names)[op.name] = op.inode;
        break;
      case Op::kRename: {
        const int inode = names->at(op.name);
        names->erase(op.name);
        (*names)[op.to] = inode;
        break;
      }
      case Op::kRemove:
        names->erase(op.name);
        break;
      default:
        break;
    }
  }

  std::vector<std::string> durable_;            // per inode, as last synced
  std::vector<std::vector<const Op*>> pending_;  // per inode, since then
  std::map<std::string, int> names_;            // as of the last dir sync
  std::vector<const Op*> dir_ops_;               // since then
};

// Every table and view, rows and deferred backlog included.
std::string Dump(Engine& engine) {
  std::string out;
  for (const auto& name : engine.database().Names()) {
    out += name + ": " + engine.Execute("SELECT * FROM " + name).ToString();
  }
  for (const auto& name : engine.views().ViewNames()) {
    const ViewInfo info = engine.views().Describe(name);
    out += name + (info.stale ? " stale " : " fresh ") +
           std::to_string(info.pending_tuples) + ": " +
           engine.Execute("SELECT * FROM " + name).ToString();
  }
  return out;
}

struct Recording {
  std::vector<Op> ops;
  std::vector<std::string> statements;
  std::vector<size_t> starts;  // operations done before each statement
  std::vector<size_t> ends;    // ... and once it returned
  int64_t delta_bytes = 0;     // checkpoint delta segments written
};

Recording Record(const std::string& dir,
                 const std::vector<std::string>& script) {
  RecordingFileSystem fs(dir);
  storage::ScopedFileSystem seam(&fs);
  Recording out;
  Storage::Options options;
  options.checkpoint_on_close = false;
  auto storage = Storage::Open(dir, options);
  auto engine = std::make_unique<Engine>(storage.get());
  auto kill = [&] {
    out.delta_bytes +=
        engine->views().metrics().storage().checkpoint_delta_bytes;
    engine.reset();
    storage.reset();
  };
  for (const std::string& step : script) {
    if (step == kReopen) {
      kill();
      storage = Storage::Open(dir, options);
      engine = std::make_unique<Engine>(storage.get());
      continue;
    }
    out.starts.push_back(fs.ops().size());
    engine->Execute(step);
    out.ends.push_back(fs.ops().size());
    out.statements.push_back(step);
  }
  kill();
  out.ops = fs.ops();
  return out;
}

struct Summary {
  int64_t delta_bytes = 0;
  size_t segments_removed = 0;
  size_t crash_points = 0;
  size_t images = 0;
  size_t capped_points = 0;
  std::vector<std::string> failures;
};

// Opens the image in `dir`; returns why it is wrong, or "" when it holds
// the state after `lo` or `hi` statements (`expected`) and every fresh
// view equals its naive evaluation.
std::string CheckImage(const std::string& dir,
                       const std::vector<std::string>& expected, size_t lo,
                       size_t hi) {
  try {
    Storage::Options options;
    options.checkpoint_on_close = false;
    auto storage = Storage::Open(dir, options);
    Engine engine(storage.get());
    const std::string dump = Dump(engine);
    if (dump != expected[lo] && dump != expected[hi]) {
      return "recovered a state after neither " + std::to_string(lo) +
             " nor " + std::to_string(hi) + " statements:\n" + dump;
    }
    for (const auto& name : engine.views().ViewNames()) {
      const ViewInfo info = engine.views().Describe(name);
      if (info.stale) continue;
      if (!engine.views().View(name).SameContents(testing::NaiveEvaluate(
              info.definition, engine.database()))) {
        return "view " + name + " differs from its naive evaluation";
      }
    }
  } catch (const std::exception& e) {
    return std::string("refused: ") + e.what();
  }
  return "";
}

// Records `script` in `dir`, then checks every image of every crash point.
Summary Enumerate(const std::string& dir,
                  const std::vector<std::string>& script) {
  const Recording rec = Record(dir, script);

  // The state after each prefix of the statements, from an in-memory
  // engine (CHECKPOINT changes no state and needs storage).
  std::vector<std::string> expected;
  {
    Engine reference;
    expected.push_back(Dump(reference));
    for (const auto& sql : rec.statements) {
      if (sql.rfind("CHECKPOINT", 0) != 0) reference.Execute(sql);
      expected.push_back(Dump(reference));
    }
  }

  Summary summary;
  summary.delta_bytes = rec.delta_bytes;
  for (const Op& op : rec.ops) {
    if (op.kind == Op::kRemove && op.name.rfind("seg_", 0) == 0) {
      ++summary.segments_removed;
    }
  }
  const std::string image_dir = dir + "_image";
  CrashModel model;
  for (size_t done = 0; done <= rec.ops.size(); ++done) {
    if (done > 0) model.Apply(rec.ops[done - 1]);
    // Acknowledged: every statement whose operations are all done; the
    // next one may have landed too once it has begun.
    size_t acked = 0;
    while (acked < rec.ends.size() && rec.ends[acked] <= done) ++acked;
    const size_t hi =
        acked < rec.starts.size() && rec.starts[acked] < done ? acked + 1
                                                              : acked;
    ++summary.crash_points;
    const bool complete = model.ForEachImage(
        kMaxImagesPerPoint,
        [&](const std::map<std::string, std::string>& files,
            const std::string& description) {
          ++summary.images;
          std::filesystem::remove_all(image_dir);
          std::filesystem::create_directories(image_dir);
          for (const auto& [name, contents] : files) {
            std::ofstream(image_dir + "/" + name, std::ios::binary)
                << contents;
          }
          const std::string why = CheckImage(image_dir, expected, acked, hi);
          if (!why.empty()) {
            summary.failures.push_back(
                "power cut after op " + std::to_string(done) + " (" +
                (done > 0 ? rec.ops[done - 1].Describe() : "none") + "), " +
                description + ": " + why);
          }
        });
    if (!complete) ++summary.capped_points;
  }
  std::filesystem::remove_all(image_dir);
  return summary;
}

void ExpectNoFailures(const Summary& summary) {
  std::cout << "crash points: " << summary.crash_points
            << ", images checked: " << summary.images
            << ", failures: " << summary.failures.size() << "\n";
  EXPECT_EQ(summary.capped_points, 0u);
  EXPECT_TRUE(summary.failures.empty());
  for (size_t i = 0; i < std::min<size_t>(summary.failures.size(), 5); ++i) {
    ADD_FAILURE() << summary.failures[i];
  }
}

// Regression: the log used to be created in place with only the file
// fsynced, so the image that kept its header but not its name lost the
// acknowledged CREATE TABLE — and a torn header with no checkpoint beside
// it was refused as corruption.
TEST(CrashStateTest, FirstStatementsSurviveAPowerCutBeforeAnyCheckpoint) {
  const Summary summary =
      Enumerate(testing::ScratchDir(), {"CREATE TABLE t (a INT64);",
                                        "INSERT INTO t VALUES (1);"});
  ExpectNoFailures(summary);
}

TEST(CrashStateTest, EveryPowerCutRecoversAnAcknowledgedPrefix) {
  const std::string dir = testing::ScratchDir();
  const Summary summary = Enumerate(
      dir,
      {
          "CREATE TABLE r (a INT64, b INT64);",
          "CREATE TABLE s (b2 INT64, c INT64);",
          "CREATE MATERIALIZED VIEW j AS SELECT a, c FROM r, s WHERE b = b2;",
          "CREATE MATERIALIZED VIEW d DEFERRED AS SELECT a FROM r WHERE a > 1;",
          "INSERT INTO r VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), "
          "(6, 60), (7, 70), (8, 80);",
          "INSERT INTO s VALUES (10, 100), (20, 200), (30, 300);",
          "CHECKPOINT;",  // fresh bases
          "DELETE FROM r WHERE a = 1;",
          "INSERT INTO s VALUES (40, 400);",
          "CHECKPOINT;",  // each chain grows a delta
          "INSERT INTO s VALUES (50, 500), (60, 600), (70, 700), (80, 800), "
          "(90, 900), (100, 1000);",
          "REFRESH d;",
          "CHECKPOINT;",  // s's deltas outgrow its base: compaction
          "INSERT INTO r VALUES (9, 90);",
          kReopen,  // replays the tail record
          "DELETE FROM s WHERE b2 = 10;",
          "UPDATE r SET b = 30 WHERE a = 2;",
          "CREATE TABLE t (x INT64);",
          "INSERT INTO t VALUES (1), (2);",
          "CHECKPOINT;",
          "DROP TABLE t;",
          "CHECKPOINT;",  // t's chain is swept
      });
  EXPECT_GT(summary.delta_bytes, 0);      // a chain grew
  EXPECT_GT(summary.segments_removed, 0u);  // and one was compacted away
  ExpectNoFailures(summary);
}

}  // namespace
}  // namespace mview
