#ifndef MVIEW_STORAGE_FILE_H_
#define MVIEW_STORAGE_FILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace mview::storage {

class File;

/// The storage layer's one route to the file system.  The log and the
/// checkpoint make every file operation through `FileSystem::Current()`;
/// each failing call becomes an `IoError` naming the call, the path and
/// the errno text.  The base class is the POSIX implementation.  Like
/// `util::FaultRegistry` the seam is process-wide: tests install a
/// subclass with `ScopedFileSystem` to skip fsyncs, fail a directory sync,
/// or record every mutating call (`tests/crash_state_test.cc`).
///
/// The crash model the storage layer is written against (the ordered
/// model): bytes written to a file since its last `Sync` may be lost, kept
/// or kept in part; creates, renames and removes persist in the order they
/// were issued, and a `SyncDir` of their directory makes them all durable.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// The installed seam: POSIX unless a `ScopedFileSystem` replaced it.
  static FileSystem& Current();

  /// Opens `path` read-write, creating it when absent and emptying it when
  /// `truncate`; returns the descriptor.
  virtual int Open(const std::string& path, bool truncate);
  /// Writes all of `data` at `offset`.
  virtual void Write(const File& file, std::string_view data,
                     uint64_t offset);
  virtual void Sync(const File& file);
  virtual void Truncate(const File& file, uint64_t size);
  /// The whole file; nullopt when `path` does not exist.
  virtual std::optional<std::string> Read(const std::string& path);
  virtual void Rename(const std::string& from, const std::string& to);
  /// Tolerates only `EINVAL`, which filesystems that cannot sync a
  /// directory return.
  virtual void SyncDir(const std::string& dir);
  /// Removes `path` if it can.  The storage layer removes only garbage
  /// (orphan segments), which the next sweep retries, so a failure is no
  /// error.
  virtual void Remove(const std::string& path);
};

/// An open file and the path it was opened under.  Move-only; closes on
/// destruction.  Operations go through `FileSystem::Current()`.
class File {
 public:
  File() = default;
  /// Opens `path`, creating it when absent and emptying it when `truncate`.
  explicit File(std::string path, bool truncate = false);
  File(File&& other) noexcept { *this = std::move(other); }
  File& operator=(File&& other) noexcept;
  ~File();

  /// Creates or empties `path`, writes `contents` and syncs them.  Returns
  /// the file, open; its name is durable only once its directory is.
  static File Create(const std::string& path, std::string_view contents);

  /// Replaces `path` with `contents` so that a power cut leaves the old
  /// file or the new one, never a torn one: `Create`s a temp file beside
  /// it (which the next `Replace` truncates if this one fails), renames it
  /// over `path`, syncs the directory, and returns the new file, open.
  /// Sets `*renamed` once the rename is done: a throw after it (a failed
  /// directory sync) leaves the new file at `path`, maybe not durably; one
  /// before it leaves `path` untouched.
  static File Replace(const std::string& path, std::string_view contents,
                      bool* renamed = nullptr);

  int fd() const { return fd_; }
  const std::string& path() const { return path_; }
  void Write(std::string_view data, uint64_t offset) const {
    FileSystem::Current().Write(*this, data, offset);
  }
  void Sync() const { FileSystem::Current().Sync(*this); }
  void Truncate(uint64_t size) const {
    FileSystem::Current().Truncate(*this, size);
  }

 private:
  friend class FileSystem;  // adopts the descriptors it opens for one call
  File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

/// Installs `fs` as the seam for its lifetime, then restores the previous
/// one.  Swap only while no log append or checkpoint is running.
class ScopedFileSystem {
 public:
  explicit ScopedFileSystem(FileSystem* fs);
  ~ScopedFileSystem();
  ScopedFileSystem(const ScopedFileSystem&) = delete;
  ScopedFileSystem& operator=(const ScopedFileSystem&) = delete;

 private:
  FileSystem* previous_;
};

/// Skips every file and directory sync: the "no durability" benchmark
/// baseline, and tests that model process crashes only.  Never for real
/// data.
class UnsyncedFileSystem : public FileSystem {
 public:
  void Sync(const File&) override {}
  void SyncDir(const std::string&) override {}
};

}  // namespace mview::storage

#endif  // MVIEW_STORAGE_FILE_H_
