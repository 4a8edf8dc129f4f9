#include "storage/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "util/error.h"

namespace mview::storage {
namespace {

[[noreturn]] void ThrowErrno(const char* what, const std::string& path) {
  throw IoError(std::string("storage: ") + what + " failed for " + path +
                ": " + std::strerror(errno));
}

std::atomic<FileSystem*>& Installed() {
  static FileSystem posix;
  static std::atomic<FileSystem*> installed{&posix};
  return installed;
}

}  // namespace

FileSystem& FileSystem::Current() { return *Installed().load(); }

int FileSystem::Open(const std::string& path, bool truncate) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0),
                  0644);
  if (fd < 0) ThrowErrno("open", path);
  return fd;
}

void FileSystem::Write(const File& file, std::string_view data,
                       uint64_t offset) {
  while (!data.empty()) {
    ssize_t n = ::pwrite(file.fd(), data.data(), data.size(),
                         static_cast<off_t>(offset));
    if (n < 0) ThrowErrno("write", file.path());
    data.remove_prefix(static_cast<size_t>(n));
    offset += static_cast<uint64_t>(n);
  }
}

void FileSystem::Sync(const File& file) {
  if (::fsync(file.fd()) != 0) ThrowErrno("fsync", file.path());
}

void FileSystem::Truncate(const File& file, uint64_t size) {
  if (::ftruncate(file.fd(), static_cast<off_t>(size)) != 0) {
    ThrowErrno("ftruncate", file.path());
  }
}

std::optional<std::string> FileSystem::Read(const std::string& path) {
  const File in(::open(path.c_str(), O_RDONLY), path);
  if (in.fd() < 0) {
    if (errno == ENOENT) return std::nullopt;
    ThrowErrno("open", path);
  }
  std::string contents;
  char buf[1 << 16];
  ssize_t n;
  while ((n = ::read(in.fd(), buf, sizeof(buf))) > 0) {
    contents.append(buf, static_cast<size_t>(n));
  }
  if (n < 0) ThrowErrno("read", path);
  return contents;
}

void FileSystem::Rename(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) ThrowErrno("rename", to);
}

void FileSystem::SyncDir(const std::string& dir) {
  const File d(::open(dir.c_str(), O_RDONLY | O_DIRECTORY), dir);
  if (d.fd() < 0) ThrowErrno("open", dir);
  if (::fsync(d.fd()) != 0 && errno != EINVAL) ThrowErrno("fsync", dir);
}

void FileSystem::Remove(const std::string& path) { ::unlink(path.c_str()); }

File::File(std::string path, bool truncate)
    : fd_(FileSystem::Current().Open(path, truncate)),
      path_(std::move(path)) {}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

File File::Create(const std::string& path, std::string_view contents) {
  File file(path, /*truncate=*/true);
  file.Write(contents, 0);
  file.Sync();
  return file;
}

File File::Replace(const std::string& path, std::string_view contents,
                   bool* renamed) {
  File file = Create(path + ".tmp", contents);
  FileSystem::Current().Rename(file.path_, path);
  if (renamed != nullptr) *renamed = true;
  file.path_ = path;
  const std::string dir = std::filesystem::path(path).parent_path().string();
  FileSystem::Current().SyncDir(dir.empty() ? "." : dir);
  return file;
}

ScopedFileSystem::ScopedFileSystem(FileSystem* fs)
    : previous_(Installed().exchange(fs)) {}

ScopedFileSystem::~ScopedFileSystem() { Installed().store(previous_); }

}  // namespace mview::storage
