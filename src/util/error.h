#ifndef MVIEW_UTIL_ERROR_H_
#define MVIEW_UTIL_ERROR_H_

#include <sstream>
#include <stdexcept>
#include <string>

namespace mview {

/// Exception type thrown for API misuse and invariant violations.
///
/// The library throws `Error` for conditions that indicate a programming
/// mistake by the caller (schema mismatches, references to unknown
/// attributes or relations, malformed conditions) or a broken internal
/// invariant.  Data-path code on the maintenance hot path does not throw.
class Error : public std::logic_error {
 public:
  explicit Error(const std::string& message) : std::logic_error(message) {}
};

/// A durability failure: the operating system refused a write/fsync, or a
/// fault-injection policy injected one.  Surfaced to SQL callers as
/// `mview::Status::Kind::kIoError`, not as a new public exception type —
/// catch sites live inside `TryExecute`.  Treated as *transient* by the
/// view-quarantine machinery (automatic repair retries with backoff).
class IoError : public Error {
 public:
  explicit IoError(const std::string& message) : Error(message) {}
};

/// Persistent state failed validation: bad magic, a CRC mismatch away from
/// the log tail, an impossible LSN sequence, or a checkpoint that does not
/// decode.  Surfaced as `mview::Status::Kind::kCorruption`.  Treated as
/// *sticky* by the quarantine machinery (no automatic retry; explicit
/// `REPAIR VIEW` only).
class CorruptionError : public Error {
 public:
  explicit CorruptionError(const std::string& message) : Error(message) {}
};

/// A read against a quarantined materialized view: maintenance failed
/// mid-commit and the materialization is not trusted until `REPAIR VIEW`
/// (or the automatic transient-retry path) heals it.  Surfaced as
/// `mview::Status::Kind::kViewQuarantined`.
class ViewQuarantinedError : public Error {
 public:
  explicit ViewQuarantinedError(const std::string& message) : Error(message) {}
};

/// A statement's deadline expired (or its connection was force-cancelled
/// during drain) at a cooperative poll point.  Surfaced as
/// `mview::Status::Kind::kDeadlineExceeded`.  Cancellation is clean by
/// construction: poll points sit only where unwinding restores every
/// structure (prepared deltas are dropped before any base or view buffer
/// is touched).
class DeadlineExceededError : public Error {
 public:
  explicit DeadlineExceededError(const std::string& message)
      : Error(message) {}
};

/// Admission control shed the statement before it ran: the lane's in-flight
/// budget was exhausted.  Surfaced as `mview::Status::Kind::kOverloaded`
/// with `retry_after_ms` carrying the server's backoff hint (an EWMA of
/// recent statement service time).  Nothing executed; retry is always safe.
class OverloadedError : public Error {
 public:
  OverloadedError(const std::string& message, int64_t retry_after_ms)
      : Error(message), retry_after_ms(retry_after_ms) {}

  int64_t retry_after_ms = 0;
};

/// The wire peer has not completed the HELLO handshake (or presented a bad
/// token) on a server that requires one.  Surfaced as
/// `mview::Status::Kind::kUnauthenticated`.
class AuthError : public Error {
 public:
  explicit AuthError(const std::string& message) : Error(message) {}
};

namespace internal {

/// Builds an error message from streamable parts and throws `Error`.
template <typename... Args>
[[noreturn]] void ThrowError(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  throw Error(os.str());
}

}  // namespace internal
}  // namespace mview

/// Checks a condition and throws `mview::Error` with a formatted message
/// when it does not hold.  Used for argument validation and internal
/// invariants; always on (not compiled out in release builds), since a
/// silently corrupted materialized view is worse than a failed call.
#define MVIEW_CHECK(cond, ...)                                              \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::mview::internal::ThrowError("mview check failed: ", #cond, " at ",  \
                                    __FILE__, ":", __LINE__, ": ",          \
                                    ##__VA_ARGS__);                         \
    }                                                                       \
  } while (0)

#endif  // MVIEW_UTIL_ERROR_H_
