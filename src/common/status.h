// Arrow/RocksDB-style Status for error handling without exceptions.
#ifndef PBC_COMMON_STATUS_H_
#define PBC_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace pbc {

/// \brief Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kConflict,          ///< MVCC / lock conflict; transaction must abort.
  kAborted,           ///< Transaction aborted by protocol logic.
  kCorruption,        ///< Ledger or proof integrity check failed.
  kPermissionDenied,  ///< Caller lacks access to a view/collection/channel.
  kUnavailable,       ///< Quorum unreachable / leader unknown.
  kTimedOut,
  kNotImplemented,
  kInternal,
};

/// \brief Returns a human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of an operation: a code plus an optional message.
///
/// `Status` is cheap to copy in the OK case (no allocation) and is the only
/// error-reporting mechanism on protocol hot paths; Byzantine-triggered
/// validation failures are reported as values, never as exceptions.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m) {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status Conflict(std::string m) {
    return Status(StatusCode::kConflict, std::move(m));
  }
  static Status Aborted(std::string m) {
    return Status(StatusCode::kAborted, std::move(m));
  }
  static Status Corruption(std::string m) {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status PermissionDenied(std::string m) {
    return Status(StatusCode::kPermissionDenied, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status TimedOut(std::string m) {
    return Status(StatusCode::kTimedOut, std::move(m));
  }
  static Status NotImplemented(std::string m) {
    return Status(StatusCode::kNotImplemented, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  bool IsConflict() const { return code_ == StatusCode::kConflict; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsPermissionDenied() const {
    return code_ == StatusCode::kPermissionDenied;
  }

  /// Full "Code: message" rendering for logs and test failures.
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_;
  std::string msg_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagates a non-OK status to the caller.
#define PBC_RETURN_NOT_OK(expr)          \
  do {                                   \
    ::pbc::Status _s = (expr);           \
    if (!_s.ok()) return _s;             \
  } while (0)

}  // namespace pbc

#endif  // PBC_COMMON_STATUS_H_
