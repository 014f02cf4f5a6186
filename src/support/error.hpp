// Error-handling primitives shared by every parsvd module.
//
// All recoverable failures are reported through exceptions derived from
// parsvd::Error so callers can catch one base type.  Precondition checks in
// public APIs use PARSVD_REQUIRE (always on); internal invariants that are
// cheap to test use PARSVD_CHECK (also always on — the kernels here are not
// hot enough for the cost to matter; hot inner loops avoid checks entirely).
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace parsvd {

/// Base class of every exception thrown by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Shape / index mismatches in linear-algebra entry points.
class DimensionError : public Error {
 public:
  explicit DimensionError(const std::string& what) : Error(what) {}
};

/// Iterative kernel failed to reach its tolerance within its budget.
class ConvergenceError : public Error {
 public:
  explicit ConvergenceError(const std::string& what) : Error(what) {}
};

/// A dense solver was handed a NaN or infinite entry. Raised at entry,
/// before any iteration, instead of a late ConvergenceError or silently
/// non-finite factors.
class NonFiniteError : public Error {
 public:
  explicit NonFiniteError(const std::string& what) : Error(what) {}
};

/// Filesystem / serialization failures.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// Misuse of the message-passing runtime (bad rank, mismatched sizes, ...).
class CommError : public Error {
 public:
  explicit CommError(const std::string& what) : Error(what) {}
};

/// A blocking pmpi wait exceeded its configured timeout — the typed
/// replacement for a silent deadlock when a message never arrives.
class CommTimeout : public CommError {
 public:
  explicit CommTimeout(const std::string& what) : CommError(what) {}
};

/// A pmpi operation needed a rank that has been marked dead (killed by
/// fault injection) and whose contribution is not recoverable.
class RankDeadError : public CommError {
 public:
  explicit RankDeadError(const std::string& what) : CommError(what) {}
};

/// Thrown inside the rank a FaultPlan kills. The run() harness treats it
/// as an injected death (recorded in Context::dead_ranks(), not rethrown);
/// survivors decide the job's fate — degraded completion or typed failure.
class RankKilledError : public CommError {
 public:
  explicit RankKilledError(const std::string& what) : CommError(what) {}
};

/// A blocked pmpi wait()/barrier() was woken by Context::abort_job()
/// after ANOTHER rank failed — a secondary victim, not the root cause.
/// run() uses the distinct type to rethrow the originating error instead
/// of whichever victim happened to sit at the lowest rank index.
class JobAbortedError : public CommError {
 public:
  explicit JobAbortedError(const std::string& what) : CommError(what) {}
};

/// Invalid user-provided configuration (negative rank counts etc.).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void throw_failed_check(const char* kind, const char* expr,
                                     const std::string& msg,
                                     std::source_location loc);
}  // namespace detail

}  // namespace parsvd

/// Validate a caller-supplied precondition; throws parsvd::Error on failure.
#define PARSVD_REQUIRE(cond, msg)                                          \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::parsvd::detail::throw_failed_check("precondition", #cond, (msg),   \
                                           std::source_location::current()); \
    }                                                                      \
  } while (false)

/// Validate an internal invariant; throws parsvd::Error on failure.
#define PARSVD_CHECK(cond, msg)                                            \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::parsvd::detail::throw_failed_check("invariant", #cond, (msg),      \
                                           std::source_location::current()); \
    }                                                                      \
  } while (false)
