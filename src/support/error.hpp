// Error handling primitives for the tensortools-parallel library.
//
// All precondition violations throw tt::Error (derived from std::runtime_error)
// so that callers — including tests exercising failure injection — can recover.
// TT_ASSERT is for internal invariants and compiles to TT_CHECK in all build
// types: DMRG failures are data dependent and must be catchable in production.
#pragma once

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

namespace tt {

/// Exception type thrown on any precondition or invariant violation.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

// what() is the check's message alone, since that is the line a user reads
// (every binary prints it after "error: "). A check without a message names
// its condition, with the source file's base name and line.
[[noreturn]] inline void throw_error(const char* cond, const char* file, int line,
                                     const std::string& msg) {
  if (!msg.empty()) throw Error(msg);
  const char* base = std::strrchr(file, '/');
  std::ostringstream os;
  os << (base ? base + 1 : file) << ":" << line << ": check failed: " << cond;
  throw Error(os.str());
}

}  // namespace detail
}  // namespace tt

/// Check a user-facing precondition; throws tt::Error with its message on failure.
#define TT_CHECK(cond, ...)                                                     \
  do {                                                                          \
    if (!(cond)) {                                                              \
      std::ostringstream tt_os_;                                                \
      tt_os_ << "" __VA_ARGS__;                                                 \
      ::tt::detail::throw_error(#cond, __FILE__, __LINE__, tt_os_.str());       \
    }                                                                           \
  } while (false)

/// Internal invariant check; same behaviour as TT_CHECK (always on).
#define TT_ASSERT(cond, ...) TT_CHECK(cond, __VA_ARGS__)

/// Unconditional failure with message.
#define TT_FAIL(...)                                                            \
  do {                                                                          \
    std::ostringstream tt_os_;                                                  \
    tt_os_ << "" __VA_ARGS__;                                                   \
    ::tt::detail::throw_error("unreachable", __FILE__, __LINE__, tt_os_.str()); \
  } while (false)
