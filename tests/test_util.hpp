#pragma once
// Minimal single-binary test support: CHECK macros accumulate failures, each
// test executable's main() ends with `return bist_test::summary();` which
// ctest interprets via the exit code.  FAIL lines are flushed as they are
// printed, so a later crash cannot lose them from a redirected stdout.

#include <cstdio>
#include <sstream>
#include <string>

namespace bist_test {

inline int failures = 0;
inline int checks = 0;

inline int summary() {
  std::printf("%d checks, %d failures\n", checks, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace bist_test

#define CHECK(cond)                                                      \
  do {                                                                   \
    ++bist_test::checks;                                                 \
    if (!(cond)) {                                                       \
      ++bist_test::failures;                                             \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);        \
      std::fflush(stdout);                                               \
    }                                                                    \
  } while (0)

#define CHECK_EQ(a, b)                                                   \
  do {                                                                   \
    ++bist_test::checks;                                                 \
    const auto va_ = (a);                                                \
    const auto vb_ = (b);                                                \
    if (!(va_ == vb_)) {                                                 \
      ++bist_test::failures;                                             \
      std::ostringstream os_;                                            \
      os_ << "FAIL " << __FILE__ << ":" << __LINE__ << ": " << #a        \
          << " == " << #b << " (" << va_ << " vs " << vb_ << ")";        \
      std::puts(os_.str().c_str());                                      \
      std::fflush(stdout);                                               \
    }                                                                    \
  } while (0)

#define CHECK_THROWS(expr)                                               \
  do {                                                                   \
    ++bist_test::checks;                                                 \
    bool threw_ = false;                                                 \
    try {                                                                \
      (void)(expr);                                                      \
    } catch (const std::exception&) {                                    \
      threw_ = true;                                                     \
    }                                                                    \
    if (!threw_) {                                                       \
      ++bist_test::failures;                                             \
      std::printf("FAIL %s:%d: expected throw: %s\n", __FILE__,          \
                  __LINE__, #expr);                                      \
      std::fflush(stdout);                                               \
    }                                                                    \
  } while (0)
