#pragma once
// Cooperative deadlines and cancellation for the compute pipeline.
//
// Every long-running stage (fault simulation, PODEM, the mixed-scheme
// sweep, synthesis, verification) takes an optional trailing
// `const Deadline*` argument, never an options field, and polls it at a
// bounded cadence — per pattern-block group, per PODEM step, per sweep
// point — so cancellation latency is bounded by one unit of that
// granularity and a stage never has to be killed from outside.  A stage
// that stops early reports how far it got through a StageStatus carried in
// its result; the work it *did* complete is bit-identical to the same
// prefix of an uninterrupted run (the checks read the clock and a flag,
// never any state the computation depends on).
//
// Deadline is a value type: a monotonic-clock expiry (steady_clock, so
// wall-clock adjustments cannot fire or un-fire it) plus an optional
// CancelToken to observe.  A default-constructed Deadline never stops
// anything, so `const Deadline* = nullptr` and `&Deadline{}` behave the
// same and callers can thread one pointer through unconditionally.  A poll
// only reads: the clock, the token, and (test hook below) a poll counter.
// A job hands its one whole-job Deadline to every stage; within() derives a
// tighter copy (the sweep's own anytime deadline) that keeps its token.
//
// For deterministic tests there is a third trigger: after_checks(n)
// expires on the (n+1)-th poll regardless of elapsed time, which lets a
// test fire a deadline at an exact cooperative check without racing the
// clock.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/wallclock.hpp"

namespace bist {

/// Outcome of one pipeline stage, carried in results instead of thrown.
enum class StageCode : std::uint8_t {
  Ok,                ///< ran to completion
  DeadlineExceeded,  ///< stopped at a cooperative check: deadline expired
  Cancelled,         ///< stopped at a cooperative check: token cancelled
  Error,             ///< threw; message carries what()
  Rejected,          ///< never ran: shed at admission (overload/quarantine).
                     ///< Distinct from Error so shed load is distinguishable
                     ///< from failed work in every report.
};

std::string_view stage_code_name(StageCode c);  // "ok", "deadline_exceeded", ...

struct StageStatus {
  StageCode code = StageCode::Ok;
  std::string message;  ///< empty unless the code wants context

  bool ok() const { return code == StageCode::Ok; }
  bool operator==(const StageStatus&) const = default;
  static StageStatus error(std::string msg) {
    return {StageCode::Error, std::move(msg)};
  }
  static StageStatus deadline_exceeded(std::string msg = {}) {
    return {StageCode::DeadlineExceeded, std::move(msg)};
  }
  static StageStatus cancelled(std::string msg = {}) {
    return {StageCode::Cancelled, std::move(msg)};
  }
  static StageStatus rejected(std::string msg = {}) {
    return {StageCode::Rejected, std::move(msg)};
  }
};

/// Sticky cooperative cancel flag, safe to set from any thread while
/// workers poll it.  cancel() is one-way; reset() re-arms for reuse.
class CancelToken {
 public:
  void cancel() { flag_.store(true, std::memory_order_release); }
  void reset() { flag_.store(false, std::memory_order_release); }
  bool cancelled() const { return flag_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> flag_{false};
};

class Deadline {
 public:
  /// Never expires and observes no token.
  Deadline() = default;

  /// Expires `seconds` of monotonic time from now (<= 0 = already expired).
  static Deadline after(double seconds);
  /// Already expired; every poll reports DeadlineExceeded.
  static Deadline immediate() { return after(0); }
  /// Test hook: expires once expired() has been polled more than `polls`
  /// times (across all threads — the counter is atomic), independent of the
  /// clock.  Fires at an exact cooperative check, so tests of mid-flight
  /// degradation are deterministic in *whether* they fire, without racing
  /// real time.
  static Deadline after_checks(std::uint64_t polls);

  /// Observe `token` (may be nullptr to detach); the token must outlive
  /// every poll.  Returns *this for chaining.
  Deadline& observe(const CancelToken* token) {
    token_ = token;
    return *this;
  }

  /// A copy that also expires `seconds` of monotonic time from now: the
  /// earlier of the two expiries wins.  Token and poll budget carry over.
  Deadline within(double seconds) const;

  bool cancelled() const { return token_ && token_->cancelled(); }
  /// Clock/poll-count expiry only (cancellation is separate).
  bool expired() const;
  /// The one hot-loop predicate: cancelled or expired.
  bool should_stop() const { return cancelled() || expired(); }

  /// Cancelled wins over DeadlineExceeded (an explicit cancel is the
  /// stronger signal); Ok when neither fired.
  StageCode stop_code() const;
  /// StageStatus form of stop_code(), tagged with the stage that stopped.
  StageStatus stop_status(std::string_view where) const;

 private:
  bool has_expiry_ = false;
  WallClock::time_point expiry_{};
  /// Poll-count trigger (test hook); shared so Deadline stays copyable with
  /// all copies counting against the same budget.
  std::shared_ptr<std::atomic<std::uint64_t>> polls_left_;
  const CancelToken* token_ = nullptr;
};

}  // namespace bist
