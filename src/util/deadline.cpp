#include "util/deadline.hpp"

namespace bist {

std::string_view stage_code_name(StageCode c) {
  switch (c) {
    case StageCode::Ok: return "ok";
    case StageCode::DeadlineExceeded: return "deadline_exceeded";
    case StageCode::Cancelled: return "cancelled";
    case StageCode::Error: return "error";
    case StageCode::Rejected: return "rejected";
  }
  return "?";
}

Deadline Deadline::after(double seconds) {
  Deadline d;
  d.has_expiry_ = true;
  d.expiry_ = WallClock::now() +
              std::chrono::duration_cast<WallClock::duration>(
                  std::chrono::duration<double>(seconds < 0 ? 0 : seconds));
  return d;
}

Deadline Deadline::after_checks(std::uint64_t polls) {
  Deadline d;
  d.polls_left_ = std::make_shared<std::atomic<std::uint64_t>>(polls);
  return d;
}

Deadline Deadline::within(double seconds) const {
  Deadline d = *this;
  const Deadline cap = after(seconds);
  if (!d.has_expiry_ || cap.expiry_ < d.expiry_) {
    d.has_expiry_ = true;
    d.expiry_ = cap.expiry_;
  }
  return d;
}

bool Deadline::expired() const {
  if (polls_left_) {
    // fetch_sub with saturation: once the budget is gone every further poll
    // reports expired without wrapping the counter.
    std::uint64_t left = polls_left_->load(std::memory_order_relaxed);
    while (left > 0) {
      if (polls_left_->compare_exchange_weak(left, left - 1,
                                             std::memory_order_relaxed))
        return false;
    }
    return true;
  }
  return has_expiry_ && WallClock::now() >= expiry_;
}

StageCode Deadline::stop_code() const {
  if (cancelled()) return StageCode::Cancelled;
  if (expired()) return StageCode::DeadlineExceeded;
  return StageCode::Ok;
}

StageStatus Deadline::stop_status(std::string_view where) const {
  const StageCode c = stop_code();
  if (c == StageCode::Ok) return {};
  std::string msg{where};
  msg += c == StageCode::Cancelled ? ": cancelled" : ": deadline exceeded";
  return {c, std::move(msg)};
}

}  // namespace bist
