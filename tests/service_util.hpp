#pragma once
// Shared support for the suites that run plan jobs through JobService: the
// stripped-report oracle, a thread-safe report sink, and a submit-and-drain
// runner that hands the reports back in spec order.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pipeline/job.hpp"
#include "service/service.hpp"
#include "store/serialize.hpp"
#include "test_util.hpp"

// Serialized job-report bytes with attempt/note/cache fields cleared: the
// differential oracle for "same work, different run".  It covers every
// persisted field — plan, sweep, synth accounting, verification and the
// wrapper netlist.
inline std::vector<std::uint8_t> stripped_bytes(bist::JobReport r) {
  bist::strip_volatile(r);
  return bist::serialize_job_report(r);
}

// Thread-safe sink that records every streamed report in emission order.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<bist::JobReport> reports;

  void add(const bist::JobReport& r) {
    {
      std::lock_guard<std::mutex> lk(mu);
      reports.push_back(r);
    }
    cv.notify_all();
  }
  bist::JobService::Sink sink() {
    return [this](const bist::JobReport& r) { add(r); };
  }
  bool wait_count(std::size_t n, double timeout_s = 30.0) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, std::chrono::duration<double>(timeout_s),
                       [&] { return reports.size() >= n; });
  }
  std::size_t count() {
    std::lock_guard<std::mutex> lk(mu);
    return reports.size();
  }
  // Copy of the report for `name`; CHECK-fails (and returns empty) if absent.
  bist::JobReport find(std::string_view name) {
    std::lock_guard<std::mutex> lk(mu);
    for (const bist::JobReport& r : reports)
      if (r.name == name) return r;
    CHECK(!"report not found");
    return {};
  }
  std::vector<std::string> names() {
    std::lock_guard<std::mutex> lk(mu);
    std::vector<std::string> out;
    for (const bist::JobReport& r : reports) out.push_back(r.name);
    return out;
  }
};

// Runs `specs` through one JobService built from `opt` — every spec
// submitted in order with the default client and priority 0, then drained —
// and returns the reports in spec order (matched by name, so names must be
// unique).  The queue holds every spec, so nothing is shed.  `health`, when
// given, receives the drained service's counters.
inline std::vector<bist::JobReport> run_specs(
    const std::vector<bist::JobSpec>& specs, bist::ServiceOptions opt,
    bist::ServiceHealth* health = nullptr) {
  opt.queue_limit = std::max<std::size_t>(1, specs.size());
  Collector col;
  bist::JobService svc(std::move(opt), col.sink());
  for (const bist::JobSpec& s : specs) {
    const bist::SubmitCode c = svc.submit(s).code;
    CHECK(c == bist::SubmitCode::Accepted || c == bist::SubmitCode::Replayed);
  }
  svc.drain(-1);
  if (health) *health = svc.health();
  std::vector<bist::JobReport> out;
  for (const bist::JobSpec& s : specs) out.push_back(col.find(s.name));
  return out;
}
