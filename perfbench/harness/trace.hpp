#pragma once
// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a layer, timed from outside the library: name,
// start, end, the span that caused it, and the id of the job it belongs to.
// Probe spans re-run a sweep sub-layer outside the sweep to time it on its
// own; they are parented to the job (never to the sweep), so a span's self
// time — its duration minus the part of it its children cover — never
// counts the same interval twice.  Spans stay in memory until the run ends
// and are then written as Chrome trace-event JSON (opens offline in
// Perfetto) and as an aggregated per-layer table.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";      ///< layer name, a string literal
  std::int64_t start_ns = 0;  ///< steady clock, since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index of the causing span, -1 for a root
  std::uint32_t job = 0;      ///< shared by every span of one job
  std::uint32_t tid = 0;      ///< small per-thread number
  bool probe = false;
};

class Tracer {
 public:
  Tracer();
  /// Open a span; returns its id (an index into spans()).
  int begin(const char* name, int parent, std::uint32_t job,
            bool probe = false);
  void end(int id);
  std::vector<Span> spans() const;

 private:
  std::int64_t now_ns() const;

  const std::int64_t epoch_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Closes its span when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, int parent, std::uint32_t job,
             bool probe = false)
      : t_(t), id_(t.begin(name, parent, job, probe)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// One row of the per-layer table.
struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_s = 0;   ///< summed span durations
  double self_s = 0;    ///< summed durations minus time covered by children
  double median_s = 0;  ///< median span duration
};

/// Aggregate spans by name, sorted by descending total time.
std::vector<LayerRow> aggregate_layers(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, microseconds); the span id,
/// parent, job and probe flag travel in each event's args.
std::string chrome_trace_json(const std::vector<Span>& spans);

/// Fixed-width text rendering of the per-layer table.
std::string layer_table_text(const std::vector<LayerRow>& rows);

}  // namespace perfbench
