#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>

namespace perfbench {
namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

// Length of the union of [b, e) intervals clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_b = 0, cur_e = 0;
  bool open = false;
  for (auto [b, e] : iv) {
    b = std::max(b, lo);
    e = std::min(e, hi);
    if (e <= b) continue;
    if (open && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_b;
    cur_b = b;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_b;
  return total;
}

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

std::int64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

int Tracer::begin(const char* name, int parent, std::uint32_t job,
                  bool probe) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.job = job;
  s.tid = thread_number();
  s.probe = probe;
  s.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<LayerRow> aggregate_layers(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t d = s.end_ns - s.start_ns;
    durations[s.name].push_back(double(d) * 1e-9);
    self[s.name] +=
        double(d - covered_ns(children[i], s.start_ns, s.end_ns)) * 1e-9;
  }
  std::vector<LayerRow> rows;
  for (auto& [name, ds] : durations) {
    LayerRow r;
    r.name = name;
    r.count = ds.size();
    for (const double d : ds) r.total_s += d;
    r.self_s = self[name];
    std::sort(ds.begin(), ds.end());
    const std::size_t m = ds.size() / 2;
    r.median_s = ds.size() % 2 ? ds[m] : 0.5 * (ds[m - 1] + ds[m]);
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.total_s > b.total_s;
  });
  return rows;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"job\":%u}}",
                  i ? "," : "", s.name, s.probe ? "probe" : "stage", s.tid,
                  double(s.start_ns) / 1e3,
                  double(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.job);
    os << buf;
  }
  os << "\n]}\n";
  return os.str();
}

std::string layer_table_text(const std::vector<LayerRow>& rows) {
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-18s %7s %12s %12s %12s\n", "layer",
                "count", "total_s", "self_s", "median_s");
  os << buf;
  for (const LayerRow& r : rows) {
    std::snprintf(buf, sizeof buf, "%-18s %7zu %12.6f %12.6f %12.6f\n",
                  r.name.c_str(), r.count, r.total_s, r.self_s, r.median_s);
    os << buf;
  }
  return os.str();
}

}  // namespace perfbench
