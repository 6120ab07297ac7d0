#include "service/service.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "store/manifest.hpp"

namespace bist {

namespace {

using dsec = std::chrono::duration<double>;

double seconds_between(WallClock::time_point a, WallClock::time_point b) {
  return std::chrono::duration_cast<dsec>(b - a).count();
}

}  // namespace

// ---------------------------------------------------------------------------
// FairQueue

void FairQueue::push(QueuedJob j) {
  auto& ring = tiers_[j.priority];
  for (auto& cq : ring) {
    if (cq.client == j.client) {
      cq.jobs.push_back(std::move(j));
      ++size_;
      return;
    }
  }
  ring.push_back(ClientQ{j.client, {}});
  ring.back().jobs.push_back(std::move(j));
  ++size_;
}

bool FairQueue::pop(QueuedJob& out) {
  if (tiers_.empty()) return false;
  const auto tier = tiers_.begin();  // highest priority (std::greater order)
  auto& ring = tier->second;
  ClientQ& cq = ring.front();
  out = std::move(cq.jobs.front());
  cq.jobs.pop_front();
  --size_;
  if (cq.jobs.empty()) {
    ring.pop_front();
  } else {
    // Round-robin: the served client yields the front of its tier.
    ring.splice(ring.end(), ring, ring.begin());
  }
  if (ring.empty()) tiers_.erase(tier);
  return true;
}

std::vector<QueuedJob> FairQueue::drain_all() {
  std::vector<QueuedJob> out;
  out.reserve(size_);
  QueuedJob j;
  while (pop(j)) out.push_back(std::move(j));
  return out;
}

// ---------------------------------------------------------------------------
// Health rendering

std::string_view submit_code_name(SubmitCode c) {
  switch (c) {
    case SubmitCode::Accepted: return "accepted";
    case SubmitCode::Replayed: return "replayed";
    case SubmitCode::Overloaded: return "overloaded";
    case SubmitCode::Quarantined: return "quarantined";
    case SubmitCode::NotAccepting: return "not_accepting";
  }
  return "?";
}

namespace {

void json_kv(std::string& out, const char* key, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += '"';
  out += key;
  out += "\":";
  out += buf;
  out += ',';
}

void json_kv(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += '"';
  out += key;
  out += "\":";
  out += buf;
  out += ',';
}

}  // namespace

std::string health_json(const ServiceHealth& h) {
  std::string s = "{\"state\":\"";
  s += h.state;  // fixed token set, never needs escaping
  s += "\",";
  json_kv(s, "uptime_s", h.uptime_s);
  json_kv(s, "queue_depth", static_cast<std::uint64_t>(h.queue_depth));
  json_kv(s, "in_flight", static_cast<std::uint64_t>(h.in_flight));
  json_kv(s, "submitted", h.submitted);
  json_kv(s, "accepted", h.accepted);
  json_kv(s, "replayed", h.replayed);
  json_kv(s, "completed_ok", h.completed_ok);
  json_kv(s, "completed_error", h.completed_error);
  json_kv(s, "completed_stopped", h.completed_stopped);
  json_kv(s, "drain_dropped", h.drain_dropped);
  json_kv(s, "rejected_overload", h.rejected_overload);
  json_kv(s, "rejected_quarantine", h.rejected_quarantine);
  json_kv(s, "rejected_stopping", h.rejected_stopping);
  json_kv(s, "retried_jobs", h.retried_jobs);
  json_kv(s, "watchdog_kills", h.watchdog_kills);
  json_kv(s, "quarantined_names", h.quarantined_names);
  if (h.has_store) {
    s += "\"store\":{";
    json_kv(s, "hits", h.store.hits);
    json_kv(s, "misses", h.store.misses);
    json_kv(s, "stores", h.store.stores);
    json_kv(s, "store_failures", h.store.store_failures);
    json_kv(s, "quarantined", h.store.quarantined);
    const std::uint64_t looked = h.store.hits + h.store.misses;
    json_kv(s, "hit_rate",
            looked ? static_cast<double>(h.store.hits) / looked : 0.0);
    s.pop_back();  // trailing comma
    s += "},";
  }
  s.pop_back();  // trailing comma
  s += "}\n";
  return s;
}

// ---------------------------------------------------------------------------
// JobService

JobService::JobService(ServiceOptions opt, Sink sink)
    : opt_(std::move(opt)),
      sink_(std::move(sink)),
      ops_(opt_.ops ? opt_.ops : &FileOps::real()),
      start_(WallClock::now()),
      pool_(resolve_threads(opt_.threads)) {
  if (!opt_.manifest_path.empty()) {
    manifest_ = std::make_unique<BatchManifest>(opt_.manifest_path, ops_);
    if (opt_.resume) {
      manifest_->load();
    } else if (ops_->exists(opt_.manifest_path)) {
      // Fresh run: a stale journal would replay another corpus's results.
      ops_->remove_file(opt_.manifest_path);
    }
  }
  runner_ = std::thread([this] {
    pool_.run([this](unsigned) { worker_loop(); });
  });
  monitor_ = std::thread([this] { monitor_loop(); });
}

JobService::~JobService() { drain(0); }

JobReport JobService::rejection_report(const std::string& name,
                                       SubmitCode code) const {
  JobReport r;
  r.name = name;
  std::string msg = "admission: ";
  switch (code) {
    case SubmitCode::Overloaded:
      msg += "queue at high-water mark (limit " +
             std::to_string(opt_.queue_limit) + ")";
      break;
    case SubmitCode::Quarantined:
      msg += "job name quarantined after repeated watchdog kills";
      break;
    default:
      msg += "service is not accepting work";
      break;
  }
  r.status = StageStatus::rejected(std::move(msg));
  return r;
}

SubmitResult JobService::submit(JobSpec spec, std::string client,
                                int priority) {
  // The manifest key hashes the bench text — compute it outside the lock.
  const bool check_manifest = manifest_ && opt_.resume;
  Digest128 key{};
  if (check_manifest) key = job_key(spec);

  SubmitResult res;
  JobReport replay;
  {
    std::lock_guard<std::mutex> lk(mu_);
    res.ticket = ++submitted_;
    const JobReport* found = nullptr;
    if (state_ != State::Running) {
      res.code = SubmitCode::NotAccepting;
      ++rejected_stopping_;
    } else if (quarantined_.count(spec.name)) {
      res.code = SubmitCode::Quarantined;
      ++rejected_quarantine_;
    } else if (queue_.size() >= opt_.queue_limit) {
      res.code = SubmitCode::Overloaded;
      ++rejected_overload_;
    } else if (check_manifest && (found = manifest_->find(key)) != nullptr) {
      res.code = SubmitCode::Replayed;
      ++replayed_;
      replay = *found;
    } else {
      res.code = SubmitCode::Accepted;
      ++accepted_;
      queue_.push({std::move(spec), std::move(client), priority, res.ticket});
      cv_work_.notify_one();
    }
  }
  if (res.code == SubmitCode::Replayed) {
    replay.cache.consulted = true;
    replay.cache.manifest = true;
    if (!replay.cache.note.empty()) replay.cache.note += "; ";
    replay.cache.note += "replayed from manifest at admission";
    emit(replay);
  } else if (res.code != SubmitCode::Accepted) {
    emit(rejection_report(spec.name, res.code));
  }
  return res;
}

void JobService::worker_loop() {
  for (;;) {
    QueuedJob qj;
    std::shared_ptr<Inflight> slot;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] {
        return state_ != State::Running || queue_.size() > 0;
      });
      if (state_ == State::Stopping) return;
      if (!queue_.pop(qj)) {
        if (state_ != State::Running) return;  // draining, queue run down
        continue;                              // spurious wakeup
      }
      // Register the in-flight slot under the SAME critical section as the
      // pop, so a drain that cancels "everything in flight" can never miss
      // a job that was popped but not yet registered.
      slot = std::make_shared<Inflight>();
      slot->name = qj.spec.name;
      slot->start = WallClock::now();
      slot->timeout_s = qj.spec.job_timeout_s > 0 ? qj.spec.job_timeout_s
                                                  : opt_.watchdog_timeout_s;
      inflight_[qj.ticket] = slot;
    }
    // The service owns cancellation for jobs it runs.
    qj.spec.cancel = &slot->token;
    if (!qj.spec.store) qj.spec.store = opt_.store;

    const Digest128 key = manifest_ ? job_key(qj.spec) : Digest128{};
    JobReport rep = run_plan_job(qj.spec);

    // Journal BEFORE streaming: a report a consumer has seen is durable.
    if (manifest_ && rep.status.code == StageCode::Ok)
      manifest_->append(key, rep);
    {
      std::lock_guard<std::mutex> lk(mu_);
      inflight_.erase(qj.ticket);
      switch (rep.status.code) {
        case StageCode::Ok: ++completed_ok_; break;
        case StageCode::Error: ++completed_error_; break;
        default: ++completed_stopped_; break;
      }
      for (const auto& sr : rep.stages) {
        if (sr.attempts > 1) {
          ++retried_jobs_;
          break;
        }
      }
      cv_drain_.notify_all();
    }
    emit(rep);
  }
}

void JobService::monitor_loop() {
  const double period = opt_.health_period_s;
  auto next_health = WallClock::now() + std::chrono::duration_cast<
      WallClock::duration>(dsec(period > 0 ? period : 1.0));
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mon_mu_);
      if (cv_monitor_.wait_for(lk, dsec(kWatchdogPollS),
                               [&] { return monitor_stop_; }))
        return;  // drain writes the final snapshot after the join
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      const auto now = WallClock::now();
      for (auto& [ticket, slot] : inflight_) {
        (void)ticket;
        if (slot->killed || slot->timeout_s <= 0) continue;
        // A job polling its own deadline has stopped by now; past timeout +
        // grace it is overdue, whatever it is doing.
        if (seconds_between(slot->start, now) >
            slot->timeout_s + kWatchdogGraceS) {
          slot->killed = true;
          slot->token.cancel();
          ++watchdog_kills_;
          if (opt_.quarantine_after > 0 &&
              ++offenses_[slot->name] >= opt_.quarantine_after)
            quarantined_.insert(slot->name);
        }
      }
    }
    if (!opt_.health_path.empty() && period > 0 &&
        WallClock::now() >= next_health) {
      write_health_file();
      next_health = WallClock::now() +
                    std::chrono::duration_cast<WallClock::duration>(
                        dsec(period));
    }
  }
}

void JobService::drain(double deadline_s) {
  std::lock_guard<std::mutex> dguard(drain_mu_);
  std::vector<QueuedJob> dropped;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (state_ == State::Stopped) return;
    state_ = State::Draining;
    cv_work_.notify_all();
    const auto idle = [&] { return queue_.size() == 0 && inflight_.empty(); };
    bool clean = true;
    if (deadline_s < 0) {
      cv_drain_.wait(lk, idle);
    } else {
      clean = cv_drain_.wait_for(lk, dsec(deadline_s), idle);
    }
    state_ = State::Stopping;
    cv_work_.notify_all();
    if (!clean) {
      // Deadline passed: cancel in-flight work, drop the queue.  The wait
      // below is bounded by the pipeline's cooperative cancel latency.
      for (auto& [ticket, slot] : inflight_) {
        (void)ticket;
        slot->token.cancel();
      }
      dropped = queue_.drain_all();
      drain_dropped_ += dropped.size();
      cv_drain_.wait(lk, [&] { return inflight_.empty(); });
    }
  }
  // Accepted work is never silently lost: every dropped job still reports.
  for (const auto& qj : dropped) {
    JobReport r;
    r.name = qj.spec.name;
    r.status = StageStatus::cancelled("drain: dropped at drain deadline");
    emit(r);
  }
  if (runner_.joinable()) runner_.join();
  {
    std::lock_guard<std::mutex> lk(mon_mu_);
    monitor_stop_ = true;
    cv_monitor_.notify_all();
  }
  if (monitor_.joinable()) monitor_.join();
  {
    std::lock_guard<std::mutex> lk(mu_);
    state_ = State::Stopped;
  }
  write_health_file();  // final snapshot, state "stopped"
}

void JobService::emit(const JobReport& rep) {
  std::lock_guard<std::mutex> lk(emit_mu_);
  if (!sink_) return;
  try {
    sink_(rep);
  } catch (...) {
    ++sink_errors_;  // a bad consumer must not take a worker down
  }
}

ServiceHealth JobService::health_locked() const {
  ServiceHealth h;
  switch (state_) {
    case State::Running: h.state = "running"; break;
    case State::Draining: h.state = "draining"; break;
    case State::Stopping: h.state = "stopping"; break;
    case State::Stopped: h.state = "stopped"; break;
  }
  h.uptime_s = seconds_between(start_, WallClock::now());
  h.queue_depth = queue_.size();
  h.in_flight = inflight_.size();
  h.submitted = submitted_;
  h.accepted = accepted_;
  h.replayed = replayed_;
  h.completed_ok = completed_ok_;
  h.completed_error = completed_error_;
  h.completed_stopped = completed_stopped_;
  h.drain_dropped = drain_dropped_;
  h.rejected_overload = rejected_overload_;
  h.rejected_quarantine = rejected_quarantine_;
  h.rejected_stopping = rejected_stopping_;
  h.retried_jobs = retried_jobs_;
  h.watchdog_kills = watchdog_kills_;
  h.quarantined_names = quarantined_.size();
  if (opt_.store) {
    h.has_store = true;
    h.store = opt_.store->stats();
  }
  return h;
}

ServiceHealth JobService::health() const {
  std::lock_guard<std::mutex> lk(mu_);
  return health_locked();
}

bool JobService::accepting() const {
  std::lock_guard<std::mutex> lk(mu_);
  return state_ == State::Running;
}

std::vector<std::string> JobService::quarantined() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {quarantined_.begin(), quarantined_.end()};
}

void JobService::write_health_file() {
  if (opt_.health_path.empty()) return;
  const std::string body = health_json(health());
  atomic_write_file(*ops_, opt_.health_path,
                    {reinterpret_cast<const std::uint8_t*>(body.data()),
                     body.size()});
}

}  // namespace bist
