#pragma once
// Batch manifest checkpoint: an append-only journal of completed JobReports
// keyed by job hash, so a JobService run (a `--jobs` corpus or a long-lived
// `--serve` process) killed mid-way resumes from the jobs that finished
// instead of starting over.
//
// The file is a sequence of framed records (store/record) written with a
// single fsync'd append each — appends are whole frames, so a crash can
// only truncate the TAIL.  load() is therefore tolerant by design: it walks
// records front to back and stops at the first bad frame (a torn tail is
// expected after SIGKILL, not corruption worth quarantining; a frame of an
// older format version ends the replay the same way); everything before the
// bad frame replays, and load() rewrites the file to that good prefix so
// the appends that follow are replayed by the next load().  Duplicate keys
// keep the last occurrence.
//
// Thread safety: append() serializes under a mutex (many worker threads
// finish jobs concurrently) and touches only the file; load() is for the
// single-threaded setup before any job runs, after which find() reads the
// recovered entries concurrently with appends.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "pipeline/job.hpp"
#include "util/fileio.hpp"
#include "util/hash.hpp"

namespace bist {

class BatchManifest {
 public:
  explicit BatchManifest(std::string path, FileOps* ops = nullptr);

  /// Replay the journal; returns the number of reports recovered (torn or
  /// corrupt tails are dropped from the file too — see header notes; a
  /// failed rewrite is ignored).  Never throws.
  std::size_t load();

  /// Report recovered for `key`, or nullptr.  Valid until the next load().
  const JobReport* find(const Digest128& key) const;

  /// Append one completed job (serialized, framed, fsync'd) under a mutex.
  /// False on I/O failure — the batch keeps running, resume just loses this
  /// checkpoint.  Never throws.
  bool append(const Digest128& key, const JobReport& rep);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  FileOps* ops_;
  std::mutex mu_;
  std::vector<std::pair<Digest128, JobReport>> entries_;
};

}  // namespace bist
