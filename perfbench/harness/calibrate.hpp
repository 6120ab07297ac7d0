#pragma once
// Host-speed reference.  On a shared host the same code runs up to twice as
// fast or slow as other tenants' load changes, over minutes.  The harness
// times a fixed piece of work of its own next to the jobs and rescales the
// jobs' host times to a nominal reference time, so that the figures follow
// the program, not the host's state.  The work's code and data belong to the
// harness: no change to the program moves its cost.

#include <vector>

namespace perfbench {

struct ReferenceRun {
  double wall_s = 0;
  double cpu_s = 0;  ///< the calling thread's CPU time
};

/// One unit of reference work on the calling thread: a word-parallel
/// evaluation of a fixed random gate network, the same kind of branchy,
/// table-walking work as the program's simulators.
ReferenceRun reference_run();

/// A fixed reference wall time, a little below that of a quiet host of the
/// kind the benchmark was tuned on.  Only its constancy matters.
constexpr double kReferenceNominalS = 1.4e-3;

/// kReferenceNominalS over the median of reference wall times taken next to
/// some work: multiply that work's host seconds by it (divide rates) to get
/// seconds at the nominal host speed.  1 when there are no samples.
double speed_factor(std::vector<double> reference_samples);

/// speed_factor() of `runs` reference runs on each of `threads` threads at
/// once, as loaded as the host is when that many workers are busy.
double measure_speed(unsigned threads, int runs);

}  // namespace perfbench
