// Durability of the pipeline end to end: cache hits through run_plan_job
// (bit-identical to the computed sweep), corruption quarantined inside a job
// that still completes Ok, bounded deterministic retry for transient stage
// failures vs. fail-fast for deterministic ones, stripped report bytes that
// do not depend on thread count or word width, and the manifest's
// kill-and-resume contract through JobService — a resumed run's reports are
// byte-identical (volatile fields stripped) to a cold run's, a torn manifest
// tail replays everything before the tear, and a fresh run drops a stale
// journal.  The report's synth accounting equals a direct synthesis of its
// plan and survives the codec and the manifest.

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bist/synth.hpp"
#include "circuits/iscas85_family.hpp"
#include "netlist/bench_io.hpp"
#include "pipeline/job.hpp"
#include "store/manifest.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "store/serialize.hpp"
#include "service_util.hpp"
#include "test_util.hpp"
#include "util/fileio.hpp"
#include "util/hash.hpp"

using namespace bist;
namespace fs = std::filesystem;

namespace {

JobSpec make_spec(const std::string& name) {
  JobSpec s;
  s.name = name;
  s.bench_text = write_bench(make_iscas85(name));
  s.sweep_lengths = {32, 128};
  s.tpg.lfsr_patterns = 128;
  s.tpg.podem.backtrack_limit = 50;
  s.retry.backoff_s = 0.0005;  // keep retry tests fast
  return s;
}

const StageReport* find_stage(const JobReport& r, std::string_view name) {
  for (const StageReport& s : r.stages)
    if (s.name == name) return &s;
  return nullptr;
}

// ---------------------------------------------------------------------------
void test_cache_hit_through_job(ResultStore& store) {
  JobSpec spec = make_spec("c432s");
  spec.store = &store;

  const JobReport cold = run_plan_job(spec);
  CHECK(cold.status.ok());
  CHECK(cold.wrapper_ok);
  CHECK(cold.cache.consulted);
  CHECK(!cold.cache.hit);
  CHECK(cold.cache.stored);

  const JobReport warm = run_plan_job(spec);
  CHECK(warm.status.ok());
  CHECK(warm.wrapper_ok);
  CHECK(warm.cache.hit);
  CHECK(!warm.cache.stored);  // nothing to publish on a hit
  // The served sweep is byte-identical to the computed one — timings
  // included, because the record IS the cold run's serialization.
  CHECK(serialize_sweep(warm.sweep) == serialize_sweep(cold.sweep));
  // Downstream stages run on identical data -> identical hardware.
  CHECK(warm.wrapper_bench == cold.wrapper_bench);
  const StageReport* sr = find_stage(warm, "sweep");
  CHECK(sr && sr->note.find("hit") != std::string::npos);
  // Overall differential: stripped reports are byte-equal.
  CHECK(stripped_bytes(warm) == stripped_bytes(cold));
}

// ---------------------------------------------------------------------------
void test_quarantine_through_job(ResultStore& store) {
  JobSpec spec = make_spec("c432s");
  spec.store = &store;

  const JobReport baseline = run_plan_job(spec);
  CHECK(baseline.status.ok());
  const Netlist n = read_bench(spec.bench_text);
  const Digest128 key = sweep_cache_key(n, spec.sweep_lengths, spec.tpg);
  const std::string path = store.sweep_path(key);
  std::vector<std::uint8_t> good;
  CHECK(FileOps::real().read_file(path, good));

  using Mangle = std::vector<std::uint8_t> (*)(std::vector<std::uint8_t>);
  const Mangle cases[] = {
      [](std::vector<std::uint8_t> b) {  // truncated mid-payload
        b.resize(b.size() / 2);
        return b;
      },
      [](std::vector<std::uint8_t> b) {  // bit rot in the payload
        b[b.size() - 1] ^= 0x80;
        return b;
      },
      [](std::vector<std::uint8_t> b) {  // future format version
        b[4] += 1;
        return b;
      },
      [](std::vector<std::uint8_t> b) {  // checksum-valid garbage payload
        (void)b;
        return std::vector<std::uint8_t>();  // replaced below with a frame
      },
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    std::vector<std::uint8_t> bad = cases[i](good);
    if (bad.empty()) bad = frame_record(key, std::vector<std::uint8_t>(32, 0xFF));
    CHECK(FileOps::real().write_file(path, bad));

    // The job must complete Ok: quarantine + recompute, never an exception.
    const JobReport rep = run_plan_job(spec);
    CHECK(rep.status.ok());
    CHECK(rep.wrapper_ok);
    CHECK(rep.cache.quarantined);
    CHECK(!rep.cache.hit);
    CHECK(rep.cache.stored);  // recomputed result re-published
    const StageReport* sr = find_stage(rep, "sweep");
    CHECK(sr && !sr->note.empty());
    // The recomputation matches the baseline, work for work.
    CHECK(serialize_sweep(rep.sweep) == serialize_sweep(baseline.sweep));
    CHECK(fs::exists(path));  // healed for the next consumer
  }
}

// ---------------------------------------------------------------------------
void test_retry_and_fail_fast() {
  // Two transient faults, three attempts: the third try wins.
  {
    set_injected_failure("sweep", "c17", /*times=*/2, InjectedFailure::Transient);
    JobSpec spec = make_spec("c17");
    spec.retry.attempts = 3;
    const JobReport rep = run_plan_job(spec);
    clear_injected_failure();
    CHECK(rep.status.ok());
    CHECK(rep.wrapper_ok);
    const StageReport* sr = find_stage(rep, "sweep");
    CHECK(sr && sr->attempts == 3);
    CHECK(sr && sr->note.find("transient") != std::string::npos);
  }
  // Transient faults outlasting the budget: Error after exactly `attempts`.
  {
    set_injected_failure("sweep", "c17", /*times=*/-1, InjectedFailure::Transient);
    JobSpec spec = make_spec("c17");
    spec.retry.attempts = 2;
    const JobReport rep = run_plan_job(spec);
    clear_injected_failure();
    CHECK(rep.status.code == StageCode::Error);
    const StageReport* sr = find_stage(rep, "sweep");
    CHECK(sr && sr->attempts == 2);
  }
  // Deterministic failure: fail fast on the first attempt, retries unspent.
  {
    set_injected_failure("sweep", "c17", /*times=*/-1, InjectedFailure::Error);
    JobSpec spec = make_spec("c17");
    spec.retry.attempts = 3;
    const JobReport rep = run_plan_job(spec);
    clear_injected_failure();
    CHECK(rep.status.code == StageCode::Error);
    const StageReport* sr = find_stage(rep, "sweep");
    CHECK(sr && sr->attempts == 1);
  }
  // The classifier itself.
  CHECK(is_transient_error(TransientError("blip")));
  CHECK(is_transient_error(
      std::system_error(std::make_error_code(std::errc::io_error))));
  CHECK(!is_transient_error(std::runtime_error("logic bug")));
}

// ---------------------------------------------------------------------------
// Engine configuration (worker count, pattern word width) is excluded from
// the sweep cache key, so a hit may be served to a job running a different
// configuration: the stripped report must therefore not depend on it.
void test_stripped_engine_config_invariance() {
  std::vector<std::uint8_t> first;
  for (const auto& [threads, width] :
       {std::pair{1u, 1u}, {3u, 1u}, {1u, 4u}, {2u, 4u}}) {
    JobSpec spec = make_spec("c432s");
    spec.tpg.fsim.threads = threads;
    spec.tpg.fsim.word_width = width;
    spec.tpg.podem_threads = threads;
    const JobReport r = run_plan_job(spec);
    CHECK(r.status.ok());
    const std::vector<std::uint8_t> bytes = stripped_bytes(r);
    if (first.empty()) first = bytes;
    CHECK(bytes == first);
  }
}

// ---------------------------------------------------------------------------
void test_manifest_resume(ResultStore& store) {
  const std::string mp = "jobstore_manifest.bin";
  fs::remove(mp);

  const std::vector<JobSpec> specs = {make_spec("c17"), make_spec("c432s")};

  // Cold baseline: no store, no manifest.
  ServiceOptions cold_opt;
  cold_opt.threads = 2;
  const std::vector<JobReport> cold = run_specs(specs, cold_opt);
  CHECK_EQ(cold.size(), 2u);
  CHECK(cold[0].status.ok() && cold[1].status.ok());

  // "Crashed" run: only the first job completed before the kill.
  ServiceOptions opt;
  opt.threads = 2;
  opt.store = &store;
  opt.manifest_path = mp;
  const std::vector<JobSpec> partial = {specs[0]};
  ServiceHealth h;
  const std::vector<JobReport> before = run_specs(partial, opt, &h);
  CHECK(before[0].status.ok());
  CHECK_EQ(h.replayed, 0u);
  CHECK_EQ(BatchManifest(mp).load(), 1u);  // the finished job is journaled

  // Resume: the finished job replays from the journal, the other computes.
  opt.resume = true;
  const std::vector<JobReport> resumed = run_specs(specs, opt, &h);
  CHECK_EQ(h.replayed, 1u);
  CHECK(resumed[0].cache.manifest);
  CHECK(!resumed[1].cache.manifest);
  CHECK(resumed[0].status.ok() && resumed[1].status.ok());
  // The kill-and-resume differential: byte-identical to the cold run once
  // timings/attempts/cache provenance are stripped.
  for (std::size_t i = 0; i < specs.size(); ++i)
    CHECK(stripped_bytes(resumed[i]) == stripped_bytes(cold[i]));

  // Torn tail: garbage after the last intact frame (the SIGKILL shape).
  {
    const std::vector<std::uint8_t> junk = {'B', 'S', 'T', 0x00, 0x13, 0x37};
    CHECK(FileOps::real().append_file(mp, junk));
    BatchManifest m(mp);
    CHECK_EQ(m.load(), 2u);  // both completed jobs journaled before the tear
    const std::vector<JobReport> again = run_specs(specs, opt, &h);
    CHECK_EQ(h.replayed, 2u);  // everything before the tear replays
    for (std::size_t i = 0; i < specs.size(); ++i)
      CHECK(stripped_bytes(again[i]) == stripped_bytes(cold[i]));
  }

  // Fresh (non-resume) run with a manifest path starts a fresh journal.
  {
    opt.resume = false;
    run_specs(partial, opt, &h);
    CHECK_EQ(h.replayed, 0u);
    BatchManifest m(mp);
    CHECK_EQ(m.load(), 1u);  // stale journal was removed, one new entry
  }

  fs::remove(mp);
}

// ---------------------------------------------------------------------------
// A resumed journal replays its own appends: load() stops at a bad frame (a
// torn half-frame, or a frame of an older format version) and cuts it off
// the file, so entries appended after the resume are not hidden behind it.
void test_manifest_cuts_bad_frame() {
  const std::string mp = "jobstore_cut_manifest.bin";
  const JobReport rep = run_plan_job(make_spec("c17"));
  const Digest128 k1{1, 1};
  const Digest128 k2{2, 2};
  const std::vector<std::uint8_t> good =
      frame_record(k1, serialize_job_report(rep));
  std::vector<std::uint8_t> torn = frame_record(k2, serialize_job_report(rep));
  torn.resize(torn.size() / 2);
  std::vector<std::uint8_t> old = frame_record(k2, serialize_job_report(rep));
  old[4] = 3;  // header version, little-endian u32 at offset 4
  CHECK(parse_record(old).check == RecordCheck::BadVersion);
  for (const std::vector<std::uint8_t>& bad : {torn, old}) {
    fs::remove(mp);
    CHECK(FileOps::real().append_file(mp, good));
    CHECK(FileOps::real().append_file(mp, bad));
    BatchManifest resumed(mp);
    CHECK_EQ(resumed.load(), 1u);
    CHECK_EQ(fs::file_size(mp), good.size());  // bad frame cut off
    CHECK(resumed.append(k2, rep));
    BatchManifest next(mp);
    CHECK_EQ(next.load(), 2u);
    CHECK(next.find(k1) != nullptr);
    CHECK(next.find(k2) != nullptr);
  }
  fs::remove(mp);
}

// ---------------------------------------------------------------------------
// The synth accounting in the report is the synth stage's exact result, and
// every field of it is in the report's walk: a codec round trip and a
// manifest replay return it unchanged.
void test_synth_accounting() {
  const std::string mp = "jobstore_synth_manifest.bin";
  const auto same = [](const SynthAccounting& a, const SynthAccounting& b) {
    const BistArea& x = a.actual;
    const BistArea& y = b.actual;
    return x.lfsr == y.lfsr && x.rom == y.rom && x.seed_rom == y.seed_rom &&
           x.controller == y.controller && x.mux == y.mux &&
           x.misr == y.misr && x.rom_bits == y.rom_bits &&
           x.seed_rom_bits == y.seed_rom_bits && x.misr_bits == y.misr_bits &&
           x.state_bits == y.state_bits && a.bist_gates == b.bist_gates &&
           a.counter_bits == b.counter_bits &&
           a.wrapper_gates == b.wrapper_gates;
  };
  for (const char* name : {"c432s", "c880s"}) {
    for (const bool compress : {true, false}) {
      JobSpec spec = make_spec(name);
      spec.tpg.compress = compress;
      const JobReport rep = run_plan_job(spec);
      CHECK(rep.status.ok());
      CHECK(rep.wrapper_ok);

      const BistSynthResult syn =
          synthesize_bist_wrapper(read_bench(spec.bench_text, name), rep.plan);
      const SynthAccounting direct{syn.actual, syn.bist_gates,
                                   syn.counter_bits, syn.wrapper.gate_count()};
      CHECK(same(rep.synth, direct));
      CHECK(rep.synth.bist_gates > 0 && rep.synth.counter_bits > 0);
      CHECK(rep.wrapper_bench == write_bench(syn.wrapper));

      CHECK(same(deserialize_job_report(serialize_job_report(rep)).synth,
                 direct));

      fs::remove(mp);
      const Digest128 key = job_key(spec);
      CHECK(BatchManifest(mp).append(key, rep));
      BatchManifest m(mp);
      CHECK_EQ(m.load(), 1u);
      const JobReport* replayed = m.find(key);
      CHECK(replayed && same(replayed->synth, direct));
    }
  }
  fs::remove(mp);
}

}  // namespace

int main() {
  const std::string dir = "jobstore_dir";
  fs::remove_all(dir);
  {
    ResultStore store({dir, nullptr});
    test_cache_hit_through_job(store);
    test_quarantine_through_job(store);
    test_retry_and_fail_fast();
    test_stripped_engine_config_invariance();
    test_manifest_resume(store);
  }
  test_manifest_cuts_bad_frame();
  test_synth_accounting();
  fs::remove_all(dir);
  return bist_test::summary();
}
