#include "store/serialize.hpp"

#include <bit>
#include <concepts>
#include <type_traits>

namespace bist {
namespace {

// ---------------------------------------------------------------------------
// Primitive writer / bounds-checked reader.  The two share one surface —
// every primitive takes the field by reference (const& to write, & to read)
// — so each struct's layout is stated once, by a walk() templated on both.
// ---------------------------------------------------------------------------

class ByteWriter {
 public:
  std::vector<std::uint8_t> take() { return std::move(out_); }

  void u8(const std::uint8_t& v) { out_.push_back(v); }
  void b(const bool& v) { out_.push_back(v ? 1 : 0); }
  void u16(const std::uint16_t& v) { le<2>(v); }
  void u32(const std::uint32_t& v) { le<4>(v); }
  void u64(const std::uint64_t& v) { le<8>(v); }
  void i16(const std::int16_t& v) { le<2>(static_cast<std::uint16_t>(v)); }
  void i64(const std::int64_t& v) { le<8>(static_cast<std::uint64_t>(v)); }
  void f64(const double& v) { le<8>(std::bit_cast<std::uint64_t>(v)); }
  void sz(const std::size_t& v) { le<8>(v); }
  void str(const std::string& s) {
    sz(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void bitvec(const BitVec& v) {
    sz(v.size());
    for (std::size_t w = 0; w < v.word_count(); ++w) u64(v.word(w));
  }
  /// Element count, then each element.
  template <class T, class Elem>
  void seq(const std::vector<T>& v, std::size_t /*min_elem_bytes*/,
           Elem&& elem) {
    sz(v.size());
    for (const T& x : v) elem(x);
  }
  /// An enum as its u8 value.
  template <class E>
  void code(const E& e, E /*max*/) {
    out_.push_back(static_cast<std::uint8_t>(e));
  }

 private:
  template <int bytes>
  void le(std::uint64_t v) {
    const std::size_t at = out_.size();
    out_.resize(at + bytes);
    for (int i = 0; i < bytes; ++i) out_[at + i] = std::uint8_t(v >> (8 * i));
  }

  std::vector<std::uint8_t> out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("store payload: ") + what);
  }
  bool done() const { return pos_ == bytes_.size(); }

  void u8(std::uint8_t& v) { v = std::uint8_t(le<1>()); }
  void b(bool& v) {
    const std::uint64_t x = le<1>();
    if (x > 1) fail("bad bool");
    v = x != 0;
  }
  void u16(std::uint16_t& v) { v = std::uint16_t(le<2>()); }
  void u32(std::uint32_t& v) { v = std::uint32_t(le<4>()); }
  void u64(std::uint64_t& v) { v = le<8>(); }
  void i16(std::int16_t& v) { v = static_cast<std::int16_t>(le<2>()); }
  void i64(std::int64_t& v) { v = static_cast<std::int64_t>(le<8>()); }
  void f64(double& v) { v = std::bit_cast<double>(le<8>()); }
  void sz(std::size_t& v) {
    const std::uint64_t x = le<8>();
    if (x > std::size_t(-1)) fail("size overflow");
    v = static_cast<std::size_t>(x);
  }
  void str(std::string& s) {
    const std::size_t n = count(1);
    s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
  }
  void bitvec(BitVec& v) {
    std::size_t n = 0;
    sz(n);
    const std::size_t words = (n + 63) / 64;
    if (words > remaining() / 8) fail("bad bitvec");
    v = BitVec(n);
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t word = le<8>();
      if (w + 1 == words && n % 64 != 0 && (word >> (n % 64)) != 0)
        fail("bitvec tail bits set");
      v.word(w) = word;
    }
  }
  /// Element count — bounded by the bytes actually present, each element
  /// taking >= `min_elem_bytes`, so a corrupted count can never drive a huge
  /// allocation — then each element.
  template <class T, class Elem>
  void seq(std::vector<T>& v, std::size_t min_elem_bytes, Elem&& elem) {
    v.resize(count(min_elem_bytes));
    for (T& x : v) elem(x);
  }
  /// An enum stored as u8; values above `max` are rejected.
  template <class E>
  void code(E& e, E max) {
    const std::uint64_t x = le<1>();
    if (x > static_cast<std::uint8_t>(max)) fail("bad enum");
    e = static_cast<E>(x);
  }

 private:
  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t count(std::size_t min_elem_bytes) {
    std::size_t n = 0;
    sz(n);
    if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes)
      fail("bad count");
    return n;
  }
  template <int bytes>
  std::uint64_t le() {
    if (remaining() < std::size_t(bytes)) fail("truncated payload");
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
      v |= std::uint64_t(bytes_[pos_++]) << (8 * i);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Field walks: one per persisted struct, shared by writer and reader.  `T`
// is the struct (reading) or the const struct (writing).
// ---------------------------------------------------------------------------

template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

template <class Io, Is<StageStatus> T>
void walk(Io& io, T& s) {
  io.code(s.code, StageCode::Rejected);
  io.str(s.message);
}

template <class Io, Is<MisrSpec> T>
void walk(Io& io, T& m) {
  io.u32(m.degree);
  io.u64(m.taps);
  io.seq(m.fold, 2, [&](auto& f) { io.u16(f); });
}

template <class Io, Is<CompressedTopoff> T>
void walk(Io& io, T& c) {
  io.b(c.enabled);
  io.u32(c.degree);
  io.seq(c.seeds, 16, [&](auto& e) {
    io.u32(e.row);
    io.u32(e.offset);
    io.u64(e.seed);
  });
  io.seq(c.fallback, 1, [&](auto& f) { io.u8(f); });
  walk(io, c.misr);
  io.u64(c.golden);
  io.sz(c.cut_outputs);
}

template <class Io, Is<std::vector<Fault>> T>
void walk(Io& io, T& fs) {
  io.seq(fs, 7, [&](auto& f) {
    io.u32(f.gate);
    io.i16(f.pin);
    io.u8(f.stuck);
  });
}

template <class Io, Is<MixedSchemeResult> T>
void walk(Io& io, T& p) {
  io.sz(p.lfsr_patterns);
  io.sz(p.tail_faults);
  io.sz(p.podem_detected);
  io.sz(p.redundant);
  io.sz(p.aborted);
  io.u64(p.podem_backtracks);
  io.u64(p.podem_decisions);
  io.sz(p.topoff_before_compaction);
  io.sz(p.topoff_patterns);
  io.seq(p.topoff, 8, [&](auto& t) { io.bitvec(t); });
  walk(io, p.comp);
  walk(io, p.redundant_faults);
  walk(io, p.aborted_faults);
  io.f64(p.lfsr_coverage);
  io.f64(p.lfsr_coverage_weighted);
  io.f64(p.final_coverage);
  io.f64(p.final_coverage_weighted);
  io.b(p.all_verified);
  io.code(p.state, PointState::Skipped);
  walk(io, p.status);
}

template <class Io, Is<MixedSweepResult> T>
void walk(Io& io, T& s) {
  io.seq(s.lengths, 8, [&](auto& l) { io.sz(l); });
  io.sz(s.width);
  io.sz(s.stats.podem_calls);
  io.sz(s.stats.podem_cache_hits);
  walk(io, s.status);
  io.seq(s.points, 1, [&](auto& p) { walk(io, p); });
}

template <class Io, Is<BistArea> T>
void walk(Io& io, T& a) {
  io.f64(a.lfsr);
  io.f64(a.rom);
  io.f64(a.seed_rom);
  io.f64(a.controller);
  io.f64(a.mux);
  io.f64(a.misr);
  io.sz(a.rom_bits);
  io.sz(a.seed_rom_bits);
  io.sz(a.misr_bits);
  io.sz(a.state_bits);
}

template <class Io, Is<BistPlan> T>
void walk(Io& io, T& p) {
  io.sz(p.point_index);
  io.sz(p.lfsr_patterns);
  io.sz(p.topoff_patterns);
  io.sz(p.test_time);
  io.sz(p.rom_bits);
  io.f64(p.cost);
  io.f64(p.knee_distance);
  walk(io, p.area);
  io.f64(p.area_model.and2);
  io.f64(p.area_model.xor2);
  io.f64(p.area_model.not1);
  io.f64(p.area_model.buf1);
  io.f64(p.area_model.flipflop);
  io.u32(p.lfsr_degree);
  io.u64(p.lfsr_taps);
  io.u64(p.lfsr_seed);
  io.sz(p.width);
  io.seq(p.topoff, 8, [&](auto& t) { io.bitvec(t); });
  walk(io, p.comp);
  io.f64(p.lfsr_coverage);
  io.f64(p.final_coverage);
  io.f64(p.final_coverage_weighted);
  io.b(p.degraded);
  io.seq(p.candidates, 8 * 9 + 8 * 3 + 1, [&](auto& c) {
    io.sz(c.point_index);
    io.sz(c.length);
    io.sz(c.topoff_patterns);
    io.sz(c.test_time);
    io.sz(c.rom_bits);
    io.sz(c.seed_rom_bits);
    io.sz(c.misr_bits);
    io.sz(c.fallback_rows);
    io.sz(c.area_bits);
    io.f64(c.cost);
    io.f64(c.knee_distance);
    io.b(c.within_budget);
    io.f64(c.final_coverage);
  });
}

template <class Io, Is<WrapperVerification> T>
void walk(Io& io, T& v) {
  io.b(v.lfsr_phase_identical);
  io.b(v.topoff_identical);
  io.b(v.coverage_identical);
  io.b(v.seeds_identical);
  io.b(v.signature_identical);
  io.sz(v.cycles);
  io.f64(v.achieved_coverage);
  io.f64(v.achieved_coverage_weighted);
  io.u64(v.misr_signature);
  io.sz(v.aliasing.detected_checked);
  io.sz(v.aliasing.escapes);
  io.f64(v.aliasing.bound);
  walk(io, v.status);
}

template <class Io, Is<JobReport> T>
void walk(Io& io, T& rep) {
  io.str(rep.name);
  walk(io, rep.status);
  io.b(rep.degraded);
  io.b(rep.wrapper_ok);
  io.seq(rep.stages, 1, [&](auto& s) {
    io.str(s.name);
    walk(io, s.status);
    io.u32(s.attempts);
    io.str(s.note);
  });
  walk(io, rep.sweep);
  walk(io, rep.plan);
  walk(io, rep.verification);
  walk(io, rep.synth.actual);
  io.sz(rep.synth.bist_gates);
  io.sz(rep.synth.counter_bits);
  io.sz(rep.synth.wrapper_gates);
  io.str(rep.wrapper_bench);
  io.b(rep.cache.consulted);
  io.b(rep.cache.hit);
  io.b(rep.cache.stored);
  io.b(rep.cache.quarantined);
  io.b(rep.cache.manifest);
  io.str(rep.cache.note);
}

template <class T>
std::vector<std::uint8_t> encode(const T& value) {
  ByteWriter w;
  walk(w, value);
  return w.take();
}

template <class T>
T decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  T value;
  walk(r, value);
  if (!r.done()) r.fail("trailing bytes");
  return value;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> serialize_sweep(const MixedSweepResult& r) {
  return encode(r);
}

MixedSweepResult deserialize_sweep(std::span<const std::uint8_t> bytes) {
  return decode<MixedSweepResult>(bytes);
}

std::vector<std::uint8_t> serialize_job_report(const JobReport& r) {
  return encode(r);
}

JobReport deserialize_job_report(std::span<const std::uint8_t> bytes) {
  return decode<JobReport>(bytes);
}

void strip_volatile(JobReport& r) {
  for (StageReport& s : r.stages) {
    s.attempts = 1;
    s.note.clear();
  }
  r.cache = {};
}

}  // namespace bist
