#pragma once
// Binary serialization of pipeline result payloads for the persistence
// layer: MixedSweepResult (the store's cache unit) and JobReport (the batch
// manifest's checkpoint unit).
//
// The format is a straight little-endian field walk — no schema, no
// varints — because the record framing (store/record) already carries the
// format version and a checksum: a layout change bumps
// kStoreFormatVersion and old records quarantine as BadVersion before a
// byte of payload is decoded.
//
// Each persisted struct's layout is written down once, as one walk()
// template in serialize.cpp that the writer and the reader both run over a
// shared primitive surface.  Adding a field is therefore one line in that
// struct's walk, a kStoreFormatVersion bump, and re-pinning the format
// digests in tests/test_store.cpp.
//
// Deserialization is fully bounds-checked (a checksum-valid record could
// still have been written by a buggy producer): it throws
// std::runtime_error on any overrun, a count that exceeds the remaining
// bytes, an out-of-range enum or bool, set bitvec tail bits, or trailing
// bytes, and the store converts that throw into a quarantine + miss.  No
// accepted value is normalised, so every payload that decodes re-encodes
// to exactly the same bytes.
//
// Serialization is deterministic: the same in-memory value always produces
// the same bytes.  Combined with the pipeline's bit-identical determinism
// contract this makes serialized equality a usable differential oracle —
// strip_volatile() clears the persisted fields that legitimately vary
// between runs of the same job, and the kill-and-resume test compares
// resumed and cold batches byte for byte.
//
// Only results are persisted.  The in-memory wall-clock fields
// (MixedSweepStats *_seconds, StageReport::seconds, JobReport::seconds) and
// the MixedSweepStats::podem_threads echo are not written, so a decoded
// sweep or report reads them as their defaults; a MixedSchemeResult has no
// wall-clock field, so a decoded point `==` the point that was written.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "pipeline/job.hpp"
#include "tpg/sweep.hpp"

namespace bist {

std::vector<std::uint8_t> serialize_sweep(const MixedSweepResult& r);
/// Throws std::runtime_error on malformed bytes.
MixedSweepResult deserialize_sweep(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> serialize_job_report(const JobReport& r);
/// Throws std::runtime_error on malformed bytes.
JobReport deserialize_job_report(std::span<const std::uint8_t> bytes);

/// Clear the persisted fields that vary between runs of the same job, so two
/// reports that did the same *work* serialize identically regardless of
/// where their data came from: retry attempt counts, stage notes and the
/// cache outcome.  Wall-clock timings and engine-configuration echoes
/// (PODEM worker count) are never persisted, so they need no stripping; the
/// sweep cache key excludes those knobs, and a hit served from another
/// thread count or word width byte-matches its cold run.  The
/// kill-and-resume differential and the manifest equality checks compare
/// serialize_job_report(strip_volatile(...)) bytes.
void strip_volatile(JobReport& r);

}  // namespace bist
