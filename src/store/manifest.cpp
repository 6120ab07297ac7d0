#include "store/manifest.hpp"

#include "store/record.hpp"
#include "store/serialize.hpp"

namespace bist {

BatchManifest::BatchManifest(std::string path, FileOps* ops)
    : path_(std::move(path)), ops_(ops ? ops : &FileOps::real()) {}

std::size_t BatchManifest::load() {
  entries_.clear();
  std::vector<std::uint8_t> bytes;
  if (!ops_->read_file(path_, bytes)) return 0;
  std::span<const std::uint8_t> rest(bytes);
  while (!rest.empty()) {
    const ParsedRecord rec = parse_record(rest);
    if (rec.check != RecordCheck::Ok) break;  // torn tail: keep the prefix
    JobReport rep;
    try {
      rep = deserialize_job_report(rec.payload);
    } catch (const std::exception&) {
      break;  // undecodable frame poisons everything after it too
    }
    bool replaced = false;
    for (auto& [key, existing] : entries_)
      if (key == rec.key) {
        existing = std::move(rep);
        replaced = true;
        break;
      }
    if (!replaced) entries_.emplace_back(rec.key, std::move(rep));
    rest = rest.subspan(rec.frame_size);
  }
  // Cut the bad frame and everything after it: appends go to the end of
  // the file, and the next load() stops at the same frame, so a resumed run
  // would otherwise journal behind a frame that hides its own entries.
  if (!rest.empty())
    atomic_write_file(*ops_, path_,
                      std::span(bytes).first(bytes.size() - rest.size()));
  return entries_.size();
}

const JobReport* BatchManifest::find(const Digest128& key) const {
  for (const auto& [k, rep] : entries_)
    if (k == key) return &rep;
  return nullptr;
}

bool BatchManifest::append(const Digest128& key, const JobReport& rep) {
  std::vector<std::uint8_t> frame;
  try {
    frame = frame_record(key, serialize_job_report(rep));
  } catch (const std::exception&) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return ops_->append_file(path_, frame);
}

}  // namespace bist
