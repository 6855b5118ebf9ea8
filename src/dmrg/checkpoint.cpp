#include "dmrg/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "runtime/wire.hpp"
#include "support/error.hpp"

namespace tt::dmrg {

namespace fs = std::filesystem;

namespace {

constexpr int kSnapshotVersion = 1;
// Version 2: the manifest's checksum is the word-parallel rt::wire_checksum.
// A version-1 manifest holds a byte-serial FNV-1a value, so it is refused by
// version rather than reported as a checksum mismatch.
constexpr int kManifestVersion = 2;

std::uint64_t checksum_of(const std::string& blob) {
  // tt-lint: allow(raw-cast-audit) read-only byte view of an already-serialized blob for checksumming; no object is reinterpreted
  return rt::wire_checksum(reinterpret_cast<const std::byte*>(blob.data()),
                           blob.size());
}

// Replace-by-rename: write the full contents to a temp name in the same
// directory (same filesystem, so rename() is atomic), then move into place.
void write_atomic(const fs::path& target, const std::string& blob) {
  const fs::path tmp = target.parent_path() / (target.filename().string() + ".tmp");
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    TT_CHECK(os.good(), "cannot open '" << tmp.string() << "' for writing");
    os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    os.flush();
    TT_CHECK(os.good(), "short write to '" << tmp.string() << "'");
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  TT_CHECK(!ec, "cannot rename '" << tmp.string() << "' to '" << target.string()
                                  << "': " << ec.message());
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir) : dir_(std::move(dir)) {
  TT_CHECK(!dir_.empty(), "checkpoint directory path is empty");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  TT_CHECK(!ec, "cannot create checkpoint directory '" << dir_
                                                       << "': " << ec.message());
  // Continue an existing sequence so a resumed run never overwrites the
  // snapshot it was itself restored from.
  if (fs::exists(manifest_path())) {
    std::ifstream is(manifest_path());
    TT_CHECK(is.good(), "cannot read manifest '" << manifest_path() << "'");
    mps::read_header(is, "TTCKPT-MANIFEST", kManifestVersion);
    long seq = 0;
    is >> seq;
    TT_CHECK(is && seq > 0, "corrupt manifest: bad sequence number");
    sequence_ = seq;
  }
}

std::string CheckpointManager::manifest_path() const {
  return (fs::path(dir_) / "MANIFEST").string();
}

std::string CheckpointManager::snapshot_name(long seq) const {
  return "ckpt_" + std::to_string(seq) + ".tt";
}

bool CheckpointManager::has_checkpoint() const {
  return fs::exists(manifest_path());
}

void CheckpointManager::save(const mps::Mps& psi, const SweepPosition& pos,
                             const std::vector<SweepRecord>& history) {
  std::ostringstream body;
  body << "TTCKPT " << kSnapshotVersion << "\n";
  body << pos.schedule_pos << " " << pos.sweep_count << " " << pos.phase << " "
       << pos.next_bond << " " << pos.center << "\n";
  mps::write_real_hex(body, pos.energy);
  body << " ";
  mps::write_real_hex(body, pos.trunc_err);
  body << " ";
  mps::write_real_hex(body, pos.max_trunc_partial);
  body << "\n" << history.size() << "\n";
  for (const SweepRecord& rec : history) {
    body << rec.sweep << " ";
    mps::write_real_hex(body, rec.energy);
    body << " " << rec.max_bond_dim << " ";
    mps::write_real_hex(body, rec.truncation_error);
    body << "\n";
  }
  mps::write_mps(body, psi);

  const std::string blob = body.str();
  const long seq = sequence_ + 1;
  write_atomic(fs::path(dir_) / snapshot_name(seq), blob);

  std::ostringstream manifest;
  manifest << "TTCKPT-MANIFEST " << kManifestVersion << "\n"
           << seq << " " << snapshot_name(seq) << " " << std::hex
           << checksum_of(blob) << std::dec << " " << blob.size() << "\n";
  write_atomic(manifest_path(), manifest.str());
  sequence_ = seq;

  // Keep this snapshot and its predecessor; prune anything older.
  std::error_code ec;
  for (long old = seq - 2; old > 0; --old) {
    const fs::path victim = fs::path(dir_) / snapshot_name(old);
    if (!fs::exists(victim, ec)) break;
    fs::remove(victim, ec);
  }
}

CheckpointData CheckpointManager::load(mps::SiteSetPtr sites) const {
  TT_CHECK(has_checkpoint(),
           "no checkpoint manifest in '" << dir_ << "' to resume from");
  std::ifstream mis(manifest_path());
  TT_CHECK(mis.good(), "cannot read manifest '" << manifest_path() << "'");
  mps::read_header(mis, "TTCKPT-MANIFEST", kManifestVersion);
  long seq = 0;
  std::string file;
  std::uint64_t sum = 0;
  std::uint64_t nbytes = 0;
  mis >> seq >> file >> std::hex >> sum >> std::dec >> nbytes;
  TT_CHECK(mis && seq > 0 && !file.empty(), "corrupt manifest: bad snapshot entry");

  const fs::path path = fs::path(dir_) / file;
  std::ifstream is(path, std::ios::binary);
  TT_CHECK(is.good(), "manifest names missing snapshot '" << path.string() << "'");
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string blob = buf.str();
  TT_CHECK(blob.size() == nbytes, "checkpoint '" << path.string()
                                                 << "' truncated: " << blob.size()
                                                 << " bytes, manifest says "
                                                 << nbytes);
  TT_CHECK(checksum_of(blob) == sum,
           "checkpoint '" << path.string() << "' corrupt: checksum mismatch");

  std::istringstream body(blob);
  mps::read_header(body, "TTCKPT", kSnapshotVersion);
  SweepPosition pos;
  body >> pos.schedule_pos >> pos.sweep_count >> pos.phase >> pos.next_bond >>
      pos.center;
  TT_CHECK(body && pos.schedule_pos >= 0 && pos.sweep_count >= 0 &&
               (pos.phase == 0 || pos.phase == 1) && pos.next_bond >= 0,
           "corrupt checkpoint: bad sweep position");
  pos.energy = mps::read_real_hex(body);
  pos.trunc_err = mps::read_real_hex(body);
  pos.max_trunc_partial = mps::read_real_hex(body);

  long nrecords = 0;
  body >> nrecords;
  TT_CHECK(body && nrecords >= 0, "corrupt checkpoint: bad history length");
  std::vector<SweepRecord> history;
  history.reserve(static_cast<std::size_t>(nrecords));
  for (long i = 0; i < nrecords; ++i) {
    SweepRecord rec;
    body >> rec.sweep;
    TT_CHECK(body, "corrupt checkpoint: truncated history");
    rec.energy = mps::read_real_hex(body);
    body >> rec.max_bond_dim;
    TT_CHECK(body, "corrupt checkpoint: truncated history");
    rec.truncation_error = mps::read_real_hex(body);
    history.push_back(rec);
  }

  mps::Mps psi = mps::read_mps(body, std::move(sites));
  return CheckpointData{std::move(psi), pos, std::move(history)};
}

}  // namespace tt::dmrg
