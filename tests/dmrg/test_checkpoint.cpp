// Sweep-level checkpoint/restart (dmrg/checkpoint.hpp): the snapshot format
// round-trips bitwise, the sequence continues and prunes, and a missing,
// truncated or corrupt snapshot or manifest is rejected with a clean error.
// (A run killed mid-sweep by dmrg.kill_sweep and resumed from its snapshot
// reaches the uninterrupted run's bits on every executor and sweep option:
// dmrg/sweep_matrix_*.)
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/parity.hpp"
#include "dmrg/checkpoint.hpp"
#include "dmrg/dmrg.hpp"
#include "models/heisenberg.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "support/rng.hpp"

namespace {

namespace fs = std::filesystem;
using tt::Rng;
using tt::dmrg::CheckpointData;
using tt::dmrg::CheckpointManager;
using tt::dmrg::Dmrg;
using tt::dmrg::SweepParams;
using tt::dmrg::SweepPosition;
using tt::dmrg::SweepRecord;
using tt::mps::Mps;
using tt::symm::QN;

// Fresh empty directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

struct Problem {
  tt::mps::SiteSetPtr sites;
  tt::mps::Mpo h;
  std::vector<int> neel;
};

Problem heisenberg(int n) {
  auto lat = tt::models::chain(n);
  auto sites = tt::models::spin_half_sites(n);
  auto h = tt::models::heisenberg_mpo(sites, lat, 1.0);
  std::vector<int> neel;
  for (int i = 0; i < n; ++i) neel.push_back(i % 2);
  return {sites, std::move(h), std::move(neel)};
}

TEST(Checkpoint, SaveLoadRoundTripIsBitwise) {
  Problem p = heisenberg(6);
  Rng rng(11);
  Mps psi = Mps::random(p.sites, QN(0), 8, rng);
  psi.canonicalize(3);

  SweepPosition pos;
  pos.schedule_pos = 2;
  pos.sweep_count = 5;
  pos.phase = 1;
  pos.next_bond = 3;
  pos.center = 3;
  pos.energy = -2.718281828;
  pos.trunc_err = 1.25e-13;
  pos.max_trunc_partial = 3.5e-12;
  std::vector<SweepRecord> history(2);
  history[0].sweep = 4;
  history[0].energy = -2.5;
  history[0].max_bond_dim = 8;
  history[0].truncation_error = 2e-12;
  history[1].sweep = 5;
  history[1].energy = -2.7;

  CheckpointManager mgr(fresh_dir("ckpt_roundtrip"));
  EXPECT_FALSE(mgr.has_checkpoint());
  mgr.save(psi, pos, history);
  EXPECT_TRUE(mgr.has_checkpoint());
  EXPECT_EQ(mgr.sequence(), 1);

  CheckpointData data = mgr.load(p.sites);
  EXPECT_TRUE(tt::testing::bitwise_equal(psi, data.psi));
  EXPECT_EQ(data.pos.schedule_pos, pos.schedule_pos);
  EXPECT_EQ(data.pos.sweep_count, pos.sweep_count);
  EXPECT_EQ(data.pos.phase, pos.phase);
  EXPECT_EQ(data.pos.next_bond, pos.next_bond);
  EXPECT_EQ(data.pos.center, pos.center);
  EXPECT_EQ(data.pos.energy, pos.energy);  // bitwise, via hexfloat
  EXPECT_EQ(data.pos.trunc_err, pos.trunc_err);
  EXPECT_EQ(data.pos.max_trunc_partial, pos.max_trunc_partial);
  ASSERT_EQ(data.history.size(), 2u);
  EXPECT_EQ(data.history[0].energy, history[0].energy);
  EXPECT_EQ(data.history[1].sweep, 5);
}

TEST(Checkpoint, SequenceContinuesAndOldSnapshotsArePruned) {
  Problem p = heisenberg(4);
  Mps psi = Mps::product_state(p.sites, p.neel);
  const std::string dir = fresh_dir("ckpt_sequence");
  {
    CheckpointManager mgr(dir);
    for (int i = 0; i < 3; ++i) mgr.save(psi, SweepPosition{}, {});
    EXPECT_EQ(mgr.sequence(), 3);
  }
  // A new manager over the same directory continues, never overwrites.
  CheckpointManager mgr2(dir);
  EXPECT_EQ(mgr2.sequence(), 3);
  mgr2.save(psi, SweepPosition{}, {});
  EXPECT_EQ(mgr2.sequence(), 4);
  // Keep-last-two: snapshots 3 and 4 exist, 1 and 2 are gone.
  EXPECT_TRUE(fs::exists(fs::path(dir) / "ckpt_4.tt"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "ckpt_3.tt"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "ckpt_2.tt"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "ckpt_1.tt"));
}

TEST(Checkpoint, RejectsMissingTruncatedAndCorruptSnapshots) {
  Problem p = heisenberg(4);
  Mps psi = Mps::product_state(p.sites, p.neel);

  // Empty directory: nothing to load.
  CheckpointManager empty(fresh_dir("ckpt_empty"));
  EXPECT_THROW((void)empty.load(p.sites), tt::Error);

  auto saved_dir = [&](const std::string& name) {
    const std::string dir = fresh_dir(name);
    CheckpointManager mgr(dir);
    mgr.save(psi, SweepPosition{}, {});
    return dir;
  };

  // Truncated snapshot: manifest byte count catches it.
  {
    const std::string dir = saved_dir("ckpt_trunc");
    const fs::path snap = fs::path(dir) / "ckpt_1.tt";
    fs::resize_file(snap, fs::file_size(snap) / 2);
    CheckpointManager mgr(dir);
    try {
      (void)mgr.load(p.sites);
      FAIL() << "truncated snapshot was not rejected";
    } catch (const tt::Error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
    }
  }

  // Flipped byte (same size): checksum catches it.
  {
    const std::string dir = saved_dir("ckpt_corrupt");
    const fs::path snap = fs::path(dir) / "ckpt_1.tt";
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(snap) / 2));
    f.put('!');
    f.close();
    CheckpointManager mgr(dir);
    try {
      (void)mgr.load(p.sites);
      FAIL() << "corrupt snapshot was not rejected";
    } catch (const tt::Error& e) {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
    }
  }

  // Bad manifest magic / future version: rejected at manager construction.
  {
    const std::string dir = saved_dir("ckpt_badmanifest");
    std::ofstream(fs::path(dir) / "MANIFEST") << "BOGUS 1\n1 ckpt_1.tt 0 0\n";
    EXPECT_THROW(CheckpointManager{dir}, tt::Error);
    std::ofstream(fs::path(dir) / "MANIFEST") << "TTCKPT-MANIFEST 9\n1 x 0 0\n";
    EXPECT_THROW(CheckpointManager{dir}, tt::Error);
  }
}

TEST(Checkpoint, VersionOneManifestIsRejectedByVersion) {
  // Version-1 manifests carry the old byte-serial FNV-1a checksum. They must
  // fail with a version error, not a misleading checksum mismatch.
  Problem p = heisenberg(4);
  const std::string dir = fresh_dir("ckpt_v1manifest");
  {
    CheckpointManager mgr(dir);
    mgr.save(Mps::product_state(p.sites, p.neel), SweepPosition{}, {});
  }
  const fs::path snap = fs::path(dir) / "ckpt_1.tt";
  std::ofstream(fs::path(dir) / "MANIFEST")
      << "TTCKPT-MANIFEST 1\n1 ckpt_1.tt cbf29ce484222325 "
      << fs::file_size(snap) << "\n";
  try {
    CheckpointManager mgr(dir);
    FAIL() << "version-1 manifest was not rejected";
  } catch (const tt::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported TTCKPT-MANIFEST version 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, ResumeWithoutManagerOrSnapshotThrows) {
  Problem p = heisenberg(4);
  SweepParams sp;
  sp.max_m = 8;
  Dmrg solver(Mps::product_state(p.sites, p.neel), p.h,
              std::make_unique<tt::dmrg::ContractionEngine>());
  EXPECT_THROW((void)solver.resume({sp}), tt::Error);  // no manager attached
  CheckpointManager mgr(fresh_dir("ckpt_noresume"));
  solver.set_checkpointing(&mgr);
  EXPECT_THROW((void)solver.resume({sp}), tt::Error);  // nothing saved yet
}

}  // namespace
