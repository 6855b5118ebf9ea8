// Two-site DMRG sweep driver (paper §II.C).
//
// Standard algorithm, identical numerics across engines: contract the two
// center sites, solve the projected eigenproblem with Davidson through the
// environment network, split with a truncated block SVD, absorb the singular
// values along the sweep direction, extend the environments incrementally
// through the dependency graph (env_graph.hpp).
//
// A sweep is the strictly-ordered bond loop, left to right then right to
// left. With prefetch on, the next bond's environment extension runs as a
// future beside Davidson; results stay bitwise identical.
#pragma once

#include <memory>
#include <vector>

#include "dmrg/davidson.hpp"
#include "dmrg/engine.hpp"
#include "dmrg/env_graph.hpp"
#include "dmrg/environment.hpp"
#include "mps/mpo.hpp"
#include "mps/mps.hpp"

namespace tt::dmrg {

class CheckpointManager;  // dmrg/checkpoint.hpp

/// Parameters of one sweep (one left-to-right + right-to-left pass).
struct SweepParams {
  index_t max_m = 64;        ///< bond-dimension cap
  real_t cutoff = 1e-12;     ///< singular values <= cutoff dropped (paper §II.C)
  int davidson_iter = 2;     ///< matvecs per two-site optimization (paper: 2)
  int davidson_subspace = 2; ///< Davidson restart size (paper: 2)
  bool prefetch = false;     ///< overlap env extensions with Davidson
  int checkpoint_every = 0;  ///< bonds between snapshots; 0 = off
};

/// Record of a completed sweep.
struct SweepRecord {
  int sweep = 0;
  real_t energy = 0.0;
  index_t max_bond_dim = 0;
  real_t truncation_error = 0.0;  ///< max over bonds of Σ discarded σ²
  double wall_seconds = 0.0;
  long prefetch_launched = 0;     ///< env extensions started asynchronously
  long prefetch_hits = 0;         ///< joins that found the future finished
  double prefetch_wait_seconds = 0.0;  ///< real time blocked joining futures
};

/// DMRG optimizer owning the state, Hamiltonian, engine, and environments.
class Dmrg {
 public:
  /// psi is canonicalized to site 0 and normalized on construction; the
  /// environment graph is built immediately.
  Dmrg(mps::Mps psi, mps::Mpo h, std::unique_ptr<ContractionEngine> engine);

  /// Run the full schedule; returns the final energy.
  real_t run(const std::vector<SweepParams>& schedule);

  /// Snapshot through `ckpt` every SweepParams::checkpoint_every bonds.
  /// nullptr turns checkpointing off. The manager is borrowed, not owned,
  /// and must outlive the run.
  void set_checkpointing(CheckpointManager* ckpt) { ckpt_ = ckpt; }

  /// Restart an interrupted run() of the same schedule from the latest
  /// snapshot of the attached CheckpointManager: reload the MPS (bitwise),
  /// rebuild every environment through the graph, finish the interrupted
  /// sweep from its stored mid-sweep position, then run the rest of the
  /// schedule. The final energy is bitwise identical to the uninterrupted
  /// run — sweeps, SVD, and Davidson are deterministic, and environment
  /// rebuild is bit-equivalent to incremental maintenance.
  real_t resume(const std::vector<SweepParams>& schedule);

  /// One full sweep (left-to-right then right-to-left); returns its record.
  SweepRecord sweep(const SweepParams& params);

  /// Optimize the two sites (j, j+1) once; sweep_right selects which side
  /// absorbs the singular values. Exposed for the paper-style benches that
  /// time individual bond optimizations. Returns the Davidson eigenvalue.
  real_t optimize_bond(int j, const SweepParams& params, bool sweep_right);

  const mps::Mps& psi() const { return psi_; }
  const mps::Mpo& hamiltonian() const { return h_; }
  ContractionEngine& engine() { return *engine_; }
  EnvGraph& environments() { return *envs_; }
  const std::vector<SweepRecord>& records() const { return records_; }
  real_t last_energy() const { return energy_; }
  real_t last_truncation_error() const { return trunc_err_; }

  /// ⟨ψ|H|ψ⟩ computed from the current environments + center sites.
  real_t energy_expectation();

 private:
  /// The bond loop, entered mid-sweep: phase 0 starts the left-to-right
  /// pass at start_bond, phase 1 skips it and starts the right-to-left pass
  /// there. max_trunc0 seeds the running truncation maximum with the
  /// interrupted sweep's partial value. sweep() delegates here with
  /// (0, 0, 0.0).
  SweepRecord sweep_from(const SweepParams& params, int phase, int start_bond,
                         real_t max_trunc0);

  /// After bond (j, phase) completed: snapshot if a manager is attached and
  /// the cadence says so, then evaluate the dmrg.kill_sweep fault point.
  void maybe_checkpoint(const SweepParams& params, int phase, int bond);

  mps::Mps psi_;
  mps::Mpo h_;
  std::unique_ptr<ContractionEngine> engine_;
  std::unique_ptr<EnvGraph> envs_;
  std::vector<SweepRecord> records_;
  real_t energy_ = 0.0;
  real_t trunc_err_ = 0.0;
  int sweep_count_ = 0;
  CheckpointManager* ckpt_ = nullptr;  // borrowed; see set_checkpointing
  long bonds_since_ckpt_ = 0;
  int schedule_pos_ = 0;               // sweep index inside the running schedule
  real_t max_trunc_partial_ = 0.0;     // running max of the in-flight sweep
};

/// Convenience: geometric bond-dimension ramp-up schedule
/// (m_first, …, m_final doubling, each `per_m` sweeps).
std::vector<SweepParams> standard_schedule(index_t m_first, index_t m_final,
                                           int per_m = 2, real_t cutoff = 1e-12);

}  // namespace tt::dmrg
