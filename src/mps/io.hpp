// Portable text serialization for MPS.
//
// Plays the role of the paper's ITensor↔Cyclops conversion interface (§VI:
// "we developed an interface to convert ITensor MPS data to a readable format
// for Cyclops"): states can be written by one toolchain and read by another —
// or checkpointed between runs. The format is exact
// (hex-encoded doubles) and versioned.
#pragma once

#include <iosfwd>
#include <string>

#include "mps/mps.hpp"

namespace tt::mps {

/// Write/read an MPS. The site set is described structurally (physical index
/// sectors); the reader validates it against the supplied site set.
void write_mps(std::ostream& os, const Mps& psi);
Mps read_mps(std::istream& is, SiteSetPtr sites);

/// File-path convenience wrappers for an MPS. The loader rejects truncated
/// files, wrong magic, and unsupported versions with tt::Error (never silent
/// garbage).
void save_mps(const std::string& path, const Mps& psi);
Mps load_mps(const std::string& path, SiteSetPtr sites);

/// Exact double<->text round trip via hexfloat ("%a"), the encoding every
/// value in these streams uses. Shared with dmrg::CheckpointManager so
/// checkpoints inherit the same bitwise-exactness guarantee. The reader
/// throws on a truncated stream or a token that is not a full number.
void write_real_hex(std::ostream& os, real_t v);
real_t read_real_hex(std::istream& is);

}  // namespace tt::mps
