// Byte-level message encoding for the distributed scheduler's transport.
//
// Fixed-width little-endian fields appended/consumed in call order; doubles
// travel as raw IEEE-754 bit patterns (memcpy, never text) so a value read
// on the far side is bitwise identical to the value written — the rank-parity
// invariant of the scheduler depends on this. The reader bounds-checks every
// access and throws tt::Error on truncated or oversized fields, so a torn
// frame surfaces as a clean error instead of garbage data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/types.hpp"
#include "tensor/dense.hpp"

namespace tt::rt {

/// Word-parallel 64-bit checksum over a byte range: four FNV-style lanes,
/// each step h = (h ^ w) * 0x100000001b3 over successive 8-byte words of a
/// 32-byte block, then the lanes, the byte-wise tail (< 32 bytes) and the
/// length folded into one value. Words are loaded with memcpy, so the value
/// depends only on the bytes, not on their alignment; it assumes the
/// little-endian hosts the wire format already assumes. Every step is a
/// bijection, so any change confined to one 8-byte word is always detected.
/// Used as the frame payload checksum (a corrupt frame must surface as a
/// clean error, not garbage tensors) and as the snapshot checksum in
/// dmrg::CheckpointManager. Not cryptographic — it detects accidental
/// corruption, not an adversary.
std::uint64_t wire_checksum(const std::byte* p, std::size_t n);

/// Append-only message builder.
class WireWriter {
 public:
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s);

  /// shape as i64 list, then the payload as raw doubles.
  void tensor(tensor::ConstView t);

  const std::vector<std::byte>& bytes() const { return buf_; }

  /// Surrender the built payload. Fault point `wire.truncate` (evaluated with
  /// no rank/side context) drops the trailing half here, so the far side sees
  /// a frame that *arrives* intact but fails to parse.
  std::vector<std::byte> take();

  std::size_t size() const { return buf_.size(); }

 private:
  void raw(const void* p, std::size_t n);

  std::vector<std::byte> buf_;
};

/// Sequential bounds-checked reader over one received message.
class WireReader {
 public:
  explicit WireReader(const std::vector<std::byte>& buf) : buf_(buf) {}

  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  tensor::DenseTensor tensor();
  /// Read a tensor whose shape must equal `out`'s into `out` (tt::Error
  /// otherwise).
  void tensor_into(tensor::View out);

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool done() const { return pos_ == buf_.size(); }

 private:
  void raw(void* p, std::size_t n);

  const std::vector<std::byte>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace tt::rt
