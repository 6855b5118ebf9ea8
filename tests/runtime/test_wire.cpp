// Wire encoding round trips: every field type survives write/read bitwise,
// and torn or oversized messages fail loudly instead of yielding garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "runtime/wire.hpp"
#include "support/rng.hpp"

namespace {

using tt::Error;
using tt::Rng;
using tt::rt::WireReader;
using tt::rt::WireWriter;
using tt::tensor::DenseTensor;

TEST(Wire, ScalarFieldsRoundTripInCallOrder) {
  WireWriter w;
  w.u32(0xdeadbeefu);
  w.u64(std::numeric_limits<std::uint64_t>::max());
  w.i64(-1234567890123456789LL);
  w.f64(3.141592653589793);
  w.str("block scheduler");

  WireReader r(w.bytes());
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.i64(), -1234567890123456789LL);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "block scheduler");
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, DoublesTravelBitwiseIncludingSpecialValues) {
  // The scheduler's rank-parity invariant needs bit patterns, not values:
  // -0.0, denormals, and NaN payload bits must survive unchanged.
  const double values[] = {-0.0, std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::infinity(),
                           std::nan("0x5bad"), 1.0 + 1e-16};
  WireWriter w;
  for (double v : values) w.f64(v);
  WireReader r(w.bytes());
  for (double v : values) {
    const double got = r.f64();
    EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0);
  }
}

TEST(Wire, TensorRoundTripsBitwise) {
  Rng rng(7);
  for (const auto& shape :
       {std::vector<tt::index_t>{3, 4, 2}, {1}, {5, 1, 1, 2}}) {
    const DenseTensor t = DenseTensor::random(shape, rng);
    WireWriter w;
    w.tensor(t);
    WireReader r(w.bytes());
    const DenseTensor back = r.tensor();
    ASSERT_EQ(back.shape(), t.shape());
    EXPECT_EQ(std::memcmp(back.data(), t.data(),
                          static_cast<std::size_t>(t.size()) * sizeof(double)),
              0);
    EXPECT_TRUE(r.done());
  }
}

TEST(Wire, ScalarTensorRoundTrips) {
  WireWriter w;
  w.tensor(DenseTensor({}, -2.5));
  WireReader r(w.bytes());
  const DenseTensor back = r.tensor();
  EXPECT_EQ(back.order(), 0);
  EXPECT_EQ(back[0], -2.5);
}

TEST(Wire, ChecksumIsPureAtAnyAlignment) {
  // The frame checksum must be a pure function of the byte sequence, never of
  // the buffer's alignment: words are loaded through memcpy, so a view at any
  // offset must equal an aligned copy of the same bytes. Lengths 0-100 cross
  // the 32-byte block and the byte-wise tail boundaries.
  using tt::rt::wire_checksum;
  Rng rng(41);
  std::vector<std::byte> buf(4096);
  for (auto& b : buf)
    b = static_cast<std::byte>(static_cast<unsigned char>(rng.integer(0, 255)));

  for (std::size_t off = 1; off <= 7; ++off)
    for (std::size_t n = 0; n <= 100; ++n) {
      const std::vector<std::byte> aligned(buf.begin() + off, buf.begin() + off + n);
      ASSERT_EQ(wire_checksum(buf.data() + off, n),
                wire_checksum(aligned.data(), aligned.size()))
          << "offset " << off << ", length " << n;
    }

  // Every single-bit flip of the 4 KiB buffer is detected: each step of the
  // checksum is a bijection, so no corruption confined to one word cancels.
  const std::uint64_t clean = wire_checksum(buf.data(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i)
    for (int bit = 0; bit < 8; ++bit) {
      buf[i] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      ASSERT_NE(wire_checksum(buf.data(), buf.size()), clean)
          << "flip of bit " << bit << " in byte " << i;
      buf[i] ^= std::byte{static_cast<unsigned char>(1u << bit)};
    }

  // The length is part of the value: a trailing zero byte is not invisible.
  for (std::size_t n = 0; n <= 100; ++n) {
    std::vector<std::byte> longer(buf.begin(), buf.begin() + n);
    const std::uint64_t before = wire_checksum(longer.data(), longer.size());
    longer.push_back(std::byte{0});
    EXPECT_NE(wire_checksum(longer.data(), longer.size()), before) << "length " << n;
  }

  // Golden values (little-endian word loads): a change to the function shows
  // here, and must come with a checkpoint manifest version bump.
  EXPECT_EQ(wire_checksum(nullptr, 0), 0x77f24f0ee867f9eaull);
  EXPECT_EQ(clean, 0x18ca377aef9977c9ull);
}

TEST(Wire, TruncatedMessageThrowsOnEveryFieldType) {
  WireWriter w;
  w.u64(42);
  std::vector<std::byte> torn(w.bytes().begin(), w.bytes().end() - 3);
  WireReader r(torn);
  EXPECT_THROW(r.u64(), Error);

  // A string whose length prefix promises more bytes than the buffer holds.
  WireWriter ws;
  ws.str("abcdefgh");
  std::vector<std::byte> torn_str(ws.bytes().begin(), ws.bytes().end() - 4);
  WireReader rs(torn_str);
  EXPECT_THROW(rs.str(), Error);

  // A tensor whose payload was cut mid-block.
  Rng rng(8);
  WireWriter wt;
  wt.tensor(DenseTensor::random({4, 4}, rng));
  std::vector<std::byte> torn_t(wt.bytes().begin(), wt.bytes().end() - 8);
  WireReader rt(torn_t);
  EXPECT_THROW(rt.tensor(), Error);
}

TEST(Wire, OversizedLengthPrefixIsRejectedNotAllocated) {
  // A corrupted length prefix must throw, not attempt a huge allocation.
  WireWriter w;
  w.u64(std::numeric_limits<std::uint64_t>::max());  // bogus string length
  WireReader r(w.bytes());
  EXPECT_THROW(r.str(), Error);
}

TEST(Wire, TensorWithOverflowingDimProductIsRejected) {
  // A corrupt shape whose element count overflows 64 bits (64 dims of 2^40)
  // must throw cleanly before DenseTensor multiplies the dims or allocates.
  WireWriter w;
  w.u64(64);
  for (int i = 0; i < 64; ++i) w.i64(std::int64_t{1} << 40);
  WireReader r(w.bytes());
  EXPECT_THROW(r.tensor(), Error);

  // Non-overflowing product just past the payload cap (2^27 + 2^15 doubles
  // against the 2^27-element = 1 GiB limit): same clean rejection.
  WireWriter w2;
  w2.u64(2);
  w2.i64(std::int64_t{1} << 15);
  w2.i64((std::int64_t{1} << 12) + 1);
  WireReader r2(w2.bytes());
  EXPECT_THROW(r2.tensor(), Error);
}

// Runs `read` and returns its tt::Error message ("" when it does not throw).
template <class Read>
std::string error_of(Read read) {
  try {
    read();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Wire, StringLongerThanMessageIsRejectedBeforeAllocating) {
  // A 16-byte message whose prefix claims 2^20 bytes: the claim is checked
  // against the bytes that remain, not only against the 1 GiB field cap.
  WireWriter w;
  w.u64(std::uint64_t{1} << 20);
  w.u64(0);
  WireReader r(w.bytes());
  const std::string msg = error_of([&] { r.str(); });
  EXPECT_NE(msg.find("wire string claims 1048576 bytes, but only 8 remain"),
            std::string::npos)
      << msg;
}

TEST(Wire, TensorLongerThanMessageIsRejectedBeforeAllocating) {
  // Order 1, dim 2^20: the shape claims 8 MiB of payload that the message
  // does not hold.
  WireWriter w;
  w.u64(1);
  w.i64(std::int64_t{1} << 20);
  WireReader r(w.bytes());
  const std::string msg = error_of([&] { r.tensor(); });
  EXPECT_NE(msg.find("wire tensor claims 1048576 elements, but only 0 bytes remain"),
            std::string::npos)
      << msg;
}

TEST(Wire, TensorWithNegativeDimIsRejected) {
  WireWriter w;
  w.i64(2);   // order
  w.i64(-3);  // dims
  w.i64(4);
  WireReader r(w.bytes());
  EXPECT_THROW(r.tensor(), Error);
}

TEST(Wire, EmptyMessageIsDoneImmediately) {
  const std::vector<std::byte> empty;
  WireReader r(empty);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u32(), Error);
}

}  // namespace
