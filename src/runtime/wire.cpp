#include "runtime/wire.hpp"

#include <cstring>

#include "runtime/fault.hpp"

namespace tt::rt {

namespace {

// Upper bound on any single variable-length field (1 GiB of payload). Guards
// the reader against allocating absurd sizes out of a corrupt length prefix.
constexpr std::uint64_t kMaxFieldBytes = std::uint64_t{1} << 30;

}  // namespace

std::uint64_t wire_checksum(const std::byte* p, std::size_t n) {
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;  // FNV offset basis
  constexpr std::uint64_t kPrime = 0x100000001b3ull;       // FNV prime
  // Each step is a bijection of h for a fixed w and of w for a fixed h, so a
  // change confined to one 8-byte word always changes the result.
  auto step = [](std::uint64_t h, std::uint64_t w) { return (h ^ w) * kPrime; };
  auto word = [p](std::size_t at) {
    std::uint64_t w;
    std::memcpy(&w, p + at, sizeof w);  // any alignment, no aliasing UB
    return w;
  };
  // Four independent lanes over 32-byte blocks keep four multiplies in
  // flight; a single chain would be latency-bound on the multiplier.
  std::uint64_t h0 = kBasis, h1 = kBasis + 1, h2 = kBasis + 2, h3 = kBasis + 3;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    h0 = step(h0, word(i));
    h1 = step(h1, word(i + 8));
    h2 = step(h2, word(i + 16));
    h3 = step(h3, word(i + 24));
  }
  std::uint64_t h = step(step(step(step(kBasis, h0), h1), h2), h3);
  for (; i < n; ++i) h = step(h, std::to_integer<unsigned char>(p[i]));
  h = step(h, n);
  // Bijective finalizer: the multiply only carries upward, so fold the high
  // bits back down before the value is compared or stored.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

std::vector<std::byte> WireWriter::take() {
  if (FaultInjector::instance().should_fire("wire.truncate"))
    buf_.resize(buf_.size() / 2);
  return std::move(buf_);
}

void WireWriter::raw(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

void WireWriter::str(const std::string& s) {
  u64(s.size());
  raw(s.data(), s.size());
}

void WireWriter::i32_list(const std::vector<int>& v) {
  u64(v.size());
  for (int x : v) u32(static_cast<std::uint32_t>(x));
}

void WireWriter::tensor(tensor::ConstView t) {
  u64(static_cast<std::uint64_t>(t.order()));
  for (int m = 0; m < t.order(); ++m) i64(t.dim(m));
  raw(t.data(), static_cast<std::size_t>(t.size()) * sizeof(double));
}

void WireReader::raw(void* p, std::size_t n) {
  TT_CHECK(pos_ + n <= buf_.size(),
           "wire message truncated: need " << n << " bytes at offset " << pos_
                                           << " of " << buf_.size());
  std::memcpy(p, buf_.data() + pos_, n);
  pos_ += n;
}

std::uint32_t WireReader::u32() {
  std::uint32_t v;
  raw(&v, sizeof v);
  return v;
}

std::uint64_t WireReader::u64() {
  std::uint64_t v;
  raw(&v, sizeof v);
  return v;
}

std::int64_t WireReader::i64() {
  std::int64_t v;
  raw(&v, sizeof v);
  return v;
}

double WireReader::f64() {
  double v;
  raw(&v, sizeof v);
  return v;
}

std::string WireReader::str() {
  const std::uint64_t n = u64();
  TT_CHECK(n <= kMaxFieldBytes, "wire string length " << n << " exceeds limit");
  std::string s(static_cast<std::size_t>(n), '\0');
  raw(s.data(), s.size());
  return s;
}

std::vector<int> WireReader::i32_list() {
  const std::uint64_t n = u64();
  // Divide, don't multiply: n * sizeof(uint32) wraps for n >= 2^62.
  TT_CHECK(n <= kMaxFieldBytes / sizeof(std::uint32_t),
           "wire list length " << n << " exceeds limit");
  std::vector<int> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<int>(u32());
  return v;
}

tensor::DenseTensor WireReader::tensor() {
  const std::uint64_t order = u64();
  TT_CHECK(order <= 64, "wire tensor order " << order << " exceeds limit");
  // Bound the element count with overflow-safe math *before* constructing
  // the DenseTensor: its constructor multiplies the dims unchecked (signed
  // overflow UB for a corrupt shape) and allocates the product.
  constexpr std::uint64_t kMaxElems = kMaxFieldBytes / sizeof(double);
  std::vector<index_t> shape(static_cast<std::size_t>(order));
  std::uint64_t elems = 1;
  for (auto& d : shape) {
    d = i64();
    TT_CHECK(d >= 0, "wire tensor has negative dimension " << d);
    if (d == 0) {
      elems = 0;
    } else if (elems != 0) {
      TT_CHECK(static_cast<std::uint64_t>(d) <= kMaxElems / elems,
               "wire tensor payload exceeds limit");
      elems *= static_cast<std::uint64_t>(d);
    }
  }
  tensor::DenseTensor t(std::move(shape));
  raw(t.data(), static_cast<std::size_t>(elems) * sizeof(double));
  return t;
}

void WireReader::tensor_into(tensor::View out) {
  const std::uint64_t order = u64();
  TT_CHECK(order == static_cast<std::uint64_t>(out.order()),
           "wire tensor has order " << order << ", expected " << out.order());
  for (int m = 0; m < out.order(); ++m) {
    const std::int64_t d = i64();
    TT_CHECK(d == out.dim(m),
             "wire tensor mode " << m << " has dim " << d << ", expected " << out.dim(m));
  }
  raw(out.data(), static_cast<std::size_t>(out.size()) * sizeof(double));
}

}  // namespace tt::rt
