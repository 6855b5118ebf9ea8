#include "symm/block_tensor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <new>
#include <utility>

#include <sys/mman.h>

namespace tt::symm {

BlockTensor::BlockTensor(std::vector<Index> indices, QN flux)
    : indices_(std::move(indices)), flux_(flux) {
  std::uint64_t span = 1;
  for (const Index& idx : indices_) {
    TT_CHECK(idx.num_sectors() > 0 &&
                 idx.sector(0).qn.rank() == flux_.rank(),
             "index QN rank does not match flux rank " << flux_.rank());
    const auto radix = static_cast<std::uint64_t>(idx.num_sectors());
    TT_CHECK(span <= std::numeric_limits<std::uint64_t>::max() / radix,
             "block tensor: more than 2^64 sector combinations to number");
    span *= radix;
  }
}

BlockTensor::BlockTensor(std::vector<Index> indices, QN flux,
                         const std::vector<BlockKey>& keys)
    : BlockTensor(std::move(indices), flux) {
  std::vector<std::uint64_t> codes;
  codes.reserve(keys.size());
  for (const BlockKey& key : keys) {
    TT_CHECK(key_allowed(key), "block key violates charge conservation");
    codes.push_back(code_of(key));
  }
  std::ranges::sort(codes);
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  *this = for_overwrite(indices_, flux_, codes);
  std::fill_n(data_.get(), size_, 0.0);
}

BlockTensor::BlockTensor(const BlockTensor& other)
    : indices_(other.indices_),
      flux_(other.flux_),
      rows_(other.rows_),
      keys_(other.keys_),
      dims_(other.dims_) {
  allocate(other.size_);
  size_ = other.size_;
  std::copy_n(other.data_.get(), size_, data_.get());
}

BlockTensor& BlockTensor::operator=(const BlockTensor& other) {
  if (this != &other) *this = BlockTensor(other);
  return *this;
}

BlockTensor& BlockTensor::operator=(BlockTensor&& other) noexcept {
  indices_ = std::move(other.indices_);
  flux_ = other.flux_;
  rows_ = std::move(other.rows_);
  keys_ = std::move(other.keys_);
  dims_ = std::move(other.dims_);
  data_ = std::move(other.data_);
  other.data_.get_deleter().capacity = 0;
  size_ = std::exchange(other.size_, 0);
  other.rows_.clear();
  return *this;
}

BlockTensor BlockTensor::random(std::vector<Index> indices, QN flux, Rng& rng) {
  BlockTensor t(std::move(indices), flux);
  t = BlockTensor(t.indices_, t.flux_, t.admissible_keys());
  for (index_t i = 0; i < t.size_; ++i) t.data_[i] = rng.normal();
  return t;
}

BlockTensor BlockTensor::for_overwrite(std::vector<Index> indices, QN flux,
                                       std::span<const std::uint64_t> codes) {
  BlockTensor t(std::move(indices), flux);
  const auto r = t.indices_.size();
  t.rows_.reserve(codes.size());
  t.keys_.reserve(codes.size() * r);
  t.dims_.reserve(codes.size() * r);
  std::vector<int> key(r);
  for (std::uint64_t code : codes) {
    TT_ASSERT(t.rows_.empty() || code > t.rows_.back().code, "codes must ascend");
    std::uint64_t rest = code;
    for (std::size_t m = r; m-- > 0;) {
      const auto radix = static_cast<std::uint64_t>(t.indices_[m].num_sectors());
      key[m] = static_cast<int>(rest % radix);
      rest /= radix;
    }
    t.append_row(code, key);
  }
  t.allocate(t.size_);
  return t;
}

void BlockTensor::append_row(std::uint64_t code, std::span<const int> key) {
  rows_.push_back({code, size_});
  keys_.insert(keys_.end(), key.begin(), key.end());
  index_t n = 1;
  for (std::size_t m = 0; m < key.size(); ++m) {
    const index_t d = indices_[m].sector(key[m]).dim;
    dims_.push_back(d);
    n *= d;
  }
  size_ += n;
}

// Buffers of kLargeBytes and up are mapped straight from the OS, their
// capacity rounded up to the next eighth of a power of two, and unmapped when
// freed. Kept in an allocator heap, such buffers fragment it: long-lived
// environments and short-lived matvec intermediates of similar size
// interleave, and the heap's resident high-water mark grew 25% above that of
// per-block storage on the spins workload. A fresh mapping faults on every
// page it touches, and a sweep allocates the same large sizes over and over
// (a matvec's intermediates), so a freed large buffer first goes to a stash
// that allocate() takes from; the rounding lets one intermediate's buffer
// serve the next of nearly equal size. The stash holds at most as many bytes
// as the largest buffer freed so far, which bounds what it adds to the
// resident set. It never blocks: when its lock is taken (or was held across a
// fork()), a buffer is simply mapped or unmapped. Mappings of kHugePageBytes
// and up ask for transparent huge pages, so one fault maps 2 MiB instead of
// 4 KiB (a host with them switched off ignores the hint). AddressSanitizer
// builds use new[] throughout, so ASan sees every buffer.
namespace {
constexpr std::size_t kLargeBytes = std::size_t{1} << 20;
constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kMapLarge = false;
#else
constexpr bool kMapLarge = true;
#endif

std::size_t bytes_of(index_t capacity) {
  return static_cast<std::size_t>(capacity) * sizeof(real_t);
}

struct Stash {
  std::mutex mu;
  std::vector<std::pair<index_t, real_t*>> kept;  // (capacity, buffer), oldest first
  std::size_t kept_bytes = 0, largest = 0;
};

Stash& stash() {
  static Stash* s = new Stash;  // never destroyed: tensors may outlive statics
  return *s;
}
}  // namespace

void BlockTensor::Recycle::operator()(real_t* p) const {
  if (!kMapLarge || bytes_of(capacity) < kLargeBytes) return delete[] p;
  Stash& s = stash();
  std::unique_lock lock(s.mu, std::try_to_lock);
  if (!lock) return (void)munmap(p, bytes_of(capacity));
  s.kept.emplace_back(capacity, p);
  s.kept_bytes += bytes_of(capacity);
  s.largest = std::max(s.largest, bytes_of(capacity));
  while (s.kept_bytes > s.largest) {
    const auto [c, q] = s.kept.front();
    s.kept.erase(s.kept.begin());
    s.kept_bytes -= bytes_of(c);
    munmap(q, bytes_of(c));
  }
}

void BlockTensor::allocate(index_t capacity) {
  if (!kMapLarge || bytes_of(capacity) < kLargeBytes) {
    data_ = {new real_t[static_cast<std::size_t>(capacity)], Recycle{capacity}};
    return;
  }
  Stash& s = stash();
  if (std::unique_lock lock(s.mu, std::try_to_lock); lock) {
    // The smallest kept buffer that fits without wasting more than half.
    auto best = s.kept.end();
    for (auto it = s.kept.begin(); it != s.kept.end(); ++it)
      if (it->first >= capacity && it->first <= 2 * capacity &&
          (best == s.kept.end() || it->first < best->first))
        best = it;
    if (best != s.kept.end()) {
      data_ = {best->second, Recycle{best->first}};
      s.kept_bytes -= bytes_of(best->first);
      s.kept.erase(best);
      return;
    }
  }
  const auto step =
      static_cast<index_t>(std::bit_floor(static_cast<std::uint64_t>(capacity)) / 8);
  capacity = (capacity + step - 1) / step * step;
  void* p = mmap(nullptr, bytes_of(capacity), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  if (bytes_of(capacity) >= kHugePageBytes) madvise(p, bytes_of(capacity), MADV_HUGEPAGE);
  data_ = {static_cast<real_t*>(p), Recycle{capacity}};
}

bool BlockTensor::key_allowed(std::span<const int> key) const {
  TT_CHECK(static_cast<int>(key.size()) == order(), "block key order mismatch");
  QN sum = QN::zero(flux_.rank());
  for (int m = 0; m < order(); ++m) {
    const Index& idx = indices_[static_cast<std::size_t>(m)];
    const int s = key[static_cast<std::size_t>(m)];
    TT_CHECK(s >= 0 && s < idx.num_sectors(),
             "sector id " << s << " out of range on mode " << m);
    const QN& q = idx.sector(s).qn;
    sum = (sign(idx.dir()) > 0) ? sum + q : sum - q;
  }
  return sum == flux_;
}

QN BlockTensor::partial_charge(std::span<const int> key,
                               const std::vector<int>& modes) const {
  QN sum = QN::zero(flux_.rank());
  for (int m : modes) {
    const Index& idx = indices_[static_cast<std::size_t>(m)];
    const QN& q = idx.sector(key[static_cast<std::size_t>(m)]).qn;
    sum = (sign(idx.dir()) > 0) ? sum + q : sum - q;
  }
  return sum;
}

std::uint64_t BlockTensor::code_of(std::span<const int> key) const {
  std::uint64_t code = 0;
  for (std::size_t m = 0; m < key.size(); ++m)
    code = code * static_cast<std::uint64_t>(indices_[m].num_sectors()) +
           static_cast<std::uint64_t>(key[m]);
  return code;
}

std::size_t BlockTensor::lower_row(std::uint64_t code) const {
  return static_cast<std::size_t>(
      std::lower_bound(rows_.begin(), rows_.end(), code,
                       [](const Row& r, std::uint64_t c) { return r.code < c; }) -
      rows_.begin());
}

tensor::View BlockTensor::block(std::span<const int> key) {
  TT_CHECK(key_allowed(key), "block key violates charge conservation");
  const std::uint64_t code = code_of(key);
  const std::size_t row = lower_row(code);
  if (row < rows_.size() && rows_[row].code == code) return block_at(row);

  // Insert a zero block at `row`: the table rows and buffer tail after it
  // move up by one row and one block.
  const index_t at = row < rows_.size() ? rows_[row].offset : size_;
  const index_t old_size = size_;
  append_row(code, key);
  const index_t n = size_ - old_size;
  if (row + 1 < rows_.size()) {
    const auto r = static_cast<std::ptrdiff_t>(indices_.size());
    const auto pos = static_cast<std::ptrdiff_t>(row);
    std::rotate(rows_.begin() + pos, rows_.end() - 1, rows_.end());
    std::rotate(keys_.begin() + pos * r, keys_.end() - r, keys_.end());
    std::rotate(dims_.begin() + pos * r, dims_.end() - r, dims_.end());
    rows_[row].offset = at;
    for (std::size_t i = row + 1; i < rows_.size(); ++i) rows_[i].offset += n;
  }
  if (size_ > data_.get_deleter().capacity) {
    const auto old = std::move(data_);
    allocate(std::max(size_, 2 * old.get_deleter().capacity));
    std::copy_n(old.get(), old_size, data_.get());
  }
  std::copy_backward(data_.get() + at, data_.get() + old_size, data_.get() + size_);
  std::fill_n(data_.get() + at, n, 0.0);
  return block_at(row);
}

std::optional<tensor::ConstView> BlockTensor::find_block(std::span<const int> key) const {
  if (static_cast<int>(key.size()) != order()) return std::nullopt;
  for (std::size_t m = 0; m < key.size(); ++m)
    if (key[m] < 0 || key[m] >= indices_[m].num_sectors()) return std::nullopt;
  const std::uint64_t code = code_of(key);
  const std::size_t row = lower_row(code);
  if (row == rows_.size() || rows_[row].code != code) return std::nullopt;
  return tensor::ConstView{data_.get() + rows_[row].offset, shape_of(row)};
}

std::vector<BlockKey> BlockTensor::admissible_keys() const {
  std::vector<BlockKey> keys;
  BlockKey key(static_cast<std::size_t>(order()), 0);
  // Odometer over all sector combinations; keep the conserving ones.
  while (true) {
    if (key_allowed(key)) keys.push_back(key);
    int m = order() - 1;
    while (m >= 0) {
      auto mi = static_cast<std::size_t>(m);
      if (++key[mi] < indices_[mi].num_sectors()) break;
      key[mi] = 0;
      --m;
    }
    if (m < 0) break;
  }
  return keys;
}

index_t BlockTensor::dense_size() const {
  index_t n = 1;
  for (const Index& idx : indices_) n *= idx.dim();
  return n;
}

double BlockTensor::fill_fraction() const {
  const index_t d = dense_size();
  return d == 0 ? 0.0 : static_cast<double>(num_elements()) / static_cast<double>(d);
}

void BlockTensor::scale(real_t s) {
  for (index_t i = 0; i < size_; ++i) data_[i] *= s;
}

void BlockTensor::axpy(real_t alpha, const BlockTensor& other) {
  TT_CHECK(same_structure(other), "axpy structure mismatch");
  const real_t* x = other.data_.get();
  if (rows_ == other.rows_) {
    real_t* y = data_.get();
    for (index_t i = 0; i < size_; ++i) y[i] += alpha * x[i];
    return;
  }
  // Merge the tables: a block of `other` alone becomes α·x, one of this
  // alone is kept, and a shared one is y + α·x.
  BlockTensor sum(indices_, flux_);
  struct Src {
    const real_t* y;
    const real_t* x;
  };
  std::vector<Src> src;
  src.reserve(rows_.size() + other.rows_.size());
  std::size_t i = 0, j = 0;
  while (i < rows_.size() || j < other.rows_.size()) {
    const bool take_y = j == other.rows_.size() ||
                        (i < rows_.size() && rows_[i].code <= other.rows_[j].code);
    const bool take_x = i == rows_.size() ||
                        (j < other.rows_.size() && other.rows_[j].code <= rows_[i].code);
    if (take_y) {
      sum.append_row(rows_[i].code, key_of(i));
    } else {
      sum.append_row(other.rows_[j].code, other.key_of(j));
    }
    src.push_back({take_y ? data_.get() + rows_[i++].offset : nullptr,
                   take_x ? x + other.rows_[j++].offset : nullptr});
  }
  sum.allocate(sum.size_);
  for (std::size_t r = 0; r < src.size(); ++r) {
    const tensor::View out = sum.block_at(r);
    const index_t n = out.size();
    if (src[r].y == nullptr) {
      for (index_t e = 0; e < n; ++e) out[e] = alpha * src[r].x[e];
    } else if (src[r].x == nullptr) {
      std::copy_n(src[r].y, n, out.data());
    } else {
      for (index_t e = 0; e < n; ++e) out[e] = src[r].y[e] + alpha * src[r].x[e];
    }
  }
  *this = std::move(sum);
}

real_t BlockTensor::norm2() const {
  real_t s = 0.0;
  for (const auto& [key, blk] : blocks()) {
    const real_t n = blk.norm2();
    s += n * n;
  }
  return std::sqrt(s);
}

BlockTensor BlockTensor::dagger() const {
  BlockTensor d = *this;
  d.flux_ = -flux_;
  for (Index& idx : d.indices_) idx = idx.reversed();
  return d;
}

bool BlockTensor::same_structure(const BlockTensor& other) const {
  if (!(flux_ == other.flux_) || indices_.size() != other.indices_.size())
    return false;
  for (std::size_t i = 0; i < indices_.size(); ++i)
    if (!(indices_[i] == other.indices_[i])) return false;
  return true;
}

real_t dot(const BlockTensor& a, const BlockTensor& b) {
  TT_CHECK(a.same_structure(b), "dot structure mismatch");
  real_t s = 0.0;
  for (const auto& [key, blk] : a.blocks())
    if (const auto other = b.find_block(key)) s += tensor::dot(blk, *other);
  return s;
}

real_t max_abs_diff(const BlockTensor& a, const BlockTensor& b) {
  TT_CHECK(a.same_structure(b), "max_abs_diff structure mismatch");
  real_t m = 0.0;
  for (const auto& [key, blk] : a.blocks()) {
    if (const auto other = b.find_block(key)) {
      m = std::max(m, tensor::max_abs_diff(blk, *other));
    } else {
      m = std::max(m, blk.max_abs());
    }
  }
  for (const auto& [key, blk] : b.blocks())
    if (!a.find_block(key)) m = std::max(m, blk.max_abs());
  return m;
}

}  // namespace tt::symm
