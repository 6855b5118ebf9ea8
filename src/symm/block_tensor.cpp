#include "symm/block_tensor.hpp"

#include <algorithm>
#include <cmath>

namespace tt::symm {

BlockTensor::BlockTensor(std::vector<Index> indices, QN flux)
    : indices_(std::move(indices)), flux_(flux) {
  for (const Index& idx : indices_)
    TT_CHECK(idx.num_sectors() > 0 &&
                 idx.sector(0).qn.rank() == flux_.rank(),
             "index QN rank does not match flux rank " << flux_.rank());
}

BlockTensor BlockTensor::random(std::vector<Index> indices, QN flux, Rng& rng) {
  BlockTensor t(std::move(indices), flux);
  for (const BlockKey& key : t.admissible_keys())
    t.block(key) = tensor::DenseTensor::random(t.block_shape(key), rng);
  return t;
}

bool BlockTensor::key_allowed(const BlockKey& key) const {
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

QN BlockTensor::partial_charge(const BlockKey& key,
                               const std::vector<int>& modes) const {
  QN sum = QN::zero(flux_.rank());
  for (int m : modes) {
    const Index& idx = indices_[static_cast<std::size_t>(m)];
    const QN& q = idx.sector(key[static_cast<std::size_t>(m)]).qn;
    sum = (sign(idx.dir()) > 0) ? sum + q : sum - q;
  }
  return sum;
}

std::vector<index_t> BlockTensor::block_shape(const BlockKey& key) const {
  std::vector<index_t> shape(key.size());
  for (int m = 0; m < order(); ++m)
    shape[static_cast<std::size_t>(m)] =
        indices_[static_cast<std::size_t>(m)].sector(key[static_cast<std::size_t>(m)]).dim;
  return shape;
}

tensor::DenseTensor& BlockTensor::block(const BlockKey& key) {
  TT_CHECK(key_allowed(key), "block key violates charge conservation");
  auto it = blocks_.find(key);
  if (it == blocks_.end())
    it = blocks_.emplace(key, tensor::DenseTensor(block_shape(key))).first;
  return it->second;
}

const tensor::DenseTensor* BlockTensor::find_block(const BlockKey& key) const {
  auto it = blocks_.find(key);
  return it == blocks_.end() ? nullptr : &it->second;
}

void BlockTensor::accumulate(const BlockKey& key, tensor::DenseTensor t) {
  TT_CHECK(key_allowed(key), "block key violates charge conservation");
  TT_CHECK(t.shape() == block_shape(key), "accumulated block shape mismatch");
  auto it = blocks_.find(key);
  if (it == blocks_.end()) {
    blocks_.emplace(key, std::move(t));
  } else {
    it->second.axpy(1.0, t);
  }
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

index_t BlockTensor::num_elements() const {
  index_t n = 0;
  for (const auto& [key, blk] : blocks_) n += blk.size();
  return n;
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
  for (auto& [key, blk] : blocks_) blk.scale(s);
}

void BlockTensor::axpy(real_t alpha, const BlockTensor& other) {
  TT_CHECK(same_structure(other), "axpy structure mismatch");
  for (const auto& [key, blk] : other.blocks_) {
    auto it = blocks_.find(key);
    if (it == blocks_.end()) {
      tensor::DenseTensor copy = blk;
      copy.scale(alpha);
      blocks_.emplace(key, std::move(copy));
    } else {
      it->second.axpy(alpha, blk);
    }
  }
}

real_t BlockTensor::norm2() const {
  real_t s = 0.0;
  for (const auto& [key, blk] : blocks_) {
    const real_t n = blk.norm2();
    s += n * n;
  }
  return std::sqrt(s);
}

BlockTensor BlockTensor::dagger() const {
  BlockTensor d;
  d.flux_ = -flux_;
  d.indices_.reserve(indices_.size());
  for (const Index& idx : indices_) d.indices_.push_back(idx.reversed());
  d.blocks_ = blocks_;
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
  for (const auto& [key, blk] : a.blocks()) {
    const tensor::DenseTensor* other = b.find_block(key);
    if (other) s += tensor::dot(blk, *other);
  }
  return s;
}

real_t max_abs_diff(const BlockTensor& a, const BlockTensor& b) {
  TT_CHECK(a.same_structure(b), "max_abs_diff structure mismatch");
  real_t m = 0.0;
  for (const auto& [key, blk] : a.blocks()) {
    const tensor::DenseTensor* other = b.find_block(key);
    if (other) {
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
