#include "symm/fuse.hpp"

namespace tt::symm {

namespace {

using tensor::DenseTensor;

std::vector<index_t> fused_shape(const std::vector<Index>& indices) {
  std::vector<index_t> shape;
  shape.reserve(indices.size());
  for (const Index& idx : indices) shape.push_back(idx.dim());
  return shape;
}

// Per-mode offsets of a block within the fused tensor.
std::vector<index_t> block_offsets(const BlockTensor& t, const BlockKey& key) {
  std::vector<index_t> off(key.size());
  for (int m = 0; m < t.order(); ++m)
    off[static_cast<std::size_t>(m)] =
        t.index(m).sector_offset(key[static_cast<std::size_t>(m)]);
  return off;
}

// Visit every element of a block, producing (block_flat, fused_flat) pairs via
// an odometer; fn(block_flat, fused_flat).
template <class Fn>
void for_each_element(const std::vector<index_t>& block_shape,
                      const std::vector<index_t>& offsets,
                      const std::vector<index_t>& fused_strides, Fn&& fn) {
  const int r = static_cast<int>(block_shape.size());
  index_t total = 1;
  for (index_t d : block_shape) total *= d;
  if (total == 0) return;
  if (r == 0) {
    fn(index_t{0}, index_t{0});
    return;
  }
  std::vector<index_t> idx(static_cast<std::size_t>(r), 0);
  index_t fused = 0;
  for (int m = 0; m < r; ++m)
    fused += offsets[static_cast<std::size_t>(m)] * fused_strides[static_cast<std::size_t>(m)];
  for (index_t flat = 0; flat < total; ++flat) {
    fn(flat, fused);
    int m = r - 1;
    while (m >= 0) {
      auto mi = static_cast<std::size_t>(m);
      fused += fused_strides[mi];
      if (++idx[mi] < block_shape[mi]) break;
      fused -= block_shape[mi] * fused_strides[mi];
      idx[mi] = 0;
      --m;
    }
  }
}

}  // namespace

DenseTensor fuse_dense(const BlockTensor& t) {
  DenseTensor out(fused_shape(t.indices()));
  const std::vector<index_t> strides = out.strides();
  for (const auto& [key, blk] : t.blocks()) {
    const auto offsets = block_offsets(t, key);
    for_each_element(blk.shape(), offsets, strides,
                     [&](index_t bflat, index_t fflat) { out[fflat] = blk[bflat]; });
  }
  return out;
}

}  // namespace tt::symm
