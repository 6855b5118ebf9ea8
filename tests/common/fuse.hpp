// Fusing the block (list) format into one dense tensor: the dense oracle the
// block-sparse kernels are checked against.
//
// Each index's sectors map to contiguous offset ranges of its fused dimension
// (paper §IV-A, Fig 3b); elements outside present blocks are zero.
#pragma once

#include <vector>

#include "symm/block_tensor.hpp"

namespace tt::testing {

/// Fused dense tensor of shape [index(0).dim(), …]; zero outside blocks.
inline tensor::DenseTensor fuse_dense(const symm::BlockTensor& t) {
  std::vector<index_t> shape;
  shape.reserve(t.indices().size());
  for (const symm::Index& idx : t.indices()) shape.push_back(idx.dim());
  tensor::DenseTensor out(shape);
  const std::vector<index_t> strides = out.strides();
  const auto r = static_cast<std::size_t>(t.order());
  for (const auto& [key, blk] : t.blocks()) {
    if (blk.size() == 0) continue;
    // Row-major odometer over the block, tracking the fused flat position.
    index_t fused = 0;
    for (std::size_t m = 0; m < r; ++m)
      fused += t.index(static_cast<int>(m)).sector_offset(key[m]) * strides[m];
    std::vector<index_t> idx(r, 0);
    for (index_t flat = 0; flat < blk.size(); ++flat) {
      out[fused] = blk[flat];
      for (std::size_t m = r; m-- > 0;) {
        fused += strides[m];
        if (++idx[m] < blk.dim(static_cast<int>(m))) break;
        fused -= blk.dim(static_cast<int>(m)) * strides[m];
        idx[m] = 0;
      }
    }
  }
  return out;
}

}  // namespace tt::testing
