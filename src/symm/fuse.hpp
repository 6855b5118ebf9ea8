// Fusing the block (list) format into one dense tensor.
//
// Each index's sectors map to contiguous offset ranges of its fused dimension
// (paper §IV-A, Fig 3b); elements outside present blocks are zero. Used as the
// dense oracle the block-sparse kernels are checked against.
#pragma once

#include "symm/block_tensor.hpp"

namespace tt::symm {

/// Fused dense tensor of shape [index(0).dim(), …]; zero outside blocks.
tensor::DenseTensor fuse_dense(const BlockTensor& t);

}  // namespace tt::symm
