// Pairwise contraction of two dense tensors, the dense kernel under every
// block pair of paper Algorithm 2. As in CTF, the operands are permuted into
// matrix layout for one GEMM. An operand whose matrix layout is a pure
// transpose of its storage is not copied: it lowers to a gemm_raw trans flag.
#pragma once

#include <utility>
#include <vector>

#include "tensor/dense.hpp"

namespace tt::tensor {

/// Contract `a` with `b` over (mode of a, mode of b) pairs. The output holds
/// the free modes of `a` in order, then the free modes of `b` in order. The
/// contracted modes enter GEMM's k in their order within `a`, however `pairs`
/// lists them. Throws tt::Error for a mode out of range, a mode contracted
/// twice or a dimension mismatch within a pair.
DenseTensor contract(const DenseTensor& a, const DenseTensor& b,
                     const std::vector<std::pair<int, int>>& pairs);

}  // namespace tt::tensor
