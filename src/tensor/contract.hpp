// Pairwise contraction of two dense tensors, the dense kernel under every
// block pair of paper Algorithm 2. As in CTF, the operands are permuted into
// matrix layout for one GEMM. An operand whose matrix layout is a pure
// transpose of its storage is not copied: it lowers to a gemm_raw trans flag.
//
// The layout (free and contracted modes, trans flags, permutations) depends
// only on the operand orders and the mode pairs, so it is derived once per
// contraction and shared by every block pair that contracts the same way:
// contract_accumulate runs one pair as a single β=1 GEMM into an existing
// output, permuting an operand that needs it into a per-thread scratch
// buffer. A warm call allocates nothing.
#pragma once

#include <utility>
#include <vector>

#include "tensor/dense.hpp"

namespace tt::tensor {

/// The matrix layout of one contraction: op(A) = [free_a, con_a] and
/// op(B) = [con_b, free_b], with the contracted modes in a's order and con_b
/// parallel to con_a.
struct ContractLayout {
  int order_a = 0, order_b = 0;
  std::vector<int> free_a, con_a;  ///< output rows / GEMM's k, modes of a
  std::vector<int> con_b, free_b;  ///< GEMM's k / output columns, modes of b
  std::vector<int> perm_a;         ///< free_a ++ con_a: a's matrix mode order
  std::vector<int> perm_b;         ///< con_b ++ free_b: b's matrix mode order
  bool transa = false, transb = false;        ///< stored transposed: no copy
  bool permute_a = false, permute_b = false;  ///< neither: permuted copy
};

/// Derive the layout of contracting an order-`order_a` tensor with an
/// order-`order_b` one over (mode of a, mode of b) pairs. Throws tt::Error for
/// a mode out of range or a mode contracted twice.
ContractLayout contract_layout(int order_a, int order_b,
                               const std::vector<std::pair<int, int>>& pairs);

/// Shape of a·b under `layout`: the free dims of a, then those of b.
std::vector<index_t> contract_shape(const ContractLayout& layout, ConstView a,
                                    ConstView b);

/// out += a·b under `layout`, as one β=1 GEMM. Throws tt::Error when an
/// operand's order, a contracted dimension pair or `out`'s shape disagrees
/// with the layout — integer compares that also validate wire input.
void contract_accumulate(const ContractLayout& layout, ConstView a, ConstView b,
                         View out);

/// Contract `a` with `b` over (mode of a, mode of b) pairs: the one-pair case
/// of the code above. The output holds the free modes of `a` in order, then
/// the free modes of `b` in order. The contracted modes enter GEMM's k in
/// their order within `a`, however `pairs` lists them. Throws tt::Error for a
/// mode out of range, a mode contracted twice or a dimension mismatch within
/// a pair.
DenseTensor contract(const DenseTensor& a, const DenseTensor& b,
                     const std::vector<std::pair<int, int>>& pairs);

}  // namespace tt::tensor
