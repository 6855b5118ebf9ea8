// Einstein-summation contraction of two dense tensors.
//
// This is the contraction interface of the Cyclops stand-in: a spec string
// like "akb,bscd->aksc" names each mode with one character; labels shared by
// both inputs and absent from the output are summed. Execution follows CTF:
// permute operands into matrix layout, GEMM, permute the result back. Operand permutations that are a
// pure matrix transpose skip the copy entirely: they lower to the gemm_raw
// transa/transb flags, which the backends absorb for free.
//
// Restrictions (checked): no repeated label within one operand (no traces) and
// no label present in both inputs *and* the output (no batch/Hadamard modes).
// DMRG needs neither.
#pragma once

#include <string>

#include "tensor/dense.hpp"

namespace tt::tensor {

/// Parsed einsum specification.
struct EinsumSpec {
  std::string a, b, c;

  /// Parse "ab,bc->ac"; throws tt::Error on malformed specs.
  static EinsumSpec parse(const std::string& spec);
};

/// Execution metadata, consumed by the runtime cost model.
struct EinsumStats {
  double flops = 0.0;           ///< 2·(scalar multiplies)
  double permuted_words = 0.0;  ///< elements moved by layout permutations
  /// Operands whose permutation was a pure matrix transpose and lowered to a
  /// gemm_raw trans flag instead of a materialized copy; such operands do not
  /// contribute to permuted_words.
  int lowered_transposes = 0;
  index_t m = 0, n = 0, k = 0;  ///< matricized GEMM dimensions
};

/// Dense × dense → dense.
DenseTensor einsum(const std::string& spec, const DenseTensor& a,
                   const DenseTensor& b, EinsumStats* stats = nullptr);

}  // namespace tt::tensor
