#include "tensor/contract.hpp"

#include "linalg/gemm.hpp"
#include "support/error.hpp"

namespace tt::tensor {

namespace {

// x ++ y, the mode order of one matricized operand.
std::vector<int> concat(const std::vector<int>& x, const std::vector<int>& y) {
  std::vector<int> out = x;
  out.insert(out.end(), y.begin(), y.end());
  return out;
}

bool is_identity(const std::vector<int>& perm) {
  for (std::size_t i = 0; i < perm.size(); ++i)
    if (perm[i] != static_cast<int>(i)) return false;
  return true;
}

}  // namespace

DenseTensor contract(const DenseTensor& a, const DenseTensor& b,
                     const std::vector<std::pair<int, int>>& pairs) {
  // partner[i]: the mode of b contracted with mode i of a, or -1 when free.
  std::vector<int> partner(static_cast<std::size_t>(a.order()), -1);
  std::vector<bool> b_contracted(static_cast<std::size_t>(b.order()), false);
  for (auto [ma, mb] : pairs) {
    TT_CHECK(ma >= 0 && ma < a.order() && mb >= 0 && mb < b.order(),
             "contract: mode pair (" << ma << "," << mb << ") out of range");
    TT_CHECK(partner[static_cast<std::size_t>(ma)] < 0 &&
                 !b_contracted[static_cast<std::size_t>(mb)],
             "contract: mode contracted twice in pair (" << ma << "," << mb << ")");
    TT_CHECK(a.dim(ma) == b.dim(mb), "contract: dimension mismatch on pair ("
                                         << ma << "," << mb << "): " << a.dim(ma)
                                         << " vs " << b.dim(mb));
    partner[static_cast<std::size_t>(ma)] = mb;
    b_contracted[static_cast<std::size_t>(mb)] = true;
  }

  // GEMM wants op(A) = [free_a, con_a] and op(B) = [con_b, free_b], with the
  // contracted modes in a's order and con_b parallel to con_a.
  std::vector<int> free_a, con_a, con_b, free_b;
  std::vector<index_t> out_shape;
  index_t m = 1, n = 1, k = 1;
  for (int i = 0; i < a.order(); ++i) {
    const int p = partner[static_cast<std::size_t>(i)];
    if (p < 0) {
      free_a.push_back(i);
      out_shape.push_back(a.dim(i));
      m *= a.dim(i);
    } else {
      con_a.push_back(i);
      con_b.push_back(p);
      k *= a.dim(i);
    }
  }
  for (int j = 0; j < b.order(); ++j)
    if (!b_contracted[static_cast<std::size_t>(j)]) {
      free_b.push_back(j);
      out_shape.push_back(b.dim(j));
      n *= b.dim(j);
    }

  // An operand that already stores its two groups in order goes to GEMM
  // as-is; one that stores them swapped goes with its trans flag. Only the
  // rest are permuted copies.
  const bool a_aligned = is_identity(concat(free_a, con_a));
  const bool transa = !a_aligned && is_identity(concat(con_a, free_a));
  DenseTensor a_work;
  if (!a_aligned && !transa) a_work = a.permuted(concat(free_a, con_a));
  const bool b_aligned = is_identity(concat(con_b, free_b));
  const bool transb = !b_aligned && is_identity(concat(free_b, con_b));
  DenseTensor b_work;
  if (!b_aligned && !transb) b_work = b.permuted(concat(con_b, free_b));

  DenseTensor out(std::move(out_shape));
  linalg::gemm_raw(transa, transb, m, n, k, 1.0,
                   a_aligned || transa ? a.data() : a_work.data(),
                   b_aligned || transb ? b.data() : b_work.data(), 0.0, out.data());
  return out;
}

}  // namespace tt::tensor
