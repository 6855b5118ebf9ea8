#include "tensor/contract.hpp"

#include "linalg/gemm.hpp"
#include "support/error.hpp"
#include "support/scratch.hpp"

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

void check_orders(const ContractLayout& l, ConstView a, ConstView b) {
  TT_CHECK(a.order() == l.order_a && b.order() == l.order_b,
           "contract: operand orders (" << a.order() << "," << b.order()
                                        << ") do not match the layout's ("
                                        << l.order_a << "," << l.order_b << ")");
}

}  // namespace

ContractLayout contract_layout(int order_a, int order_b,
                               const std::vector<std::pair<int, int>>& pairs) {
  // partner[i]: the mode of b contracted with mode i of a, or -1 when free.
  std::vector<int> partner(static_cast<std::size_t>(order_a), -1);
  std::vector<bool> b_contracted(static_cast<std::size_t>(order_b), false);
  for (auto [ma, mb] : pairs) {
    TT_CHECK(ma >= 0 && ma < order_a && mb >= 0 && mb < order_b,
             "contract: mode pair (" << ma << "," << mb << ") out of range");
    TT_CHECK(partner[static_cast<std::size_t>(ma)] < 0 &&
                 !b_contracted[static_cast<std::size_t>(mb)],
             "contract: mode contracted twice in pair (" << ma << "," << mb << ")");
    partner[static_cast<std::size_t>(ma)] = mb;
    b_contracted[static_cast<std::size_t>(mb)] = true;
  }

  ContractLayout l;
  l.order_a = order_a;
  l.order_b = order_b;
  for (int i = 0; i < order_a; ++i) {
    const int p = partner[static_cast<std::size_t>(i)];
    if (p < 0) {
      l.free_a.push_back(i);
    } else {
      l.con_a.push_back(i);
      l.con_b.push_back(p);
    }
  }
  for (int j = 0; j < order_b; ++j)
    if (!b_contracted[static_cast<std::size_t>(j)]) l.free_b.push_back(j);

  // An operand that already stores its two groups in order goes to GEMM
  // as-is; one that stores them swapped goes with its trans flag. Only the
  // rest are permuted copies.
  l.perm_a = concat(l.free_a, l.con_a);
  l.perm_b = concat(l.con_b, l.free_b);
  const bool a_aligned = is_identity(l.perm_a);
  l.transa = !a_aligned && is_identity(concat(l.con_a, l.free_a));
  l.permute_a = !a_aligned && !l.transa;
  const bool b_aligned = is_identity(l.perm_b);
  l.transb = !b_aligned && is_identity(concat(l.free_b, l.con_b));
  l.permute_b = !b_aligned && !l.transb;
  return l;
}

std::vector<index_t> contract_shape(const ContractLayout& layout, ConstView a,
                                    ConstView b) {
  check_orders(layout, a, b);
  std::vector<index_t> shape;
  shape.reserve(layout.free_a.size() + layout.free_b.size());
  for (int i : layout.free_a) shape.push_back(a.dim(i));
  for (int j : layout.free_b) shape.push_back(b.dim(j));
  return shape;
}

void contract_accumulate(const ContractLayout& layout, ConstView a, ConstView b,
                         View out) {
  check_orders(layout, a, b);
  const int nfa = static_cast<int>(layout.free_a.size());
  const int nfb = static_cast<int>(layout.free_b.size());
  TT_CHECK(out.order() == nfa + nfb,
           "contract: output order " << out.order() << ", expected " << nfa + nfb);
  index_t m = 1, n = 1, k = 1;
  for (int i = 0; i < nfa; ++i) {
    const index_t d = a.dim(layout.free_a[static_cast<std::size_t>(i)]);
    TT_CHECK(out.dim(i) == d,
             "contract: output mode " << i << " has dim " << out.dim(i) << ", expected " << d);
    m *= d;
  }
  for (int j = 0; j < nfb; ++j) {
    const index_t d = b.dim(layout.free_b[static_cast<std::size_t>(j)]);
    TT_CHECK(out.dim(nfa + j) == d, "contract: output mode " << nfa + j << " has dim "
                                                             << out.dim(nfa + j)
                                                             << ", expected " << d);
    n *= d;
  }
  for (std::size_t t = 0; t < layout.con_a.size(); ++t) {
    const int ma = layout.con_a[t], mb = layout.con_b[t];
    TT_CHECK(a.dim(ma) == b.dim(mb), "contract: dimension mismatch on pair ("
                                         << ma << "," << mb << "): " << a.dim(ma)
                                         << " vs " << b.dim(mb));
    k *= a.dim(ma);
  }

  // The calling thread's matricized copies; GEMM reads them before this
  // thread can need the buffers again.
  thread_local support::ScratchBuffer a_scratch, b_scratch;
  const real_t* a_mat = a.data();
  if (layout.permute_a) {
    real_t* p = a_scratch.get(static_cast<std::size_t>(a.size()));
    permute_into(a.data(), a.shape(), layout.perm_a, p);
    a_mat = p;
  }
  const real_t* b_mat = b.data();
  if (layout.permute_b) {
    real_t* p = b_scratch.get(static_cast<std::size_t>(b.size()));
    permute_into(b.data(), b.shape(), layout.perm_b, p);
    b_mat = p;
  }
  linalg::gemm_raw(layout.transa, layout.transb, m, n, k, 1.0, a_mat, b_mat, 1.0,
                   out.data());
}

DenseTensor contract(const DenseTensor& a, const DenseTensor& b,
                     const std::vector<std::pair<int, int>>& pairs) {
  const ContractLayout layout = contract_layout(a.order(), b.order(), pairs);
  DenseTensor out(contract_shape(layout, a, b));
  contract_accumulate(layout, a, b, out);
  return out;
}

}  // namespace tt::tensor
