#include "dmrg/environment.hpp"

namespace tt::dmrg {

using symm::BlockTensor;
using symm::Dir;
using symm::Index;
using symm::QN;

BlockTensor left_boundary(int qn_rank) {
  const QN zero = QN::zero(qn_rank);
  BlockTensor e({Index::single(zero, 1, Dir::In), Index::single(zero, 1, Dir::Out),
                 Index::single(zero, 1, Dir::Out)},
                zero);
  e.block({0, 0, 0})[0] = 1.0;
  return e;
}

BlockTensor right_boundary(const QN& total) {
  const QN zero = QN::zero(total.rank());
  BlockTensor e({Index::single(total, 1, Dir::Out), Index::single(zero, 1, Dir::In),
                 Index::single(total, 1, Dir::In)},
                zero);
  e.block({0, 0, 0})[0] = 1.0;
  return e;
}

BlockTensor extend_left(ContractionEngine& eng, const BlockTensor& left,
                        const BlockTensor& psi_j, const BlockTensor& w_j) {
  // Each step's result replaces the previous intermediate, which is freed
  // as soon as it is consumed.
  // L(bra,mpo,ket) · ψ†(l,s,r) over bra  → (mpo, ket, s_bra, r_bra)
  BlockTensor t =
      eng.contract(left, Role::kOperator, psi_j.dagger(), Role::kOperator, {{0, 0}});
  // · W(k,s,s',k') over (mpo,k),(s_bra,s) → (ket, r_bra, s', k')
  t = eng.contract(t, Role::kOperator, w_j, Role::kOperator, {{0, 0}, {2, 1}});
  // · ψ(l,s,r) over (ket,l),(s',s)        → (r_bra, k', r_ket)
  return eng.contract(t, Role::kOperator, psi_j, Role::kOperator, {{0, 0}, {2, 1}});
}

BlockTensor extend_right(ContractionEngine& eng, const BlockTensor& right,
                         const BlockTensor& psi_j, const BlockTensor& w_j) {
  // ψ†(l,s,r) · R(bra,mpo,ket) over (r,bra) → (l_bra, s_bra, mpo, ket)
  BlockTensor t =
      eng.contract(psi_j.dagger(), Role::kOperator, right, Role::kOperator, {{2, 0}});
  // · W(k,s,s',k') over (mpo,k'),(s_bra,s)  → (l_bra, ket, k, s')
  t = eng.contract(t, Role::kOperator, w_j, Role::kOperator, {{2, 3}, {1, 1}});
  // · ψ(l,s,r) over (ket,r),(s',s)          → (l_bra, k, l_ket)
  return eng.contract(t, Role::kOperator, psi_j, Role::kOperator, {{1, 2}, {3, 1}});
}

BlockTensor apply_two_site(ContractionEngine& eng, const BlockTensor& left,
                           const BlockTensor& w1, const BlockTensor& w2,
                           const BlockTensor& right, const BlockTensor& x) {
  // As in extend_left, each intermediate is freed once consumed, so the
  // third can reuse the first's buffer (same dimensions, reordered).
  // L(bra,mpo,ket) · x(l,s1,s2,r) over (ket,l) → (bra, mpo, s1, s2, r)
  BlockTensor t = eng.contract(left, Role::kOperator, x, Role::kIntermediate, {{2, 0}});
  // · W1(k,s,s',k') over (mpo,k),(s1,s')       → (bra, s2, r, s1', k')
  t = eng.contract(t, Role::kIntermediate, w1, Role::kOperator, {{1, 0}, {2, 2}});
  // · W2 over (k',k),(s2,s')                   → (bra, r, s1', s2', k'')
  t = eng.contract(t, Role::kIntermediate, w2, Role::kOperator, {{4, 0}, {1, 2}});
  // · R(bra,mpo,ket) over (r,ket),(k'',mpo)    → (bra, s1', s2', r_bra)
  return eng.contract(t, Role::kIntermediate, right, Role::kOperator, {{1, 2}, {4, 1}});
}

}  // namespace tt::dmrg
