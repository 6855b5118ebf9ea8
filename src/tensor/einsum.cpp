#include "tensor/einsum.hpp"

#include <vector>

#include "linalg/gemm.hpp"
#include "support/error.hpp"

namespace tt::tensor {

namespace {

bool contains_char(const std::string& s, char c) {
  return s.find(c) != std::string::npos;
}

void check_unique_labels(const std::string& s, const char* which) {
  for (std::size_t i = 0; i < s.size(); ++i)
    for (std::size_t j = i + 1; j < s.size(); ++j)
      TT_CHECK(s[i] != s[j], "repeated label '" << s[i] << "' in " << which
                                                << " operand (traces unsupported)");
}

// Classified contraction plan.
struct Plan {
  std::vector<int> free_a, con_a;  // mode positions within A
  std::vector<int> con_b, free_b;  // mode positions within B (con_b parallel to con_a)
  std::vector<int> cperm;          // tmp [free_a, free_b] -> C mode order
  std::vector<index_t> tmp_shape;
  index_t m = 1, n = 1, k = 1;
  bool cperm_identity = true;
};

Plan make_plan(const EinsumSpec& spec, const std::vector<index_t>& sa,
               const std::vector<index_t>& sb) {
  TT_CHECK(spec.a.size() == sa.size(), "einsum: spec '" << spec.a << "' does not match order "
                                                        << sa.size() << " of first operand");
  TT_CHECK(spec.b.size() == sb.size(), "einsum: spec '" << spec.b << "' does not match order "
                                                        << sb.size() << " of second operand");
  Plan p;
  p.free_a.reserve(spec.a.size());
  p.con_a.reserve(spec.a.size());
  p.con_b.reserve(spec.a.size());
  p.free_b.reserve(spec.b.size());
  std::string tmp_labels;
  tmp_labels.reserve(spec.c.size());
  for (std::size_t i = 0; i < spec.a.size(); ++i) {
    const char l = spec.a[i];
    const bool in_b = contains_char(spec.b, l);
    const bool in_c = contains_char(spec.c, l);
    TT_CHECK(in_b != in_c, "einsum label '" << l << "' must appear in exactly one of the "
                                            << "second operand or the output");
    if (in_c) {
      p.free_a.push_back(static_cast<int>(i));
      tmp_labels.push_back(l);
      p.m *= sa[i];
    } else {
      p.con_a.push_back(static_cast<int>(i));
      const auto jb = spec.b.find(l);
      p.con_b.push_back(static_cast<int>(jb));
      TT_CHECK(sa[i] == sb[jb], "einsum dimension mismatch on label '"
                                    << l << "': " << sa[i] << " vs " << sb[jb]);
      p.k *= sa[i];
    }
  }
  for (std::size_t i = 0; i < spec.b.size(); ++i) {
    const char l = spec.b[i];
    const bool in_a = contains_char(spec.a, l);
    const bool in_c = contains_char(spec.c, l);
    if (in_a) continue;  // contracted, already planned
    TT_CHECK(in_c, "einsum label '" << l << "' of the second operand is neither "
                                    << "contracted nor in the output");
    p.free_b.push_back(static_cast<int>(i));
    tmp_labels.push_back(l);
    p.n *= sb[i];
  }
  TT_CHECK(spec.c.size() == tmp_labels.size(),
           "einsum output '" << spec.c << "' does not cover the free labels '" << tmp_labels
                             << "'");
  for (char l : spec.c)
    TT_CHECK(contains_char(tmp_labels, l), "einsum output label '" << l
                                                                   << "' not produced by inputs");
  p.tmp_shape.reserve(tmp_labels.size());
  for (int mode : p.free_a) p.tmp_shape.push_back(sa[static_cast<std::size_t>(mode)]);
  for (int mode : p.free_b) p.tmp_shape.push_back(sb[static_cast<std::size_t>(mode)]);
  p.cperm.resize(spec.c.size());
  for (std::size_t i = 0; i < spec.c.size(); ++i) {
    p.cperm[i] = static_cast<int>(tmp_labels.find(spec.c[i]));
    if (p.cperm[i] != static_cast<int>(i)) p.cperm_identity = false;
  }
  return p;
}

bool is_identity(const std::vector<int>& perm) {
  for (std::size_t i = 0; i < perm.size(); ++i)
    if (perm[i] != static_cast<int>(i)) return false;
  return true;
}

}  // namespace

EinsumSpec EinsumSpec::parse(const std::string& spec) {
  const auto arrow = spec.find("->");
  TT_CHECK(arrow != std::string::npos, "einsum spec missing '->': " << spec);
  const std::string lhs = spec.substr(0, arrow);
  EinsumSpec out;
  out.c = spec.substr(arrow + 2);
  const auto comma = lhs.find(',');
  TT_CHECK(comma != std::string::npos, "einsum spec must have two operands: " << spec);
  out.a = lhs.substr(0, comma);
  out.b = lhs.substr(comma + 1);
  TT_CHECK(out.b.find(',') == std::string::npos,
           "einsum supports exactly two operands: " << spec);
  check_unique_labels(out.a, "first");
  check_unique_labels(out.b, "second");
  check_unique_labels(out.c, "output");
  return out;
}

// Concatenation of two mode lists (the matricized [rows, cols] orders).
std::vector<int> concat(const std::vector<int>& x, const std::vector<int>& y) {
  std::vector<int> out = x;
  out.insert(out.end(), y.begin(), y.end());
  return out;
}

DenseTensor einsum(const std::string& spec_str, const DenseTensor& a,
                   const DenseTensor& b, EinsumStats* stats) {
  const EinsumSpec spec = EinsumSpec::parse(spec_str);
  const Plan p = make_plan(spec, a.shape(), b.shape());

  // Operand lowering: GEMM wants op(A) = [free_a, con_a] and op(B) =
  // [con_b, free_b]. When an operand already stores those groups contiguous
  // and in order — either directly or with the two groups swapped — hand GEMM
  // the buffer as-is with the matching trans flag instead of materializing a
  // permuted copy (the packed kernel and dgemm absorb transposes for free).
  double permuted = 0.0;
  bool transa = false, transb = false;
  const DenseTensor* ap = &a;
  const DenseTensor* bp = &b;
  DenseTensor a_work, b_work;
  if (is_identity(concat(p.free_a, p.con_a))) {
    // already op(A); nothing to do
  } else if (is_identity(concat(p.con_a, p.free_a))) {
    transa = true;  // physical layout is op(A)ᵀ = [con_a, free_a]
  } else {
    a_work = a.permuted(concat(p.free_a, p.con_a));
    ap = &a_work;
    permuted += static_cast<double>(a.size());
  }
  if (is_identity(concat(p.con_b, p.free_b))) {
    // already op(B)
  } else if (is_identity(concat(p.free_b, p.con_b))) {
    transb = true;  // physical layout is op(B)ᵀ = [free_b, con_b]
  } else {
    b_work = b.permuted(concat(p.con_b, p.free_b));
    bp = &b_work;
    permuted += static_cast<double>(b.size());
  }

  DenseTensor tmp(p.tmp_shape);
  linalg::gemm_raw(transa, transb, p.m, p.n, p.k, 1.0, ap->data(), bp->data(),
                   0.0, tmp.data());

  DenseTensor out;
  if (p.cperm_identity) {
    out = std::move(tmp);
  } else {
    out = tmp.permuted(p.cperm);
    permuted += static_cast<double>(out.size());
  }
  if (stats) {
    stats->flops += linalg::gemm_flops(p.m, p.n, p.k);
    stats->permuted_words += permuted;
    stats->lowered_transposes += (transa ? 1 : 0) + (transb ? 1 : 0);
    stats->m = p.m;
    stats->n = p.n;
    stats->k = p.k;
  }
  return out;
}

}  // namespace tt::tensor
