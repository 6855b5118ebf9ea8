// Loop-based einsum oracle for tests: O(prod of all label dims), no GEMM.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "tensor/dense.hpp"

namespace tt::testing {

/// Contract two dense tensors by brute-force enumeration of all label values.
/// Specs name each mode with one letter ("akb,bsc->aksc"); labels shared by
/// both inputs and absent from the output are summed. No traces, no batch
/// labels.
inline tensor::DenseTensor naive_einsum(const std::string& spec,
                                        const tensor::DenseTensor& a,
                                        const tensor::DenseTensor& b) {
  const auto arrow = spec.find("->");
  const auto comma = spec.find(',');
  TT_CHECK(arrow != std::string::npos && comma != std::string::npos, "bad spec " << spec);
  const std::string la = spec.substr(0, comma);
  const std::string lb = spec.substr(comma + 1, arrow - comma - 1);
  const std::string lc = spec.substr(arrow + 2);

  // Dimension of every label.
  std::map<char, index_t> dim;
  for (std::size_t i = 0; i < la.size(); ++i) dim[la[i]] = a.dim(static_cast<int>(i));
  for (std::size_t i = 0; i < lb.size(); ++i) dim[lb[i]] = b.dim(static_cast<int>(i));

  std::vector<index_t> cshape;
  for (char l : lc) cshape.push_back(dim.at(l));
  tensor::DenseTensor c(cshape);

  std::vector<char> labels;
  for (auto& [l, _] : dim) labels.push_back(l);

  std::map<char, index_t> idx;
  for (char l : labels) idx[l] = 0;

  auto flat_of = [&](const std::string& ls, const tensor::DenseTensor& t) {
    index_t f = 0;
    for (std::size_t i = 0; i < ls.size(); ++i)
      f = f * t.dim(static_cast<int>(i)) + idx.at(ls[i]);
    return f;
  };

  // Odometer over all labels.
  while (true) {
    const real_t va = a.size() ? a[flat_of(la, a)] : 0.0;
    const real_t vb = b.size() ? b[flat_of(lb, b)] : 0.0;
    if (c.size()) {
      index_t fc = 0;
      for (std::size_t i = 0; i < lc.size(); ++i)
        fc = fc * c.dim(static_cast<int>(i)) + idx.at(lc[i]);
      c[fc] += va * vb;
    }
    int pos = static_cast<int>(labels.size()) - 1;
    while (pos >= 0) {
      char l = labels[static_cast<std::size_t>(pos)];
      if (++idx[l] < dim[l]) break;
      idx[l] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  return c;
}

}  // namespace tt::testing
