#include "tensor/dense.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/thread_pool.hpp"

namespace tt::tensor {

// Element count above which permute_into splits its leading-mode slices over
// the pool; below it one pool dispatch costs more than the copy.
constexpr index_t kParallelPermuteElems = index_t{1} << 16;

DenseTensor::DenseTensor(std::vector<index_t> shape, real_t fill)
    : shape_(std::move(shape)) {
  index_t n = 1;
  for (index_t d : shape_) {
    TT_CHECK(d >= 0, "negative tensor dimension " << d);
    n *= d;
  }
  data_.assign(static_cast<std::size_t>(n), fill);
}

DenseTensor DenseTensor::random(std::vector<index_t> shape, Rng& rng) {
  DenseTensor t(std::move(shape));
  for (auto& v : t.data_) v = rng.normal();
  return t;
}

DenseTensor DenseTensor::scalar(real_t v) {
  DenseTensor t{std::vector<index_t>{}};
  t.data_.assign(1, v);
  return t;
}

index_t DenseTensor::size() const { return static_cast<index_t>(data_.size()); }

std::vector<index_t> DenseTensor::strides() const {
  std::vector<index_t> s(shape_.size(), 1);
  for (int i = static_cast<int>(shape_.size()) - 2; i >= 0; --i)
    s[static_cast<std::size_t>(i)] =
        s[static_cast<std::size_t>(i + 1)] * shape_[static_cast<std::size_t>(i + 1)];
  return s;
}

std::size_t DenseTensor::flat_index(std::span<const index_t> idx) const {
  TT_ASSERT(idx.size() == shape_.size(), "index order mismatch: " << idx.size()
                                                                  << " vs " << shape_.size());
  std::size_t flat = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    TT_ASSERT(idx[i] >= 0 && idx[i] < shape_[i],
              "index " << idx[i] << " out of bounds for mode " << i << " (dim "
                       << shape_[i] << ")");
    flat = flat * static_cast<std::size_t>(shape_[i]) + static_cast<std::size_t>(idx[i]);
  }
  return flat;
}

DenseTensor DenseTensor::reshaped(std::vector<index_t> new_shape) const {
  index_t n = 1;
  for (index_t d : new_shape) n *= d;
  TT_CHECK(n == size(), "reshape size mismatch: " << n << " vs " << size());
  DenseTensor out;
  out.shape_ = std::move(new_shape);
  out.data_ = data_;
  return out;
}

DenseTensor DenseTensor::permuted(std::span<const int> perm) const {
  TT_CHECK(static_cast<int>(perm.size()) == order(),
           "permutation order mismatch: " << perm.size() << " vs " << order());
  for (int p : perm)
    TT_CHECK(p >= 0 && p < order(), "permutation entry " << p << " out of range");
  std::vector<index_t> out_shape(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    out_shape[i] = shape_[static_cast<std::size_t>(perm[i])];
  DenseTensor out(std::move(out_shape));
  permute_into(*this, perm, out);
  return out;
}

void DenseTensor::fill(real_t v) { std::fill(data_.begin(), data_.end(), v); }

void DenseTensor::scale(real_t s) {
  for (auto& v : data_) v *= s;
}

void DenseTensor::axpy(real_t alpha, const DenseTensor& other) {
  TT_CHECK(shape_ == other.shape_, "axpy shape mismatch");
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) data_[i] += alpha * other.data_[i];
}

real_t DenseTensor::norm2() const {
  real_t s = 0.0;
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) s += data_[i] * data_[i];
  return std::sqrt(s);
}

real_t DenseTensor::max_abs() const {
  real_t m = 0.0;
  for (real_t v : data_) m = std::max(m, std::abs(v));
  return m;
}

real_t dot(const DenseTensor& a, const DenseTensor& b) {
  TT_CHECK(a.shape() == b.shape(), "dot shape mismatch");
  real_t s = 0.0;
  const index_t n = a.size();
  for (index_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

real_t max_abs_diff(const DenseTensor& a, const DenseTensor& b) {
  TT_CHECK(a.shape() == b.shape(), "max_abs_diff shape mismatch");
  real_t m = 0.0;
  for (index_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

void permute_into(const DenseTensor& in, std::span<const int> perm,
                  DenseTensor& out) {
  const int r = in.order();
  TT_CHECK(static_cast<int>(perm.size()) == r, "perm order mismatch");
  {
    std::vector<bool> seen(static_cast<std::size_t>(r), false);
    for (int p : perm) {
      TT_CHECK(p >= 0 && p < r && !seen[static_cast<std::size_t>(p)],
               "invalid permutation entry " << p);
      seen[static_cast<std::size_t>(p)] = true;
    }
  }
  TT_CHECK(out.size() == in.size(), "permute output size mismatch");

  if (r == 0) {
    out[0] = in[0];
    return;
  }

  // Identity permutation: straight copy.
  bool identity = true;
  for (int i = 0; i < r; ++i)
    if (perm[static_cast<std::size_t>(i)] != i) identity = false;
  if (identity) {
    std::copy(in.data(), in.data() + in.size(), out.data());
    return;
  }

  // in-stride of each *output* mode.
  const std::vector<index_t> in_strides = in.strides();
  std::vector<index_t> src_stride(static_cast<std::size_t>(r));
  std::vector<index_t> out_shape(static_cast<std::size_t>(r));
  for (int i = 0; i < r; ++i) {
    src_stride[static_cast<std::size_t>(i)] =
        in_strides[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
    out_shape[static_cast<std::size_t>(i)] = in.dim(perm[static_cast<std::size_t>(i)]);
  }

  const index_t d0 = out_shape[0];
  const index_t inner = in.size() / std::max<index_t>(d0, 1);
  const index_t s0 = src_stride[0];
  const real_t* src = in.data();
  real_t* dst = out.data();

  // Walk output in row-major order; per slice of the leading output mode an
  // odometer tracks the source offset of the remaining modes. The innermost
  // output mode advances by a fixed source stride, which vectorizes when that
  // stride is 1.
  const index_t last_stride = src_stride[static_cast<std::size_t>(r - 1)];
  const index_t last_dim = out_shape[static_cast<std::size_t>(r - 1)];

  auto slice = [&](index_t i0) {
    std::vector<index_t> odo(static_cast<std::size_t>(r), 0);
    odo[0] = i0;
    index_t src_off = i0 * s0;
    real_t* d = dst + i0 * inner;
    index_t written = 0;
    while (written < inner) {
      const real_t* s = src + src_off;
      if (last_stride == 1) {
        std::copy(s, s + last_dim, d + written);
      } else {
        for (index_t j = 0; j < last_dim; ++j) d[written + j] = s[j * last_stride];
      }
      written += last_dim;
      // Advance the odometer over modes r-2 .. 1.
      int m = r - 2;
      while (m >= 1) {
        const auto mi = static_cast<std::size_t>(m);
        src_off += src_stride[mi];
        if (++odo[mi] < out_shape[mi]) break;
        src_off -= out_shape[mi] * src_stride[mi];
        odo[mi] = 0;
        --m;
      }
      if (m < 1) break;  // finished this i0 slice
    }
  };
  if (in.size() > kParallelPermuteElems) return support::parallel_for(d0, slice);
  for (index_t i0 = 0; i0 < d0; ++i0) slice(i0);
}

}  // namespace tt::tensor
