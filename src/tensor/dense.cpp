#include "tensor/dense.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <optional>

#include "support/thread_pool.hpp"

namespace tt::tensor {

// Element count above which permute_into splits its leading-mode slices over
// the pool; below it one pool dispatch costs more than the copy.
constexpr index_t kParallelPermuteElems = index_t{1} << 16;

namespace {

// Per-mode metadata of the permutation kernel: on the stack up to
// kInlineOrder modes (every order DMRG uses), on the heap beyond.
constexpr int kInlineOrder = 8;

class ModeArray {
 public:
  explicit ModeArray(int r)
      : data_(r <= kInlineOrder ? inline_.data()
                                : heap_.emplace(static_cast<std::size_t>(r), 0).data()) {}
  ModeArray(const ModeArray&) = delete;
  ModeArray& operator=(const ModeArray&) = delete;

  index_t& operator[](int i) { return data_[i]; }

 private:
  std::array<index_t, kInlineOrder> inline_{};
  std::optional<std::vector<index_t>> heap_;
  index_t* data_;
};

void check_permutation(std::span<const int> perm, int r) {
  TT_CHECK(static_cast<int>(perm.size()) == r,
           "permutation order mismatch: " << perm.size() << " vs " << r);
  ModeArray seen(r);
  for (int p : perm) {
    TT_CHECK(p >= 0 && p < r && seen[p] == 0, "invalid permutation entry " << p);
    seen[p] = 1;
  }
}

}  // namespace

DenseTensor::DenseTensor(std::vector<index_t> shape, real_t fill)
    : shape_(std::move(shape)) {
  index_t n = 1;
  for (index_t d : shape_) {
    TT_CHECK(d >= 0, "negative tensor dimension " << d);
    n *= d;
  }
  data_.assign(static_cast<std::size_t>(n), fill);
}

DenseTensor::DenseTensor(ConstView v)
    : shape_(v.shape().begin(), v.shape().end()), data_(v.data(), v.data() + v.size()) {}

DenseTensor DenseTensor::random(std::vector<index_t> shape, Rng& rng) {
  DenseTensor t(std::move(shape));
  for (auto& v : t.data_) v = rng.normal();
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

template <class T>
DenseTensor BasicView<T>::permuted(std::span<const int> perm) const {
  check_permutation(perm, order());
  std::vector<index_t> out_shape(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    out_shape[i] = shape_[static_cast<std::size_t>(perm[i])];
  DenseTensor out(std::move(out_shape));
  permute_into(data_, shape_, perm, out.data());
  return out;
}

template <class T>
real_t BasicView<T>::norm2() const {
  real_t s = 0.0;
  const index_t n = size();
  for (index_t i = 0; i < n; ++i) s += data_[i] * data_[i];
  return std::sqrt(s);
}

template <class T>
real_t BasicView<T>::max_abs() const {
  real_t m = 0.0;
  const index_t n = size();
  for (index_t i = 0; i < n; ++i) m = std::max(m, std::abs(data_[i]));
  return m;
}

template class BasicView<real_t>;
template class BasicView<const real_t>;

void DenseTensor::scale(real_t s) {
  for (auto& v : data_) v *= s;
}

void DenseTensor::axpy(real_t alpha, const DenseTensor& other) {
  TT_CHECK(shape_ == other.shape_, "axpy shape mismatch");
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) data_[i] += alpha * other.data_[i];
}

real_t dot(ConstView a, ConstView b) {
  TT_CHECK(same_shape(a.shape(), b.shape()), "dot shape mismatch");
  real_t s = 0.0;
  const index_t n = a.size();
  for (index_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

real_t max_abs_diff(ConstView a, ConstView b) {
  TT_CHECK(same_shape(a.shape(), b.shape()), "max_abs_diff shape mismatch");
  real_t m = 0.0;
  const index_t n = a.size();
  for (index_t i = 0; i < n; ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

void permute_into(const real_t* in, std::span<const index_t> shape,
                  std::span<const int> perm, real_t* out) {
  const int r = static_cast<int>(shape.size());
  ModeArray in_strides(r), dims(r), strides(r);
  index_t size = 1;
  for (int i = r - 1; i >= 0; --i) {
    in_strides[i] = size;
    size *= shape[static_cast<std::size_t>(i)];
  }
  if (size == 0) return;

  // The output modes with their source strides, simplified: unit modes drop
  // out, and a mode that follows its predecessor in the source too fuses
  // into it. The walk below then runs over the fewest, longest rows.
  int q = 0;
  for (int i = 0; i < r; ++i) {
    const int p = perm[static_cast<std::size_t>(i)];
    const index_t d = shape[static_cast<std::size_t>(p)];
    const index_t s = in_strides[p];
    if (d == 1) continue;
    if (q > 0 && strides[q - 1] == s * d) {
      dims[q - 1] *= d;
      strides[q - 1] = s;
    } else {
      dims[q] = d;
      strides[q] = s;
      ++q;
    }
  }
  // At most one mode left: the permutation moves nothing.
  if (q <= 1) {
    std::copy(in, in + size, out);
    return;
  }

  // Walk the output in row-major order; per slice of the leading mode an
  // odometer tracks the source offset of the middle modes. The last mode
  // advances by a fixed source stride, which vectorizes when that stride is 1.
  const index_t d0 = dims[0];
  const index_t s0 = strides[0];
  const index_t inner = size / d0;
  const index_t last_dim = dims[q - 1];
  const index_t last_stride = strides[q - 1];
  auto slice = [&](index_t i0) {
    ModeArray odo(q);
    const real_t* src = in + i0 * s0;
    real_t* dst = out + i0 * inner;
    for (index_t written = 0; written < inner; written += last_dim) {
      if (last_stride == 1) {
        std::copy(src, src + last_dim, dst + written);
      } else {
        for (index_t j = 0; j < last_dim; ++j) dst[written + j] = src[j * last_stride];
      }
      for (int m = q - 2; m >= 1; --m) {
        src += strides[m];
        if (++odo[m] < dims[m]) break;
        src -= dims[m] * strides[m];
        odo[m] = 0;
      }
    }
  };
  if (size > kParallelPermuteElems) return support::parallel_for(d0, slice);
  for (index_t i0 = 0; i0 < d0; ++i0) slice(i0);
}

}  // namespace tt::tensor
