// Grow-only scratch arrays for hot loops that must not allocate once warm.
#pragma once

#include <cstddef>
#include <memory>

#include "support/types.hpp"

namespace tt::support {

/// An uninitialized real_t array that only ever grows. Keep one per thread
/// and use site (`thread_local`): a warm loop then reuses it with no heap
/// allocation and no zero fill. A get() that grows the array drops its old
/// contents.
class ScratchBuffer {
 public:
  real_t* get(std::size_t n) {
    if (n > capacity_) {
      data_ = std::make_unique_for_overwrite<real_t[]>(n);
      capacity_ = n;
    }
    return data_.get();
  }

 private:
  std::unique_ptr<real_t[]> data_;
  std::size_t capacity_ = 0;
};

}  // namespace tt::support
