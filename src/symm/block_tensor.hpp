// Block-sparse tensor: the "list of quantum number blocks" representation
// (paper §IV-A, Fig 3a). Each admissible combination of index sectors may own
// a dense block.
//
// Storage is flat, as in the paper's Cyclops tensors and aquarius's
// BlockedTensor: one contiguous buffer holds every block, row-major, and a
// table sorted by key code gives each block's offset and shape. The key code
// is the mixed-radix number of a key over all modes, digit m the sector id on
// mode m with that mode's sector count as radix, last mode fastest. Code order
// is therefore lexicographic key order: blocks are visited, reduced and
// enumerated in key order. Blocks are handed out as non-owning views (a data
// pointer plus a shape) into the buffer; adding a block may move the buffer,
// so no view is kept across block().
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "support/rng.hpp"
#include "symm/index.hpp"
#include "tensor/dense.hpp"

namespace tt::symm {

/// Sector choice per mode — the key identifying one block.
using BlockKey = std::vector<int>;

/// Block-sparse tensor over directed sector'd indices with a total flux.
/// A block keyed by (s_0,…,s_{r-1}) is admissible iff
/// Σᵢ sign(dirᵢ)·qn(sectorᵢ) == flux.
class BlockTensor {
 public:
  /// One stored block as iteration yields it: its key and a view of its data.
  template <class T>
  struct Entry {
    std::span<const int> key;
    tensor::BasicView<T> blk;
  };

  BlockTensor() = default;
  BlockTensor(std::vector<Index> indices, QN flux);
  /// Tensor holding a zero block for every key in `keys` (any order; each key
  /// admissible, duplicates allowed). Throws for an inadmissible key.
  BlockTensor(std::vector<Index> indices, QN flux, const std::vector<BlockKey>& keys);
  BlockTensor(const BlockTensor& other);
  BlockTensor& operator=(const BlockTensor& other);
  BlockTensor(BlockTensor&& other) noexcept { *this = std::move(other); }
  BlockTensor& operator=(BlockTensor&& other) noexcept;

  /// Tensor with every admissible block present and filled with N(0,1) noise.
  static BlockTensor random(std::vector<Index> indices, QN flux, Rng& rng);

  /// Tensor holding exactly the blocks whose key codes `codes` names, which
  /// must ascend strictly; their elements are left for the caller to write.
  /// The keys are not checked for admissibility: a block contraction's
  /// output codes are admissible by construction.
  static BlockTensor for_overwrite(std::vector<Index> indices, QN flux,
                                   std::span<const std::uint64_t> codes);

  int order() const { return static_cast<int>(indices_.size()); }
  const Index& index(int mode) const { return indices_[static_cast<std::size_t>(mode)]; }
  const std::vector<Index>& indices() const { return indices_; }
  const QN& flux() const { return flux_; }

  /// Conservation check for a prospective block key.
  bool key_allowed(std::span<const int> key) const;

  /// Signed charge sum over a subset of modes of a key.
  QN partial_charge(std::span<const int> key, const std::vector<int>& modes) const;

  /// Dense shape of the block at `key` (one dim per mode).
  std::vector<index_t> block_shape(std::span<const int> key) const;

  /// Access a block, creating a zero block if admissible and absent.
  /// Throws for inadmissible keys.
  tensor::View block(std::span<const int> key);
  tensor::View block(std::initializer_list<int> key) {
    return block({key.begin(), key.size()});
  }

  /// Existing block, or nothing.
  std::optional<tensor::ConstView> find_block(std::span<const int> key) const;
  std::optional<tensor::ConstView> find_block(std::initializer_list<int> key) const {
    return find_block({key.begin(), key.size()});
  }

 private:
  template <class T>
  auto entries(T* data) const {
    return std::views::iota(std::size_t{0}, rows_.size()) |
           std::views::transform([this, data](std::size_t r) {
             return Entry<T>{key_of(r), {data + rows_[r].offset, shape_of(r)}};
           });
  }

 public:
  /// The stored blocks in key order, as a range of Entry. Iterators belong to
  /// the range object: keep it alive while they are used.
  auto blocks() const { return entries<const real_t>(data_.get()); }
  auto blocks() { return entries<real_t>(data_.get()); }
  int num_blocks() const { return static_cast<int>(rows_.size()); }

  /// The block in row `row` of the table (key order), writable.
  tensor::View block_at(std::size_t row) {
    return {data_.get() + rows_[row].offset, shape_of(row)};
  }

  /// All admissible keys for this index structure (present or not).
  std::vector<BlockKey> admissible_keys() const;

  /// Stored elements (Σ over blocks of block size): the buffer's length.
  index_t num_elements() const { return size_; }

  /// The buffer: every block, in key order.
  std::span<const real_t> elements() const {
    return {data_.get(), static_cast<std::size_t>(size_)};
  }

  /// Elements of the fused dense tensor (Π of fused dims).
  index_t dense_size() const;

  /// num_elements / dense_size — the fill fraction of the fused single tensor
  /// (paper Fig 2b plots exactly this).
  double fill_fraction() const;

  // ---- vector-space operations (blocks aligned by key) ----
  // With equal block tables each is one pass over the buffer; otherwise axpy
  // merges the tables. dot and norm2 sum block by block in key order.
  void scale(real_t s);
  void axpy(real_t alpha, const BlockTensor& other);  ///< this += α·other
  real_t norm2() const;

  /// Metadata view with all directions reversed and flux negated; block data
  /// unchanged (real scalars — the bra/adjoint tensor).
  BlockTensor dagger() const;

  /// Structural equality of index lists and flux (not data).
  bool same_structure(const BlockTensor& other) const;

 private:
  struct Row {
    std::uint64_t code;
    index_t offset;
    bool operator==(const Row&) const = default;
  };
  // Frees a buffer, or keeps a large one for allocate() to hand out again.
  struct Recycle {
    index_t capacity;
    void operator()(real_t* p) const;
  };

  std::span<const int> key_of(std::size_t row) const {
    const auto r = indices_.size();
    return {keys_.data() + row * r, r};
  }
  std::span<const index_t> shape_of(std::size_t row) const {
    const auto r = indices_.size();
    return {dims_.data() + row * r, r};
  }
  // Mixed-radix code of `key` (last mode fastest); sector ids unchecked.
  std::uint64_t code_of(std::span<const int> key) const;
  std::size_t lower_row(std::uint64_t code) const;
  // Append a table row for `key` (its code above every stored one) without
  // touching the buffer.
  void append_row(std::uint64_t code, std::span<const int> key);
  void allocate(index_t capacity);

  std::vector<Index> indices_;
  QN flux_;
  std::vector<Row> rows_;      // ascending code
  std::vector<int> keys_;      // order() sector ids per row
  std::vector<index_t> dims_;  // order() dims per row
  std::unique_ptr<real_t[], Recycle> data_;
  index_t size_ = 0;
};

/// Inner product Σ over matching blocks in key order, each block's partial
/// sum in element order (tensors must share structure).
real_t dot(const BlockTensor& a, const BlockTensor& b);

/// Max |a − b| over the union of blocks.
real_t max_abs_diff(const BlockTensor& a, const BlockTensor& b);

}  // namespace tt::symm
