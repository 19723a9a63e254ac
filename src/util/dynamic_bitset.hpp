#pragma once
// Compact dynamic bitset used for conflict-graph adjacency rows and
// reachability closures. Only the operations the library needs are
// provided; everything is bounds-checked in the throwing API and raw in
// the *_unchecked variants used by inner loops.
//
// Two types share one bit layout (LSB-first 64-bit words, tail bits
// beyond size() always zero):
//   - DynamicBitset: owning, resizable-by-reset scratch bitset.
//   - ConstBitsetView: non-owning read view, so containers that pack many
//     rows into one allocation (ConflictGraph's word pool) can hand out
//     rows without copying.
// The word loops (OR, clear, zero-scan) are plain loops over 64-bit
// words; GCC vectorizes the OR loops at the baseline ISA.

#include <cstdint>
#include <vector>

namespace wdag::util {

/// Alignment (bytes) of every AlignedWords allocation. Deprecated with
/// AlignedWords; removed in 0.4.0.
[[deprecated("unused by wdag since 0.3.1; removed in 0.4.0")]]
inline constexpr std::size_t kBitsetAlignment = 64;

/// Non-owning read-only view of a bitset: a word pointer plus a bit
/// count. The referenced words must stay alive and unchanged while the
/// view is used, and bits beyond size() in the last word must be zero —
/// both hold for ConflictGraph rows, the only producer in this library.
class ConstBitsetView {
 public:
  ConstBitsetView() = default;
  ConstBitsetView(const std::uint64_t* words, std::size_t bits)
      : words_(words), bits_(bits) {}

  /// Number of bits.
  [[nodiscard]] std::size_t size() const { return bits_; }

  /// Number of 64-bit words covering size() bits.
  [[nodiscard]] std::size_t num_words() const { return (bits_ + 63) / 64; }

  /// Raw word `w` (bits [64w, 64w+64)).
  [[nodiscard]] std::uint64_t word(std::size_t w) const { return words_[w]; }

  /// Raw word pointer (null iff default-constructed with zero bits).
  [[nodiscard]] const std::uint64_t* data() const { return words_; }

  [[nodiscard]] bool test(std::size_t i) const;
  [[nodiscard]] bool test_unchecked(std::size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const;

  /// True when no bit is set.
  [[nodiscard]] bool none() const;

  /// Index of the first set bit, or size() when none.
  [[nodiscard]] std::size_t find_first() const;

  /// Index of the first set bit strictly after i, or size() when none.
  /// Any i >= size() (including SIZE_MAX) returns size().
  [[nodiscard]] std::size_t find_next(std::size_t i) const;

  /// Index of the first zero bit, or size() when all bits are one.
  /// First-fit color selection is one call on the neighbor-color mask.
  [[nodiscard]] std::size_t find_first_zero() const;

  /// Index of the first zero bit strictly after i, or size() when none.
  /// Any i >= size() (including SIZE_MAX) returns size().
  [[nodiscard]] std::size_t find_next_zero(std::size_t i) const;

  /// Indices of all set bits in increasing order.
  [[nodiscard]] std::vector<std::size_t> to_indices() const;

 private:
  const std::uint64_t* words_ = nullptr;
  std::size_t bits_ = 0;
};

/// Fixed-capacity-after-construction bitset backed by 64-bit words.
class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset of `bits` zero bits.
  explicit DynamicBitset(std::size_t bits);

  /// Copies the view's bits into owned storage. Explicit so a view never
  /// silently materializes an allocation (and so the defaulted == below
  /// cannot be reached through an implicit conversion).
  explicit DynamicBitset(ConstBitsetView view);

  /// Every DynamicBitset reads as a view of itself.
  [[nodiscard]] operator ConstBitsetView() const {  // NOLINT(google-explicit-constructor)
    return {data_.data(), bits_};
  }

  /// Number of bits.
  [[nodiscard]] std::size_t size() const { return bits_; }

  /// Number of backing 64-bit words.
  [[nodiscard]] std::size_t num_words() const { return data_.size(); }

  /// Raw word `w` (bits [64w, 64w+64)); tail bits beyond size() are zero.
  [[nodiscard]] std::uint64_t word(std::size_t w) const { return data_[w]; }

  /// Re-targets the bitset to `bits` zero bits, reusing the backing
  /// storage when it is already large enough. The scratch-arena primitive:
  /// inner loops call this instead of constructing fresh bitsets.
  void reset_to_zero(std::size_t bits);

  /// Sets every bit to zero.
  void clear_all();

  /// Sets every bit to one (tail bits stay zero).
  void set_all();

  void set(std::size_t i);
  void reset(std::size_t i);
  [[nodiscard]] bool test(std::size_t i) const;

  /// Unchecked variants for inner loops that already guarantee i < size().
  void set_unchecked(std::size_t i) {
    data_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  [[nodiscard]] bool test_unchecked(std::size_t i) const {
    return (data_[i / 64] >> (i % 64)) & 1;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const;

  /// True when no bit is set.
  [[nodiscard]] bool none() const;

  /// True when this and other share at least one set bit.
  [[nodiscard]] bool intersects(ConstBitsetView other) const;

  /// this |= other (sizes must match).
  DynamicBitset& operator|=(ConstBitsetView other);

  /// dst |= this, word-parallel, where dst may be larger than this.
  void or_into(DynamicBitset& dst) const;

  /// this &= other (sizes must match).
  DynamicBitset& operator&=(ConstBitsetView other);

  /// this &= ~other (sizes must match).
  void and_not(ConstBitsetView other);

  /// Index of the first set bit, or size() when none.
  [[nodiscard]] std::size_t find_first() const;

  /// Index of the first set bit strictly after i, or size() when none.
  /// Any i >= size() (including SIZE_MAX) returns size().
  [[nodiscard]] std::size_t find_next(std::size_t i) const;

  /// Index of the first zero bit, or size() when all bits are one.
  /// First-fit color selection is one call on the neighbor-color mask.
  [[nodiscard]] std::size_t find_first_zero() const;

  /// Index of the first zero bit strictly after i, or size() when none.
  /// Any i >= size() (including SIZE_MAX) returns size().
  [[nodiscard]] std::size_t find_next_zero(std::size_t i) const;

  /// Indices of all set bits in increasing order.
  [[nodiscard]] std::vector<std::size_t> to_indices() const;

  bool operator==(const DynamicBitset& other) const = default;

 private:
  [[nodiscard]] std::size_t words() const { return data_.size(); }
  [[nodiscard]] ConstBitsetView view() const { return {data_.data(), bits_}; }

  std::vector<std::uint64_t> data_;
  std::size_t bits_ = 0;
};

/// Move-only 64-byte-aligned zero-initialized array of 64-bit words.
/// Deprecated: ConflictGraph's row pool is a plain std::vector since
/// 0.3.1 and nothing in wdag uses this type; removed in 0.4.0.
class [[deprecated("use std::vector<std::uint64_t>; removed in 0.4.0")]]
AlignedWords {
 public:
  AlignedWords() = default;

  /// Allocates `words` zeroed 64-bit words at kBitsetAlignment.
  explicit AlignedWords(std::size_t words);

  AlignedWords(const AlignedWords&) = delete;
  AlignedWords& operator=(const AlignedWords&) = delete;
  AlignedWords(AlignedWords&& other) noexcept;
  AlignedWords& operator=(AlignedWords&& other) noexcept;
  ~AlignedWords();

  [[nodiscard]] std::uint64_t* data() { return data_; }
  [[nodiscard]] const std::uint64_t* data() const { return data_; }

  /// Capacity in 64-bit words.
  [[nodiscard]] std::size_t size() const { return words_; }

  /// Sets every word to zero.
  void zero();

 private:
  std::uint64_t* data_ = nullptr;
  std::size_t words_ = 0;
};

}  // namespace wdag::util
