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

  /// Number of set bits. Inline: ConflictGraph counts every row with it.
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

inline std::size_t ConstBitsetView::count() const {
  // The baseline x86-64 ISA has no popcnt, so std::popcount would be one
  // libgcc call per word. SWAR instead: each word's bit count per byte
  // (at most 8) is summed into byte lanes over a block of at most 31
  // words (31 * 8 = 248 fits a byte), and the lanes are folded once per
  // block, through 16-bit lanes (8 * 248 = 1984 fits those).
  constexpr std::uint64_t k1 = 0x5555555555555555ULL;
  constexpr std::uint64_t k2 = 0x3333333333333333ULL;
  constexpr std::uint64_t k4 = 0x0f0f0f0f0f0f0f0fULL;
  constexpr std::uint64_t k8 = 0x00ff00ff00ff00ffULL;
  constexpr std::size_t kBlock = 31;
  std::size_t c = 0;
  const std::size_t nw = num_words();
  for (std::size_t w = 0; w < nw;) {
    const std::size_t end = nw - w < kBlock ? nw : w + kBlock;
    std::uint64_t bytes = 0;
    for (; w < end; ++w) {
      std::uint64_t x = words_[w];
      x -= (x >> 1) & k1;
      x = (x & k2) + ((x >> 2) & k2);
      bytes += (x + (x >> 4)) & k4;
    }
    const std::uint64_t halves = (bytes & k8) + ((bytes >> 8) & k8);
    c += static_cast<std::size_t>((halves * 0x0001000100010001ULL) >> 48);
  }
  return c;
}

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

}  // namespace wdag::util
