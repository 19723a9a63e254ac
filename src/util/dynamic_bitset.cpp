#include "util/dynamic_bitset.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>

#include "util/check.hpp"

namespace wdag::util {

namespace {

/// First index in [from, n) whose word is not all-ones, or n when there
/// is none: the word step of every zero-scan.
std::size_t find_not_ones(const std::uint64_t* words, std::size_t from,
                          std::size_t n) {
  for (std::size_t i = from; i < n; ++i) {
    if (words[i] != ~std::uint64_t{0}) return i;
  }
  return n;
}

}  // namespace

// ------------------------------ view ----------------------------------

bool ConstBitsetView::test(std::size_t i) const {
  WDAG_REQUIRE(i < bits_, "ConstBitsetView::test: index out of range");
  return test_unchecked(i);
}

std::size_t ConstBitsetView::count() const {
  std::size_t c = 0;
  const std::size_t nw = num_words();
  for (std::size_t w = 0; w < nw; ++w) {
    c += static_cast<std::size_t>(std::popcount(words_[w]));
  }
  return c;
}

bool ConstBitsetView::none() const {
  const std::size_t nw = num_words();
  for (std::size_t w = 0; w < nw; ++w) {
    if (words_[w] != 0) return false;
  }
  return true;
}

std::size_t ConstBitsetView::find_first() const {
  const std::size_t nw = num_words();
  for (std::size_t w = 0; w < nw; ++w) {
    if (words_[w] != 0) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(words_[w]));
    }
  }
  return bits_;
}

std::size_t ConstBitsetView::find_next(std::size_t i) const {
  // Guard before incrementing: ++SIZE_MAX wraps to 0 and would silently
  // restart the scan at the front instead of reporting exhaustion.
  if (i >= bits_) return bits_;
  ++i;
  if (i >= bits_) return bits_;
  std::size_t w = i / 64;
  std::uint64_t cur = words_[w] & (~std::uint64_t{0} << (i % 64));
  const std::size_t nw = num_words();
  while (true) {
    if (cur != 0) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(cur));
    }
    if (++w >= nw) return bits_;
    cur = words_[w];
  }
}

std::size_t ConstBitsetView::find_first_zero() const {
  const std::size_t nw = num_words();
  const std::size_t w = find_not_ones(words_, 0, nw);
  if (w == nw) return bits_;
  const std::size_t i =
      w * 64 + static_cast<std::size_t>(std::countr_one(words_[w]));
  return std::min(i, bits_);  // tail zeros past size() do not count
}

std::size_t ConstBitsetView::find_next_zero(std::size_t i) const {
  // Same wraparound guard as find_next: i >= size() must mean "none".
  if (i >= bits_) return bits_;
  ++i;
  if (i >= bits_) return bits_;
  const std::size_t w = i / 64;
  // Ones below position i hide the already-scanned prefix of the word.
  const std::uint64_t cur =
      words_[w] | ((i % 64) == 0 ? 0 : (~std::uint64_t{0} >> (64 - i % 64)));
  if (cur != ~std::uint64_t{0}) {
    const std::size_t j =
        w * 64 + static_cast<std::size_t>(std::countr_one(cur));
    return std::min(j, bits_);
  }
  const std::size_t nw = num_words();
  const std::size_t next = find_not_ones(words_, w + 1, nw);
  if (next == nw) return bits_;
  const std::size_t j =
      next * 64 + static_cast<std::size_t>(std::countr_one(words_[next]));
  return std::min(j, bits_);
}

std::vector<std::size_t> ConstBitsetView::to_indices() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for (std::size_t i = find_first(); i < bits_; i = find_next(i)) {
    out.push_back(i);
  }
  return out;
}

// ----------------------------- bitset ---------------------------------

DynamicBitset::DynamicBitset(std::size_t bits)
    : data_((bits + 63) / 64, 0), bits_(bits) {}

DynamicBitset::DynamicBitset(ConstBitsetView view)
    : data_(view.data(), view.data() + view.num_words()), bits_(view.size()) {}

void DynamicBitset::clear_all() { std::fill(data_.begin(), data_.end(), 0); }

void DynamicBitset::reset_to_zero(std::size_t bits) {
  data_.assign((bits + 63) / 64, 0);  // keeps the capacity it already has
  bits_ = bits;
}

void DynamicBitset::set_all() {
  for (auto& w : data_) w = ~std::uint64_t{0};
  if (bits_ % 64 != 0 && !data_.empty()) {
    data_.back() &= (std::uint64_t{1} << (bits_ % 64)) - 1;
  }
}

void DynamicBitset::set(std::size_t i) {
  WDAG_REQUIRE(i < bits_, "DynamicBitset::set: index out of range");
  data_[i / 64] |= std::uint64_t{1} << (i % 64);
}

void DynamicBitset::reset(std::size_t i) {
  WDAG_REQUIRE(i < bits_, "DynamicBitset::reset: index out of range");
  data_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

bool DynamicBitset::test(std::size_t i) const {
  WDAG_REQUIRE(i < bits_, "DynamicBitset::test: index out of range");
  return (data_[i / 64] >> (i % 64)) & 1;
}

std::size_t DynamicBitset::count() const { return view().count(); }

bool DynamicBitset::none() const { return view().none(); }

bool DynamicBitset::intersects(ConstBitsetView other) const {
  const std::size_t n = std::min(data_.size(), other.num_words());
  for (std::size_t i = 0; i < n; ++i) {
    if (data_[i] & other.word(i)) return true;
  }
  return false;
}

DynamicBitset& DynamicBitset::operator|=(ConstBitsetView other) {
  WDAG_REQUIRE(bits_ == other.size(), "DynamicBitset: size mismatch in |=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] |= other.word(i);
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(ConstBitsetView other) {
  WDAG_REQUIRE(bits_ == other.size(), "DynamicBitset: size mismatch in &=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] &= other.word(i);
  return *this;
}

void DynamicBitset::or_into(DynamicBitset& dst) const {
  WDAG_REQUIRE(bits_ <= dst.bits_, "DynamicBitset: or_into target too small");
  for (std::size_t i = 0; i < data_.size(); ++i) dst.data_[i] |= data_[i];
}

void DynamicBitset::and_not(ConstBitsetView other) {
  WDAG_REQUIRE(bits_ == other.size(),
               "DynamicBitset: size mismatch in and_not");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] &= ~other.word(i);
}

std::size_t DynamicBitset::find_first() const { return view().find_first(); }

std::size_t DynamicBitset::find_next(std::size_t i) const {
  return view().find_next(i);
}

std::size_t DynamicBitset::find_first_zero() const {
  return view().find_first_zero();
}

std::size_t DynamicBitset::find_next_zero(std::size_t i) const {
  return view().find_next_zero(i);
}

std::vector<std::size_t> DynamicBitset::to_indices() const {
  return view().to_indices();
}

// -------------------------- aligned words -----------------------------

// AlignedWords and kBitsetAlignment are deprecated and unused by the
// library; only their own definitions below may name them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

AlignedWords::AlignedWords(std::size_t words) : words_(words) {
  if (words_ == 0) return;
  data_ = static_cast<std::uint64_t*>(::operator new(
      words_ * sizeof(std::uint64_t), std::align_val_t{kBitsetAlignment}));
  std::memset(data_, 0, words_ * sizeof(std::uint64_t));
}

AlignedWords::AlignedWords(AlignedWords&& other) noexcept
    : data_(other.data_), words_(other.words_) {
  other.data_ = nullptr;
  other.words_ = 0;
}

AlignedWords& AlignedWords::operator=(AlignedWords&& other) noexcept {
  if (this != &other) {
    this->~AlignedWords();
    data_ = other.data_;
    words_ = other.words_;
    other.data_ = nullptr;
    other.words_ = 0;
  }
  return *this;
}

AlignedWords::~AlignedWords() {
  if (data_ != nullptr) {
    ::operator delete(data_, std::align_val_t{kBitsetAlignment});
  }
}

void AlignedWords::zero() { std::fill_n(data_, words_, 0); }

#pragma GCC diagnostic pop

}  // namespace wdag::util
