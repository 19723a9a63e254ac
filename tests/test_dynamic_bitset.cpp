// Unit tests for DynamicBitset and ConstBitsetView. The word loops (OR,
// clear, zero-scan) are checked at the word-boundary sizes in kBitSizes
// against naive per-bit or per-word references.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/rng.hpp"

namespace {

using wdag::util::ConstBitsetView;
using wdag::util::DynamicBitset;
using wdag::util::Xoshiro256;

// Bit sizes that straddle 64-, 256- and 512-bit boundaries.
const std::vector<std::size_t> kBitSizes = {0,   1,   63,  64,  65, 255,
                                            256, 257, 511, 512, 513};

/// A `bits`-bit mask with each bit set with probability 1/`one_in`.
DynamicBitset random_mask(Xoshiro256& rng, std::size_t bits,
                          std::uint64_t one_in = 2) {
  DynamicBitset b(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.below(one_in) == 0) b.set_unchecked(i);
  }
  return b;
}

TEST(DynamicBitsetTest, StartsClear) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(b.test(i));
}

TEST(DynamicBitsetTest, SetResetTest) {
  DynamicBitset b(100);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(DynamicBitsetTest, OutOfRangeThrows) {
  DynamicBitset b(10);
  EXPECT_THROW(b.set(10), wdag::InvalidArgument);
  EXPECT_THROW((void)b.test(10), wdag::InvalidArgument);
  EXPECT_THROW(b.reset(10), wdag::InvalidArgument);
}

TEST(DynamicBitsetTest, SetAllRespectsTail) {
  DynamicBitset b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
  b.clear_all();
  EXPECT_TRUE(b.none());

  for (const std::size_t bits : kBitSizes) {
    DynamicBitset c(bits);
    c.set_all();
    EXPECT_EQ(c.count(), bits) << "bits=" << bits;
    if (bits % 64 != 0) {
      EXPECT_EQ(c.word(c.num_words() - 1) >> (bits % 64), 0u)
          << "bits=" << bits << ": tail bits must stay zero";
    }
    c.clear_all();
    for (std::size_t w = 0; w < c.num_words(); ++w) {
      EXPECT_EQ(c.word(w), 0u) << "bits=" << bits << " w=" << w;
    }
  }
}

TEST(DynamicBitsetTest, FindFirstAndNext) {
  DynamicBitset b(200);
  EXPECT_EQ(b.find_first(), 200u);
  b.set(5);
  b.set(64);
  b.set(199);
  EXPECT_EQ(b.find_first(), 5u);
  EXPECT_EQ(b.find_next(5), 64u);
  EXPECT_EQ(b.find_next(64), 199u);
  EXPECT_EQ(b.find_next(199), 200u);
}

TEST(DynamicBitsetTest, IterationMatchesToIndices) {
  DynamicBitset b(150);
  const std::vector<std::size_t> want = {0, 1, 63, 64, 65, 127, 128, 149};
  for (auto i : want) b.set(i);
  EXPECT_EQ(b.to_indices(), want);
  std::vector<std::size_t> got;
  for (std::size_t i = b.find_first(); i < b.size(); i = b.find_next(i)) {
    got.push_back(i);
  }
  EXPECT_EQ(got, want);
}

TEST(DynamicBitsetTest, Intersects) {
  DynamicBitset a(100), b(100);
  a.set(3);
  b.set(4);
  EXPECT_FALSE(a.intersects(b));
  b.set(3);
  EXPECT_TRUE(a.intersects(b));
}

TEST(DynamicBitsetTest, OrAndAndNot) {
  DynamicBitset a(80), b(80);
  a.set(1);
  a.set(70);
  b.set(70);
  b.set(2);
  DynamicBitset c = a;
  c |= b;
  EXPECT_EQ(c.count(), 3u);
  DynamicBitset d = a;
  d &= b;
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(70));
  DynamicBitset e = a;
  e.and_not(b);
  EXPECT_EQ(e.count(), 1u);
  EXPECT_TRUE(e.test(1));

  // |= and or_into equal a naive word OR at every boundary size.
  Xoshiro256 rng(0x0B5E7);
  for (const std::size_t bits : kBitSizes) {
    const DynamicBitset x = random_mask(rng, bits);
    const DynamicBitset y = random_mask(rng, bits);
    DynamicBitset ored = x;
    ored |= y;
    DynamicBitset into = x;
    y.or_into(into);
    for (std::size_t w = 0; w < x.num_words(); ++w) {
      EXPECT_EQ(ored.word(w), x.word(w) | y.word(w))
          << "bits=" << bits << " w=" << w;
      EXPECT_EQ(into.word(w), x.word(w) | y.word(w))
          << "bits=" << bits << " w=" << w << " (or_into)";
    }
  }
}

TEST(DynamicBitsetTest, SizeMismatchThrows) {
  DynamicBitset a(10), b(20);
  EXPECT_THROW(a |= b, wdag::InvalidArgument);
  EXPECT_THROW(a &= b, wdag::InvalidArgument);
  EXPECT_THROW(a.and_not(b), wdag::InvalidArgument);
}

TEST(DynamicBitsetTest, EqualityComparesContent) {
  DynamicBitset a(64), b(64);
  EXPECT_EQ(a, b);
  a.set(10);
  EXPECT_NE(a, b);
  b.set(10);
  EXPECT_EQ(a, b);
}

TEST(DynamicBitsetTest, EmptyBitset) {
  DynamicBitset b(0);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.find_first(), 0u);
  EXPECT_EQ(b.find_first_zero(), 0u);
  EXPECT_EQ(b.find_next_zero(0), 0u);
}

TEST(DynamicBitsetTest, FindFirstZeroBasics) {
  DynamicBitset b(130);
  EXPECT_EQ(b.find_first_zero(), 0u);
  b.set(0);
  EXPECT_EQ(b.find_first_zero(), 1u);
  for (std::size_t i = 0; i < 65; ++i) b.set(i);
  EXPECT_EQ(b.find_first_zero(), 65u);  // crosses the first word boundary
}

TEST(DynamicBitsetTest, FindFirstZeroAllOnes) {
  // All bits one: no zero before size(), and the zero tail bits of the
  // last word must not be reported.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 128u, 130u}) {
    DynamicBitset b(n);
    b.set_all();
    EXPECT_EQ(b.find_first_zero(), n) << "n=" << n;
    EXPECT_EQ(b.find_next_zero(0), n) << "n=" << n;
  }
}

TEST(DynamicBitsetTest, FindNextZeroWalksHoles) {
  DynamicBitset b(200);
  b.set_all();
  b.reset(5);
  b.reset(64);
  b.reset(199);
  EXPECT_EQ(b.find_first_zero(), 5u);
  EXPECT_EQ(b.find_next_zero(5), 64u);
  EXPECT_EQ(b.find_next_zero(64), 199u);
  EXPECT_EQ(b.find_next_zero(199), 200u);
}

TEST(DynamicBitsetTest, FindNextZeroAtWordEdges) {
  DynamicBitset b(129);
  b.set_all();
  b.reset(63);
  b.reset(128);
  EXPECT_EQ(b.find_next_zero(62), 63u);
  EXPECT_EQ(b.find_next_zero(63), 128u);
  EXPECT_EQ(b.find_next_zero(128), 129u);

  // A single hole in the tail word: found from the front and from just
  // before it, and nothing after it.
  for (const std::size_t bits : kBitSizes) {
    if (bits < 2) continue;
    DynamicBitset hole(bits);
    hole.set_all();
    hole.reset(bits - 1);
    EXPECT_EQ(hole.find_first_zero(), bits - 1) << "bits=" << bits;
    EXPECT_EQ(hole.find_next_zero(bits - 2), bits - 1) << "bits=" << bits;
    EXPECT_EQ(hole.find_next_zero(bits - 1), bits) << "bits=" << bits;
  }
}

TEST(DynamicBitsetTest, ZeroScanMatchesLinearScan) {
  const auto zeros_by_scan = [](const DynamicBitset& b) {
    std::vector<std::size_t> out;
    for (std::size_t i = b.find_first_zero(); i < b.size();
         i = b.find_next_zero(i)) {
      out.push_back(i);
    }
    return out;
  };
  const auto zeros_by_test = [](const DynamicBitset& b) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (!b.test(i)) out.push_back(i);
    }
    return out;
  };
  // find_next_zero from every start bit, against a backward linear pass.
  const auto expect_next_zero_from_every_start = [](const DynamicBitset& b) {
    std::size_t next = b.size();  // the first zero strictly after i
    for (std::size_t i = b.size(); i-- > 0;) {
      EXPECT_EQ(b.find_next_zero(i), next) << "bits=" << b.size()
                                           << " i=" << i;
      if (!b.test(i)) next = i;
    }
  };

  DynamicBitset b(193);
  for (std::size_t i = 0; i < 193; i += 3) b.set(i);
  EXPECT_EQ(zeros_by_scan(b), zeros_by_test(b));

  Xoshiro256 rng(0xB17);
  for (const std::size_t bits : kBitSizes) {
    // All-zero, all-ones, then all-ones with a hole in the tail word and
    // with one or two random holes (the scan must skip whole all-ones
    // words from any start), then random masks.
    std::vector<DynamicBitset> masks(1, DynamicBitset(bits));
    DynamicBitset ones(bits);
    ones.set_all();
    masks.push_back(ones);
    if (bits > 0) {
      DynamicBitset tail_hole = ones;
      tail_hole.reset(bits - 1);
      masks.push_back(tail_hole);
      for (int holes = 1; holes <= 2; ++holes) {
        DynamicBitset holed = ones;
        for (int h = 0; h < holes; ++h) holed.reset(rng.below(bits));
        masks.push_back(holed);
      }
    }
    for (int i = 0; i < 8; ++i) masks.push_back(random_mask(rng, bits));
    for (const DynamicBitset& mask : masks) {
      EXPECT_EQ(zeros_by_scan(mask), zeros_by_test(mask)) << "bits=" << bits;
      expect_next_zero_from_every_start(mask);
    }
  }
}

TEST(DynamicBitsetTest, OrIntoLargerTarget) {
  DynamicBitset src(70), dst(140);
  src.set(1);
  src.set(69);
  dst.set(100);
  src.or_into(dst);
  EXPECT_TRUE(dst.test(1));
  EXPECT_TRUE(dst.test(69));
  EXPECT_TRUE(dst.test(100));
  EXPECT_EQ(dst.count(), 3u);
  DynamicBitset small(10);
  EXPECT_THROW(dst.or_into(small), wdag::InvalidArgument);
}

TEST(DynamicBitsetTest, ResetToZeroReusesStorage) {
  DynamicBitset b(128);
  b.set_all();
  b.reset_to_zero(70);  // shrink: all clear at the new size
  EXPECT_EQ(b.size(), 70u);
  EXPECT_TRUE(b.none());
  b.set(69);
  b.reset_to_zero(300);  // grow: still all clear
  EXPECT_EQ(b.size(), 300u);
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.find_first_zero(), 0u);
}

// Regression: find_next/find_next_zero with a start index at or past
// size() must return size() for ANY start value. The old implementations
// incremented before the range check, so i == SIZE_MAX wrapped to 0 and
// silently restarted the scan from the front — find_next_zero(SIZE_MAX)
// on an empty mask returned 0, not size().
TEST(DynamicBitsetTest, FindNextPastEndNeverWrapsAround) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> sizes = kBitSizes;
  sizes.push_back(130);
  for (const std::size_t n : sizes) {
    DynamicBitset zeros(n);
    DynamicBitset ones(n);
    ones.set_all();
    for (const std::size_t start : {n, n + 1, kMax - 1, kMax}) {
      EXPECT_EQ(zeros.find_next(start), n) << "n=" << n << " start=" << start;
      EXPECT_EQ(zeros.find_next_zero(start), n)
          << "n=" << n << " start=" << start;
      EXPECT_EQ(ones.find_next(start), n) << "n=" << n << " start=" << start;
      EXPECT_EQ(ones.find_next_zero(start), n)
          << "n=" << n << " start=" << start;
    }
  }
}

// Regression: when no zero exists, both zero-scans report size() and
// never surface the zero tail bits past size() in the last word.
TEST(DynamicBitsetTest, NoZeroMeansSizeNotTailBits) {
  for (const std::size_t n : kBitSizes) {
    DynamicBitset b(n);
    b.set_all();  // tail bits beyond n stay zero in the backing word
    EXPECT_EQ(b.find_first_zero(), n) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(b.find_next_zero(i), n) << "n=" << n << " i=" << i;
    }
  }
}

TEST(DynamicBitsetTest, WordAccessors) {
  DynamicBitset b(130);
  EXPECT_EQ(b.num_words(), 3u);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_EQ(b.word(0), std::uint64_t{1});
  EXPECT_EQ(b.word(1), std::uint64_t{1});
  EXPECT_EQ(b.word(2), std::uint64_t{1} << 1);
}

TEST(DynamicBitsetTest, ViewRoundTripsThroughOwningBitset) {
  Xoshiro256 rng(0x71E4);
  for (const std::size_t bits : kBitSizes) {
    const DynamicBitset b = random_mask(rng, bits, 3);
    const ConstBitsetView view = b;
    EXPECT_EQ(view.size(), bits);
    EXPECT_EQ(view.count(), b.count());
    EXPECT_EQ(view.find_first(), b.find_first());
    EXPECT_EQ(view.to_indices(), b.to_indices());
    EXPECT_EQ(DynamicBitset(view), b) << "bits=" << bits;
  }
}

// AlignedWords and kBitsetAlignment are deprecated and removed in 0.4.0;
// until then their behaviour stays pinned here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
TEST(DynamicBitsetTest, AlignedWordsIsCacheLineAlignedAndZeroed) {
  using wdag::util::AlignedWords;
  for (const std::size_t words : {std::size_t{1}, std::size_t{7},
                                  std::size_t{8}, std::size_t{129}}) {
    AlignedWords buf(words);
    ASSERT_EQ(buf.size(), words);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) %
                  wdag::util::kBitsetAlignment,
              0u);
    for (std::size_t i = 0; i < words; ++i) EXPECT_EQ(buf.data()[i], 0u);
    buf.data()[0] = ~std::uint64_t{0};
    buf.zero();
    EXPECT_EQ(buf.data()[0], 0u);
    AlignedWords moved(std::move(buf));
    EXPECT_EQ(moved.size(), words);
    EXPECT_EQ(buf.size(), 0u);  // NOLINT(bugprone-use-after-move)
  }
  const AlignedWords empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.data(), nullptr);
}
#pragma GCC diagnostic pop

}  // namespace
