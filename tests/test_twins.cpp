// Tests for the twin index (conflict/twins.hpp): dipaths with identical
// arc sequences form one class, members chain in ascending id, the arc
// groups list each class once, and pi comes out equal to
// paths::max_load.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "conflict/twins.hpp"
#include "gen/workloads.hpp"
#include "graph/digraph.hpp"
#include "paths/family.hpp"
#include "paths/load.hpp"
#include "util/rng.hpp"

namespace {

using wdag::conflict::index_twins;
using wdag::conflict::kNoTwin;
using wdag::conflict::TwinIndex;
using wdag::paths::DipathFamily;

/// Every structural property the index promises, checked against the
/// family directly.
void expect_consistent(const TwinIndex& t, const DipathFamily& family,
                       const std::string& what) {
  ASSERT_EQ(t.paths(), family.size()) << what;
  EXPECT_EQ(t.load, wdag::paths::max_load(family)) << what;
  std::vector<bool> seen(family.size(), false);
  std::size_t with_twins = 0;
  for (std::uint32_t k = 0; k < t.classes(); ++k) {
    // Classes are numbered by their lowest members.
    if (k > 0) {
      EXPECT_LT(t.first[k - 1], t.first[k]) << what;
    }
    const auto& arcs = family.path(t.first[k]).arcs;
    EXPECT_TRUE(std::equal(arcs.begin(), arcs.end(),
                           t.arcs.begin() + t.arc_offsets[k],
                           t.arcs.begin() + t.arc_offsets[k + 1]))
        << what << " class " << k;
    std::size_t members = 0;
    std::uint32_t prev = 0;
    for (std::uint32_t v = t.first[k]; v != kNoTwin; v = t.next[v]) {
      if (members > 0) {
        EXPECT_LT(prev, v) << what << " class " << k;
      }
      EXPECT_EQ(t.class_of[v], k) << what;
      EXPECT_EQ(family.path(v).arcs, arcs) << what << " dipath " << v;
      EXPECT_FALSE(seen[v]) << what << " dipath " << v;
      seen[v] = true;
      prev = v;
      ++members;
    }
    EXPECT_EQ(members, t.multiplicity[k]) << what << " class " << k;
    if (members > 1) ++with_twins;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
            static_cast<std::ptrdiff_t>(family.size()))
      << what;
  EXPECT_EQ(t.with_twins.size(), with_twins) << what;
  // Distinct classes never share an arc sequence.
  for (std::uint32_t k = 1; k < t.classes(); ++k) {
    for (std::uint32_t j = 0; j < k; ++j) {
      EXPECT_NE(family.path(t.first[j]).arcs, family.path(t.first[k]).arcs)
          << what << " classes " << j << ", " << k;
    }
  }
  // Arc a's group holds, in ascending order, each class through a once.
  const std::size_t num_arcs = family.graph().num_arcs();
  ASSERT_EQ(t.group_offsets.size(), num_arcs + 1) << what;
  for (wdag::graph::ArcId a = 0; a < num_arcs; ++a) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t k = 0; k < t.classes(); ++k) {
      const auto& arcs = family.path(t.first[k]).arcs;
      if (std::find(arcs.begin(), arcs.end(), a) != arcs.end()) {
        expected.push_back(k);
      }
    }
    const std::vector<std::uint32_t> got(
        t.group_ids.begin() + t.group_offsets[a],
        t.group_ids.begin() + t.group_offsets[a + 1]);
    EXPECT_EQ(got, expected) << what << " arc " << a;
  }
}

/// a -> b -> {c, d} -> y -> z: two four-arc walks share their first arc,
/// their last arc and their length, and differ in the middle.
wdag::graph::Digraph two_middles() {
  wdag::graph::DigraphBuilder b(6);  // a=0 b=1 c=2 d=3 y=4 z=5
  b.add_arc(0, 1);
  b.add_arc(1, 2);
  b.add_arc(1, 3);
  b.add_arc(2, 4);
  b.add_arc(3, 4);
  b.add_arc(4, 5);
  return b.build();
}

TEST(TwinIndexTest, SameEndsAndLengthButDifferentMiddlesAreNotTwins) {
  const auto g = two_middles();
  DipathFamily family(g);
  family.add_through({0, 1, 2, 4, 5});
  family.add_through({0, 1, 3, 4, 5});
  family.add_through({0, 1, 2, 4, 5});
  const TwinIndex& t = index_twins(family);
  EXPECT_EQ(t.classes(), 2u);
  EXPECT_NE(t.class_of[0], t.class_of[1]);
  EXPECT_EQ(t.class_of[0], t.class_of[2]);
  expect_consistent(t, family, "two middles");
}

TEST(TwinIndexTest, ReplicatedDipathIsOneClass) {
  const auto g = two_middles();
  // One, two and five arcs: both exact keys and a hashed one.
  for (const std::vector<wdag::graph::VertexId>& walk :
       {std::vector<wdag::graph::VertexId>{1, 2},
        std::vector<wdag::graph::VertexId>{0, 1, 3},
        std::vector<wdag::graph::VertexId>{0, 1, 2, 4, 5}}) {
    DipathFamily one(g);
    one.add_through(walk);
    for (const std::size_t h : {1, 2, 3, 7}) {
      const DipathFamily family = one.replicate(h);
      const TwinIndex& t = index_twins(family);
      EXPECT_EQ(t.classes(), 1u) << "h=" << h;
      EXPECT_EQ(t.multiplicity[0], h);
      EXPECT_EQ(t.load, h);
      expect_consistent(t, family, "replicate " + std::to_string(h));
    }
  }
}

TEST(TwinIndexTest, FamilyWithoutTwinsHasOneClassPerDipath) {
  const auto g = two_middles();
  DipathFamily family(g);
  family.add_through({0, 1});
  family.add_through({0, 1, 2});
  family.add_through({0, 1, 3});
  family.add_through({1, 2, 4, 5});
  family.add_through({1, 3, 4, 5});
  family.add_through({0, 1, 2, 4, 5});
  family.add_through({0, 1, 3, 4, 5});
  family.add_through({4, 5});
  const TwinIndex& t = index_twins(family);
  ASSERT_EQ(t.classes(), family.size());
  for (std::uint32_t p = 0; p < family.size(); ++p) {
    EXPECT_EQ(t.class_of[p], p);
    EXPECT_EQ(t.next[p], kNoTwin);
  }
  EXPECT_TRUE(t.with_twins.empty());
  expect_consistent(t, family, "no twins");
}

TEST(TwinIndexTest, MembersChainInAscendingIdWhenShuffled) {
  wdag::util::Xoshiro256 rng(0x7117);
  for (const std::string& name : wdag::gen::workload_names()) {
    const auto inst = wdag::gen::workload_instance(name, {}, rng);
    for (const std::size_t h : {2, 3}) {
      const DipathFamily copies = inst.family.replicate(h);
      std::vector<std::size_t> order(copies.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng.shuffle(order);
      DipathFamily family(copies.graph());
      for (const std::size_t i : order) family.add_unchecked(copies.path(i));
      const TwinIndex& t = index_twins(family);
      EXPECT_LE(t.classes() * h, family.size()) << name;
      expect_consistent(t, family, name + " shuffled x" + std::to_string(h));
    }
  }
}

TEST(TwinIndexTest, LoadIsMaxLoadOnEveryFamily) {
  for (const std::string& name : wdag::gen::workload_names()) {
    for (std::size_t i = 0; i < 20; ++i) {
      wdag::util::Xoshiro256 rng((std::uint64_t{5} << 32) | i);
      const auto inst = wdag::gen::workload_instance(name, {}, rng);
      expect_consistent(index_twins(inst.family), inst.family,
                        name + " draw " + std::to_string(i));
    }
  }
  // The dense benchmark shape, where about half the dipaths are twins.
  wdag::gen::WorkloadParams dense;
  dense.size = 60;
  dense.density = 0.15;
  dense.paths = 1500;
  wdag::util::Xoshiro256 rng(11);
  const auto inst = wdag::gen::workload_instance("random-dag", dense, rng);
  const TwinIndex& t = index_twins(inst.family);
  EXPECT_EQ(t.load, wdag::paths::max_load(inst.family));
  EXPECT_LT(t.classes(), inst.family.size() * 3 / 4);
}

TEST(TwinIndexTest, EmptyFamily) {
  const auto g = two_middles();
  const DipathFamily family(g);
  const TwinIndex& t = index_twins(family);
  EXPECT_EQ(t.paths(), 0u);
  EXPECT_EQ(t.classes(), 0u);
  EXPECT_EQ(t.load, 0u);
}

}  // namespace
