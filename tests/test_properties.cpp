// Unit tests for structural graph properties.

#include <gtest/gtest.h>

#include "graph/properties.hpp"
#include "helpers.hpp"

namespace {

using namespace wdag::graph;

TEST(PropertiesTest, ChainSourcesAndSinks) {
  const Digraph g = wdag::test::chain(4);
  EXPECT_EQ(sources(g), (std::vector<VertexId>{0}));
  EXPECT_EQ(sinks(g), (std::vector<VertexId>{3}));
}

TEST(PropertiesTest, InternalVerticesOfChain) {
  const Digraph g = wdag::test::chain(4);
  EXPECT_EQ(internal_vertices(g), (std::vector<VertexId>{1, 2}));
  const auto mask = internal_vertex_mask(g);
  EXPECT_FALSE(mask[0]);
  EXPECT_TRUE(mask[1]);
  EXPECT_TRUE(mask[2]);
  EXPECT_FALSE(mask[3]);
}

TEST(PropertiesTest, DiamondInternals) {
  const Digraph g = wdag::test::diamond();
  EXPECT_EQ(internal_vertices(g), (std::vector<VertexId>{1, 2}));
}

TEST(PropertiesTest, GuardedDiamondInternals) {
  const Digraph g = wdag::test::guarded_diamond();
  // 0,1,2,3 are internal; 4 (source) and 5 (sink) are not.
  EXPECT_EQ(internal_vertices(g), (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(PropertiesTest, IsolatedVertexIsNeitherSourceNorInternal) {
  DigraphBuilder b(3);
  b.add_arc(0, 1);
  const Digraph g = b.build();
  // Isolated vertices count as sources AND sinks degree-wise.
  EXPECT_EQ(sources(g), (std::vector<VertexId>{0, 2}));
  EXPECT_EQ(sinks(g), (std::vector<VertexId>{1, 2}));
  EXPECT_TRUE(internal_vertices(g).empty());
}

TEST(PropertiesTest, SimpleDetection) {
  EXPECT_TRUE(is_simple(wdag::test::diamond()));
  DigraphBuilder b(2);
  b.add_arc(0, 1);
  b.add_arc(0, 1);
  EXPECT_FALSE(is_simple(b.build()));
}

TEST(PropertiesTest, ComponentsOfDisconnectedGraph) {
  DigraphBuilder b(6);
  b.add_arc(0, 1);
  b.add_arc(1, 2);
  b.add_arc(3, 4);
  const Digraph g = b.build();
  const auto comp = underlying_components(g);
  EXPECT_EQ(comp.count, 3u);  // {0,1,2} {3,4} {5}
  EXPECT_EQ(comp.id[0], comp.id[2]);
  EXPECT_EQ(comp.id[3], comp.id[4]);
  EXPECT_NE(comp.id[0], comp.id[3]);
  EXPECT_NE(comp.id[0], comp.id[5]);
  EXPECT_FALSE(is_underlying_connected(g));
}

TEST(PropertiesTest, ConnectivityIgnoresDirection) {
  DigraphBuilder b(3);
  b.add_arc(0, 2);
  b.add_arc(1, 2);  // 0 and 1 connected only through head-sharing
  EXPECT_TRUE(is_underlying_connected(b.build()));
}

TEST(PropertiesTest, EmptyGraph) {
  const Digraph g = DigraphBuilder().build();
  EXPECT_TRUE(sources(g).empty());
  EXPECT_TRUE(sinks(g).empty());
  EXPECT_TRUE(is_underlying_connected(g));
}

}  // namespace
