#pragma once
// Twin classes of a dipath family: dipaths with identical arc sequences.
//
// The paper builds its tight examples from identical dipaths (Theorems 6
// and 7 replace each dipath by h copies), and random walks on a small
// host repeat just as often. Twins share every arc, so in the conflict
// graph they are adjacent to each other and to the same other dipaths:
// DSATUR treats the uncoloured members of a class alike, and a kernel
// over class rows with one saturation per class makes exactly the
// path-level picks (docs/ARCHITECTURE.md, "DSATUR without a heap").
//
// Internal to the library, like the per-thread buffers it fills; not part
// of the installed headers.

#include <cstdint>
#include <vector>

#include "conflict/coloring.hpp"
#include "conflict/conflict_graph.hpp"
#include "paths/family.hpp"

namespace wdag::conflict {

/// TwinIndex::next of a class's last member.
inline constexpr std::uint32_t kNoTwin = UINT32_MAX;

/// The twin classes of one family. Classes are numbered in the order of
/// their lowest members, so a family without twins has class k == dipath
/// k.
struct TwinIndex {
  std::vector<std::uint32_t> class_of;      ///< dipath -> its class
  std::vector<std::uint32_t> next;          ///< dipath -> next member
  std::vector<std::uint32_t> first;         ///< class -> lowest member
  std::vector<std::uint32_t> multiplicity;  ///< class -> member count
  /// The classes of two or more dipaths, in the order they gained their
  /// second.
  std::vector<std::uint32_t> with_twins;
  /// Class -> arcs in CSR form: class k's arc sequence is
  /// arcs[arc_offsets[k] .. arc_offsets[k+1]). Entries of `arcs` past
  /// arc_offsets.back() are scratch, and so are those of `group_ids` past
  /// group_offsets.back().
  std::vector<std::uint32_t> arc_offsets;
  std::vector<graph::ArcId> arcs;
  /// Arc -> class groups in CSR form: the classes through arc a are
  /// group_ids[group_offsets[a] .. group_offsets[a+1]), ascending.
  std::vector<std::uint32_t> group_offsets;
  std::vector<std::uint32_t> group_ids;
  std::size_t load = 0;  ///< pi(G,P): the most dipaths through one arc

  [[nodiscard]] std::size_t paths() const { return class_of.size(); }
  [[nodiscard]] std::size_t classes() const { return first.size(); }
};

/// Indexes the twin classes of `family` in one pass over its dipaths,
/// into buffers that persist per thread: valid until the thread's next
/// call, and no allocation once they have grown to the largest family
/// seen. Members are chained in ascending id. Walks of one or two arcs
/// are keyed exactly; longer ones by a hash confirmed by a full compare.
const TwinIndex& index_twins(const paths::DipathFamily& family);

/// DSATUR over twin classes: builds the class conflict rows into `rows`
/// (one vertex per class) and returns exactly the colouring
/// dsatur_coloring(ConflictGraph(family)) gives, for the family `twins`
/// indexes. Ranks and degrees still count dipaths; each pick colours the
/// lowest uncoloured member of its class. With no twins, the class rows
/// are the dipath rows and the dipath kernel runs on them.
Coloring dsatur_coloring(const TwinIndex& twins, ConflictGraph& rows);

}  // namespace wdag::conflict
