#include "conflict/twins.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace wdag::conflict {

namespace {

constexpr std::uint32_t kEmptySlot = UINT32_MAX;
/// Set on hashed keys only. Exact keys start with an arc id below 2^31,
/// so no hashed key equals an exact one.
constexpr std::uint64_t kHashedKey = std::uint64_t{1} << 63;
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// The index plus its working buffers, kept per thread. The table's
/// slots hold class ids; each class's key and highest member so far (the
/// one its next member is chained to) sit beside it.
struct Buffers {
  TwinIndex index;
  std::vector<std::uint32_t> slots;
  std::vector<std::uint64_t> class_key;   ///< class -> its key
  std::vector<std::uint32_t> last;        ///< class -> highest member so far
  std::vector<std::uint32_t> owner;       ///< staged arc -> its class
  std::vector<std::uint32_t> arc_load;    ///< arc -> dipaths through it
};

}  // namespace

const TwinIndex& index_twins(const paths::DipathFamily& family) {
  thread_local Buffers b;
  TwinIndex& t = b.index;
  const std::vector<paths::Dipath>& paths = family.paths();
  const std::size_t n = paths.size();
  const std::size_t num_arcs = family.graph().num_arcs();
  WDAG_REQUIRE(num_arcs < (std::size_t{1} << 31),
               "index_twins: arc ids must stay below 2^31");

  std::size_t total = 0;
  for (const paths::Dipath& p : paths) total += p.arcs.size();
  // At most a quarter full, so most probes end on their first slot.
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(4 * n, 4));
  const int shift = 64 - std::countr_zero(cap);
  b.slots.assign(cap, kEmptySlot);
  b.arc_load.assign(num_arcs, 0);
  // These only ever grow: entries past the last class, and staged arcs
  // past arc_offsets.back(), are scratch. One spare entry lets every walk
  // read two staged arcs below.
  if (b.class_key.size() < n) {
    b.class_key.resize(n);
    b.last.resize(n);
  }
  if (t.arcs.size() <= total) {
    t.arcs.resize(total + 1);
    b.owner.resize(total + 1);
  }
  t.class_of.resize(n);
  t.next.assign(n, kNoTwin);
  t.first.clear();
  t.multiplicity.clear();
  t.with_twins.clear();
  t.arc_offsets.assign(1, 0);

  // One pass over the dipaths. Each walk's arcs are staged as the arcs of
  // a new class while its key is hashed and its arc loads counted; they
  // stay only if no earlier class has the same arc sequence.
  std::uint32_t classes = 0;
  std::size_t staged = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    const std::vector<graph::ArcId>& arcs = paths[p].arcs;
    const std::size_t len = arcs.size();
    graph::ArcId* stage = t.arcs.data() + staged;
    std::uint32_t* owner = b.owner.data() + staged;
    std::uint64_t h = len;
    for (std::size_t i = 0; i < len; ++i) {
      const graph::ArcId a = arcs[i];
      stage[i] = a;
      owner[i] = classes;
      h = (h ^ a) * kGolden;
      ++b.arc_load[a];
    }
    // A walk of one or two arcs is keyed by its arc ids (the second
    // kNoArc for one arc); a longer one by its hash, which a match must
    // confirm arc by arc. The key is picked with masks, not branches:
    // walk lengths are random, so a branch on them would mispredict.
    const std::uint64_t one_arc = -std::uint64_t{len != 2};
    const std::uint64_t second =
        stage[1] ^ ((stage[1] ^ graph::kNoArc) & one_arc);
    const std::uint64_t exact = std::uint64_t{stage[0]} << 32 | second;
    const std::uint64_t hashed = -std::uint64_t{len - 1 >= 2};
    const std::uint64_t key = (exact & ~hashed) | ((h | kHashedKey) & hashed);
    std::size_t s = static_cast<std::size_t>((key * kGolden) >> shift);
    while (true) {
      const std::uint32_t k = b.slots[s];
      if (k == kEmptySlot) {
        b.slots[s] = classes;
        b.class_key[classes] = key;
        b.last[classes] = p;
        t.class_of[p] = classes++;
        t.first.push_back(p);
        t.multiplicity.push_back(1);
        staged += len;
        t.arc_offsets.push_back(static_cast<std::uint32_t>(staged));
        break;
      }
      if (b.class_key[k] == key &&
          ((key & kHashedKey) == 0 ||
           std::equal(stage, stage + len, t.arcs.data() + t.arc_offsets[k],
                      t.arcs.data() + t.arc_offsets[k + 1]))) {
        t.class_of[p] = k;
        t.next[b.last[k]] = p;
        b.last[k] = p;
        if (++t.multiplicity[k] == 2) t.with_twins.push_back(k);
        break;
      }
      s = (s + 1) & (cap - 1);
    }
  }

  // Arc -> class groups by a counting sort over the staged arcs, counted
  // one slot ahead so the fill leaves every offset at its final place.
  t.group_offsets.assign(num_arcs + 2, 0);
  for (std::size_t i = 0; i < staged; ++i) ++t.group_offsets[t.arcs[i] + 2];
  for (std::size_t a = 2; a < num_arcs + 2; ++a) {
    t.group_offsets[a] += t.group_offsets[a - 1];
  }
  if (t.group_ids.size() < staged) t.group_ids.resize(staged);
  for (std::size_t i = 0; i < staged; ++i) {
    t.group_ids[t.group_offsets[t.arcs[i] + 1]++] = b.owner[i];
  }
  t.group_offsets.resize(num_arcs + 1);
  std::uint32_t load = 0;
  for (const std::uint32_t l : b.arc_load) load = std::max(load, l);
  t.load = load;
  return t;
}

}  // namespace wdag::conflict
