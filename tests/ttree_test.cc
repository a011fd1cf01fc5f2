#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "index/ttree.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

using testing::CountingStore;
using testing::PlainEntityStore;

/// The indexed relation's segment: every value lies in it.
constexpr SegmentId kRelation = 100;

EntityAddr Addr(uint32_t n) { return EntityAddr{{kRelation, 0}, n}; }

class TTreeTest : public ::testing::Test {
 protected:
  TTreeTest() : seg_(store_.NewSegment()) {}

  TTree Make(uint16_t capacity = 4) {
    auto t = TTree::Create(store_, seg_, kRelation, capacity);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.value();
  }

  PlainEntityStore store_;
  SegmentId seg_;
};

TEST_F(TTreeTest, CreateRejectsTinyCapacity) {
  EXPECT_TRUE(
      TTree::Create(store_, seg_, kRelation, 1).status().IsInvalidArgument());
}

TEST_F(TTreeTest, EmptyTreeBehaviour) {
  TTree t = Make();
  ASSERT_OK_AND_ASSIGN(auto vals, t.Lookup(store_, 5));
  EXPECT_TRUE(vals.empty());
  EXPECT_TRUE(t.Remove(store_, 5, Addr(0)).IsNotFound());
  ASSERT_OK_AND_ASSIGN(size_t n, t.Size(store_));
  EXPECT_EQ(n, 0u);
  ASSERT_OK(t.CheckInvariants(store_));
}

TEST_F(TTreeTest, InsertLookupSingle) {
  TTree t = Make();
  ASSERT_OK(t.Insert(store_, 10, Addr(1)));
  ASSERT_OK_AND_ASSIGN(auto vals, t.Lookup(store_, 10));
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], Addr(1));
  ASSERT_OK_AND_ASSIGN(auto miss, t.Lookup(store_, 11));
  EXPECT_TRUE(miss.empty());
}

TEST_F(TTreeTest, DuplicateKeysKeepAllValues) {
  TTree t = Make();
  for (uint32_t i = 0; i < 10; ++i) ASSERT_OK(t.Insert(store_, 7, Addr(i)));
  ASSERT_OK_AND_ASSIGN(auto vals, t.Lookup(store_, 7));
  EXPECT_EQ(vals.size(), 10u);
  ASSERT_OK(t.Remove(store_, 7, Addr(3)));
  ASSERT_OK_AND_ASSIGN(auto after, t.Lookup(store_, 7));
  EXPECT_EQ(after.size(), 9u);
  EXPECT_EQ(std::count(after.begin(), after.end(), Addr(3)), 0);
  ASSERT_OK(t.CheckInvariants(store_));
}

TEST_F(TTreeTest, AscendingInsertionStaysBalanced) {
  TTree t = Make();
  for (int i = 0; i < 500; ++i) {
    ASSERT_OK(t.Insert(store_, i, Addr(i)));
  }
  ASSERT_OK(t.CheckInvariants(store_));
  ASSERT_OK_AND_ASSIGN(size_t n, t.Size(store_));
  EXPECT_EQ(n, 500u);
  for (int i = 0; i < 500; i += 37) {
    ASSERT_OK_AND_ASSIGN(auto vals, t.Lookup(store_, i));
    ASSERT_EQ(vals.size(), 1u);
    EXPECT_EQ(vals[0], Addr(i));
  }
}

TEST_F(TTreeTest, DescendingInsertionStaysBalanced) {
  TTree t = Make();
  for (int i = 500; i > 0; --i) ASSERT_OK(t.Insert(store_, i, Addr(i)));
  ASSERT_OK(t.CheckInvariants(store_));
  ASSERT_OK_AND_ASSIGN(size_t n, t.Size(store_));
  EXPECT_EQ(n, 500u);
}

TEST_F(TTreeTest, RangeScanOrderedAndBounded) {
  TTree t = Make();
  for (int i = 0; i < 100; ++i) ASSERT_OK(t.Insert(store_, i * 2, Addr(i)));
  ASSERT_OK_AND_ASSIGN(auto entries, t.Range(store_, 10, 30));
  ASSERT_EQ(entries.size(), 11u);  // 10,12,...,30
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].key, 10 + static_cast<int64_t>(i) * 2);
  }
  ASSERT_OK_AND_ASSIGN(auto none, t.Range(store_, 201, 300));
  EXPECT_TRUE(none.empty());
  // Negative-range and full-range queries.
  ASSERT_OK_AND_ASSIGN(auto all, t.Range(store_, -1000, 1000));
  EXPECT_EQ(all.size(), 100u);
}

TEST_F(TTreeTest, DeleteDownToEmpty) {
  TTree t = Make();
  for (int i = 0; i < 200; ++i) ASSERT_OK(t.Insert(store_, i, Addr(i)));
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(t.Remove(store_, i, Addr(i)));
    if (i % 20 == 0) ASSERT_OK(t.CheckInvariants(store_));
  }
  ASSERT_OK_AND_ASSIGN(size_t n, t.Size(store_));
  EXPECT_EQ(n, 0u);
  ASSERT_OK(t.CheckInvariants(store_));
  // Tree usable again after emptying.
  ASSERT_OK(t.Insert(store_, 1, Addr(1)));
  ASSERT_OK_AND_ASSIGN(auto vals, t.Lookup(store_, 1));
  EXPECT_EQ(vals.size(), 1u);
}

TEST_F(TTreeTest, RemoveExactPairOnly) {
  TTree t = Make();
  ASSERT_OK(t.Insert(store_, 5, Addr(1)));
  EXPECT_TRUE(t.Remove(store_, 5, Addr(2)).IsNotFound());
  ASSERT_OK(t.Remove(store_, 5, Addr(1)));
}

TEST_F(TTreeTest, AttachSeesExistingTree) {
  TTree t = Make();
  for (int i = 0; i < 50; ++i) ASSERT_OK(t.Insert(store_, i, Addr(i)));
  ASSERT_OK_AND_ASSIGN(TTree t2, TTree::Attach(store_, seg_));
  ASSERT_OK_AND_ASSIGN(auto vals, t2.Lookup(store_, 25));
  ASSERT_EQ(vals.size(), 1u);
  ASSERT_OK(t2.CheckInvariants(store_));
}

TEST_F(TTreeTest, NegativeAndExtremeKeys) {
  TTree t = Make();
  std::vector<int64_t> keys = {std::numeric_limits<int64_t>::min(), -1, 0, 1,
                               std::numeric_limits<int64_t>::max()};
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_OK(t.Insert(store_, keys[i], Addr(static_cast<uint32_t>(i))));
  }
  ASSERT_OK(t.CheckInvariants(store_));
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(auto vals, t.Lookup(store_, keys[i]));
    ASSERT_EQ(vals.size(), 1u);
  }
  ASSERT_OK_AND_ASSIGN(auto all,
                       t.Range(store_, std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max()));
  EXPECT_EQ(all.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(
      all.begin(), all.end(),
      [](const node::Entry& a, const node::Entry& b) { return a.key < b.key; }));
}

// --- bulk build ----------------------------------------------------------------

using Reference = std::multimap<int64_t, EntityAddr>;

/// `n` entries over about n/3 distinct even keys, so most keys repeat and
/// odd keys are absent, in a seeded random order; every value differs.
std::vector<node::Entry> RandomEntries(size_t n, uint64_t seed) {
  Random rng(seed);
  const int64_t distinct = static_cast<int64_t>(n / 6) + 1;
  std::vector<node::Entry> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back({2 * rng.UniformRange(-distinct, distinct),
                   Addr(static_cast<uint32_t>(i))});
  }
  return out;
}

Reference ReferenceOf(const std::vector<node::Entry>& entries) {
  Reference model;
  for (const node::Entry& e : entries) model.emplace(e.key, e.value);
  return model;
}

/// Checks `t` against `model`: invariants, size, the lookup of every key
/// and of the key after it, and a range over the middle of the keys.
void ExpectMatchesReference(PlainEntityStore& store, const TTree& t,
                            const Reference& model) {
  ASSERT_OK(t.CheckInvariants(store));
  ASSERT_OK_AND_ASSIGN(size_t n, t.Size(store));
  ASSERT_EQ(n, model.size());
  for (auto it = model.begin(); it != model.end();
       it = model.upper_bound(it->first)) {
    const int64_t key = it->first;
    std::vector<EntityAddr> want;
    for (auto [b, e] = model.equal_range(key); b != e; ++b) {
      want.push_back(b->second);
    }
    std::sort(want.begin(), want.end());
    ASSERT_OK_AND_ASSIGN(auto got, t.Lookup(store, key));
    ASSERT_EQ(got, want) << "key " << key;
    ASSERT_OK_AND_ASSIGN(auto next, t.Lookup(store, key + 1));
    ASSERT_EQ(next.size(), model.count(key + 1)) << "key " << key + 1;
  }
  const int64_t lo = model.empty() ? 0 : model.begin()->first / 2;
  const int64_t hi = model.empty() ? 0 : model.rbegin()->first / 2;
  std::vector<node::Entry> want;
  for (auto it = model.lower_bound(lo); it != model.end() && it->first <= hi;
       ++it) {
    want.push_back({it->first, it->second});
  }
  std::sort(want.begin(), want.end(),
            [](const node::Entry& a, const node::Entry& b) {
              return a.key != b.key ? a.key < b.key : a.value < b.value;
            });
  ASSERT_OK_AND_ASSIGN(auto got, t.Range(store, lo, hi));
  ASSERT_EQ(got, want);
}

struct BuildCase {
  uint16_t capacity;
  size_t size;
};

std::vector<BuildCase> BuildCases() {
  std::vector<BuildCase> out;
  for (uint16_t cap : {2, 4, 10}) {
    std::set<size_t> sizes = {0, 1, size_t{cap} - 1, cap, size_t{cap} + 1,
                              1000, 8192};
    for (size_t n : sizes) out.push_back({cap, n});
  }
  return out;
}

class TTreeBuildTest : public ::testing::TestWithParam<BuildCase> {};

TEST_P(TTreeBuildTest, MatchesMultimapReference) {
  const BuildCase c = GetParam();
  CountingStore store;
  SegmentId seg = store.NewSegment();
  const auto entries = RandomEntries(c.size, c.size * 31 + c.capacity);
  ASSERT_OK_AND_ASSIGN(
      TTree t, TTree::Build(store, seg, kRelation, entries, c.capacity));
  EXPECT_EQ(t.meta_addr(), (EntityAddr{{seg, 0}, 0}));
  // One insert per node and for the meta; one update, the meta's root.
  const size_t nodes = (c.size + c.capacity - 1) / c.capacity;
  EXPECT_EQ(store.inserts.size(), nodes + 1);
  for (const auto& [addr, times] : store.inserts) EXPECT_EQ(times, 1);
  EXPECT_EQ(store.updates.size(), c.size == 0 ? 0u : 1u);
  for (const auto& [addr, times] : store.updates) {
    EXPECT_EQ(addr, t.meta_addr());
    EXPECT_EQ(times, 1);
  }
  ASSERT_NO_FATAL_FAILURE(
      ExpectMatchesReference(store, t, ReferenceOf(entries)));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TTreeBuildTest, ::testing::ValuesIn(BuildCases()),
    [](const ::testing::TestParamInfo<BuildCase>& info) {
      return "cap" + std::to_string(info.param.capacity) + "_n" +
             std::to_string(info.param.size);
    });

TEST(TTreeBuild, InsertsAndRemovesAfterBuildKeepInvariants) {
  // Every node of a build starts full, so the first inserts overflow
  // into new leaves and rotations.
  for (uint16_t cap : {2, 4, 10}) {
    SCOPED_TRACE(cap);
    PlainEntityStore store;
    SegmentId seg = store.NewSegment();
    auto entries = RandomEntries(1000, cap);
    ASSERT_OK_AND_ASSIGN(TTree t,
                         TTree::Build(store, seg, kRelation, entries, cap));
    Reference model = ReferenceOf(entries);
    Random rng(cap * 7 + 1);
    uint32_t next_addr = static_cast<uint32_t>(entries.size());
    for (int step = 0; step < 600; ++step) {
      if (step < 300 ? rng.Bernoulli(0.8) : rng.Bernoulli(0.2)) {
        const int64_t key = rng.UniformRange(-200, 200);
        ASSERT_OK(t.Insert(store, key, Addr(next_addr)));
        model.emplace(key, Addr(next_addr++));
      } else {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        ASSERT_OK(t.Remove(store, it->first, it->second));
        model.erase(it);
      }
      if (step < 20 || step % 25 == 0) ASSERT_OK(t.CheckInvariants(store));
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(store, t, model));
  }
}

TEST(TTreeBuild, AttachSeesBuiltTree) {
  PlainEntityStore store;
  SegmentId seg = store.NewSegment();
  auto entries = RandomEntries(500, 3);
  ASSERT_OK(TTree::Build(store, seg, kRelation, entries, 4).status());
  ASSERT_OK_AND_ASSIGN(TTree t, TTree::Attach(store, seg));
  Reference model = ReferenceOf(entries);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(store, t, model));
  ASSERT_OK(t.Insert(store, 1, Addr(9999)));
  model.emplace(1, Addr(9999));
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(store, t, model));
}

TEST(TTreeBuild, NonEmptySegmentRejected) {
  PlainEntityStore store;
  SegmentId seg = store.NewSegment();
  ASSERT_OK(TTree::Create(store, seg, kRelation, 4).status());
  EXPECT_TRUE(TTree::Build(store, seg, kRelation, RandomEntries(10, 1), 4)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      TTree::Create(store, seg, kRelation, 4).status().IsInvalidArgument());
  EXPECT_TRUE(
      TTree::Build(store, store.NewSegment(), kRelation, {}, 1)
          .status()
          .IsInvalidArgument());
}

TEST(TTreeBuild, EmptyBuildWritesOnlyTheMeta) {
  // A kMeta node whose payload is the u16 node capacity, the relation's
  // u32 segment and a null root ref.
  const std::vector<uint8_t> meta = node::SerializeMeta(
      testing::Bytes({10, 0, kRelation, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
  for (bool create : {false, true}) {
    CountingStore store;
    SegmentId seg = store.NewSegment();
    ASSERT_OK_AND_ASSIGN(TTree t,
                         create ? TTree::Create(store, seg, kRelation, 10)
                                : TTree::Build(store, seg, kRelation, {}, 10));
    ASSERT_EQ(store.inserts.size(), 1u);
    EXPECT_EQ(store.inserts.begin()->first, (EntityAddr{{seg, 0}, 0}));
    EXPECT_TRUE(store.updates.empty());
    ASSERT_OK_AND_ASSIGN(auto bytes, store.Read(t.meta_addr()));
    EXPECT_EQ(bytes, meta);
  }
}

TEST(TTreeBuild, ValuesOutsideTheRelationAreRejected) {
  PlainEntityStore store;
  SegmentId seg = store.NewSegment();
  ASSERT_OK_AND_ASSIGN(TTree t, TTree::Create(store, seg, kRelation, 4));
  const EntityAddr other{{kRelation + 1, 0}, 1};
  const EntityAddr wide{{kRelation, 0}, node::kMaxSlot + 1};
  EXPECT_TRUE(t.Insert(store, 1, other).IsInvalidArgument());
  EXPECT_TRUE(t.Insert(store, 1, wide).IsInvalidArgument());
  EXPECT_TRUE(t.Remove(store, 1, wide).IsInvalidArgument());
  const std::vector<node::Entry> entries = {{1, Addr(1)}, {2, other}};
  EXPECT_TRUE(TTree::Build(store, store.NewSegment(), kRelation, entries, 4)
                  .status()
                  .IsInvalidArgument());
  ASSERT_OK_AND_ASSIGN(TTree again, TTree::Attach(store, seg));
  EXPECT_EQ(again.relation(), kRelation);
}

TEST(TTreeDensityTest, HundredThousandKeysFitIn38Partitions) {
  // With 48 KiB partitions and capacity-10 nodes of 158 bytes (234 with
  // 12-byte addresses), the 10,000 nodes fill 34 partitions (50 before).
  PlainEntityStore store;
  SegmentId seg = store.NewSegment();
  std::vector<node::Entry> entries;
  for (uint32_t i = 0; i < 100'000; ++i) {
    entries.push_back({i, EntityAddr{{kRelation, i / 1000}, i % 1000}});
  }
  ASSERT_OK_AND_ASSIGN(TTree t, TTree::Build(store, seg, kRelation, entries));
  EXPECT_LE(store.pm().SegmentPartitions(seg).size(), 38u);
  ASSERT_OK_AND_ASSIGN(auto vals, t.Lookup(store, 54'321));
  const EntityAddr want{{kRelation, 54}, 321};
  EXPECT_EQ(vals, std::vector<EntityAddr>{want});
}

// --- damaged nodes -------------------------------------------------------------

/// A tree built over keys 0..99 in nodes of 4, and its leftmost path from
/// the root (read through the meta: a u16 capacity and the u32 relation
/// segment, then the root).
class TTreeDamageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seg_ = store_.NewSegment();
    std::vector<node::Entry> entries;
    for (uint32_t i = 0; i < 100; ++i) entries.push_back({i, Addr(i)});
    ASSERT_OK_AND_ASSIGN(TTree t,
                         TTree::Build(store_, seg_, kRelation, entries, 4));
    tree_.emplace(t);
    ASSERT_OK_AND_ASSIGN(auto meta, store_.Read(t.meta_addr()));
    ASSERT_OK_AND_ASSIGN(auto payload, node::ParseMeta(meta));
    EntityAddr a;
    ASSERT_TRUE(node::GetLink(payload, 6, seg_, &a));
    while (!a.IsNull()) {
      path_.push_back(a);
      ASSERT_OK_AND_ASSIGN(node::TTreeNode n, Node(a));
      a = n.left;
    }
    ASSERT_GE(path_.size(), 3u);
  }

  Result<node::TTreeNode> Node(const EntityAddr& a) {
    auto bytes = store_.Read(a);
    if (!bytes.ok()) return bytes.status();
    return node::TTreeNode::Parse(bytes.value(), {kRelation, seg_});
  }

  template <typename Edit>
  void EditNode(const EntityAddr& a, Edit edit) {
    ASSERT_OK_AND_ASSIGN(node::TTreeNode n, Node(a));
    edit(n);
    ASSERT_OK(store_.Update(a, n.Serialize()));
  }

  /// Every operation whose descent reaches the leftmost leaf (key 0, or
  /// key -5 below every entry) reports Corruption.
  void ExpectDescentsReportCorruption() {
    TTree& t = *tree_;
    EXPECT_TRUE(t.Lookup(store_, 0).status().IsCorruption());
    EXPECT_TRUE(t.Lookup(store_, -5).status().IsCorruption());
    EXPECT_TRUE(t.Range(store_, -10, 50).status().IsCorruption());
    EXPECT_TRUE(t.Size(store_).status().IsCorruption());
    EXPECT_TRUE(t.CheckInvariants(store_).IsCorruption());
    EXPECT_TRUE(t.Insert(store_, -5, Addr(500)).IsCorruption());
    EXPECT_TRUE(t.Remove(store_, -5, Addr(500)).IsCorruption());
  }

  PlainEntityStore store_;
  SegmentId seg_ = 0;
  std::optional<TTree> tree_;
  std::vector<EntityAddr> path_;  // root first
};

TEST_F(TTreeDamageTest, EmptyNodeOnADescentIsCorruption) {
  EditNode(path_.back(), [](node::TTreeNode& n) { n.entries.clear(); });
  ASSERT_NO_FATAL_FAILURE(ExpectDescentsReportCorruption());
  // An empty node inside the tree, with children below it.
  EditNode(path_[1], [](node::TTreeNode& n) { n.entries.clear(); });
  ASSERT_NO_FATAL_FAILURE(ExpectDescentsReportCorruption());
  // Descents that stay right of the damage still work.
  ASSERT_OK_AND_ASSIGN(auto vals, tree_->Lookup(store_, 99));
  EXPECT_EQ(vals, std::vector<EntityAddr>{Addr(99)});
}

TEST_F(TTreeDamageTest, ChildPointerThatLoopsIsCorruption) {
  // The leftmost leaf's left child points back at the root.
  EditNode(path_.back(), [&](node::TTreeNode& n) { n.left = path_.front(); });
  ASSERT_NO_FATAL_FAILURE(ExpectDescentsReportCorruption());
  // ... and at itself.
  EditNode(path_.back(), [&](node::TTreeNode& n) { n.left = path_.back(); });
  ASSERT_NO_FATAL_FAILURE(ExpectDescentsReportCorruption());
  // A child whose stored height matches its parent's loops as well as
  // far as a descent can tell.
  EditNode(path_.back(), [](node::TTreeNode& n) { n.left = {}; });
  ASSERT_OK_AND_ASSIGN(node::TTreeNode parent, Node(path_[path_.size() - 2]));
  EditNode(path_.back(), [&](node::TTreeNode& n) { n.height = parent.height; });
  ASSERT_NO_FATAL_FAILURE(ExpectDescentsReportCorruption());
}

struct TTreePropertyParam {
  uint64_t seed;
  uint16_t capacity;
  int operations;
};

class TTreePropertyTest
    : public ::testing::TestWithParam<TTreePropertyParam> {
 protected:
  /// Random inserts and removes against a multimap reference. With
  /// `bulk`, the reference first takes `operations / 2` random entries
  /// and the tree starts bulk-built over them.
  void Run(bool bulk) {
    const TTreePropertyParam param = GetParam();
    Random rng(param.seed);
    PlainEntityStore store;
    SegmentId seg = store.NewSegment();
    std::multimap<int64_t, EntityAddr> model;
    uint32_t next_addr = 0;
    std::vector<node::Entry> initial;
    if (bulk) {
      for (int i = 0; i < param.operations / 2; ++i) {
        initial.push_back({rng.UniformRange(-50, 50), Addr(next_addr++)});
        model.emplace(initial.back().key, initial.back().value);
      }
    }
    ASSERT_OK_AND_ASSIGN(TTree t,
                         TTree::Build(store, seg, kRelation, initial,
                                      param.capacity));

    for (int step = 0; step < param.operations; ++step) {
      int64_t key = rng.UniformRange(-50, 50);
      if (model.empty() || rng.Bernoulli(0.6)) {
        EntityAddr a = Addr(next_addr++);
        ASSERT_OK(t.Insert(store, key, a));
        model.emplace(key, a);
      } else {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        ASSERT_OK(t.Remove(store, it->first, it->second));
        model.erase(it);
      }
      if (step % 100 == 99) {
        ASSERT_OK(t.CheckInvariants(store));
        ASSERT_OK_AND_ASSIGN(size_t n, t.Size(store));
        ASSERT_EQ(n, model.size());
        // Spot-check a few keys.
        for (int64_t k = -50; k <= 50; k += 17) {
          ASSERT_OK_AND_ASSIGN(auto vals, t.Lookup(store, k));
          ASSERT_EQ(vals.size(), model.count(k)) << "key " << k;
        }
      }
    }
    // Full verification at the end via range scan.
    ASSERT_OK_AND_ASSIGN(auto all, t.Range(store, -100, 100));
    ASSERT_EQ(all.size(), model.size());
    auto it = model.begin();
    for (const node::Entry& e : all) {
      ASSERT_EQ(e.key, it->first);
      ++it;
    }
  }
};

TEST_P(TTreePropertyTest, MatchesMultimapReference) { Run(/*bulk=*/false); }

TEST_P(TTreePropertyTest, MatchesMultimapReferenceFromBulkBuild) {
  Run(/*bulk=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TTreePropertyTest,
    ::testing::Values(TTreePropertyParam{1, 2, 1500},
                      TTreePropertyParam{2, 4, 1500},
                      TTreePropertyParam{3, 10, 2000},
                      TTreePropertyParam{4, 31, 2000},
                      TTreePropertyParam{5, 4, 3000},
                      TTreePropertyParam{6, 8, 2500}));

}  // namespace
}  // namespace mmdb
