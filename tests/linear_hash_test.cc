#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "index/linear_hash.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

using testing::CountingStore;
using testing::PlainEntityStore;

/// The indexed relation's segment: every value lies in it.
constexpr SegmentId kRelation = 200;

EntityAddr Addr(uint32_t n) { return EntityAddr{{kRelation, 0}, n}; }

/// The meta's split state and relation segment: level, next, base
/// buckets, node capacity, max chain nodes, relation.
constexpr size_t kMetaFields = 4 + 4 + 4 + 2 + 4 + 4;

/// The segments a node of the index in `seg` leaves out.
node::Segments Segs(SegmentId seg) { return {kRelation, seg}; }

/// The head of `bucket`'s chain, read through the meta's segment table,
/// which follows the split state.
EntityAddr ChainHead(PlainEntityStore& store, const LinearHash& h,
                     uint32_t bucket) {
  EntityAddr seg, head;
  auto meta = store.Read(h.meta_addr());
  EXPECT_TRUE(meta.ok());
  EXPECT_TRUE(node::GetLink(meta.value(),
                            node::kCommonHeaderSize + kMetaFields +
                                bucket / LinearHash::kSegmentBuckets *
                                    node::kRefSize,
                            h.segment(), &seg));
  auto dir = store.Read(seg);
  EXPECT_TRUE(dir.ok());
  EXPECT_TRUE(node::GetLink(
      dir.value(),
      node::kCommonHeaderSize +
          bucket % LinearHash::kSegmentBuckets * node::kRefSize,
      h.segment(), &head));
  return head;
}

/// Rewrites the hash node at `addr` through `edit`.
template <typename Edit>
void EditNode(PlainEntityStore& store, const EntityAddr& addr, Edit edit) {
  ASSERT_OK_AND_ASSIGN(auto bytes, store.Read(addr));
  ASSERT_OK_AND_ASSIGN(
      node::HashNode n,
      node::HashNode::Parse(bytes, Segs(addr.partition.segment)));
  edit(n);
  ASSERT_OK(store.Update(addr, n.Serialize()));
}

class LinearHashTest : public ::testing::Test {
 protected:
  LinearHashTest() : seg_(store_.NewSegment()) {}

  LinearHash Make(uint32_t buckets = 4, uint16_t cap = 4,
                  uint32_t max_chain = 1) {
    auto h =
        LinearHash::Create(store_, seg_, kRelation, buckets, cap, max_chain);
    EXPECT_TRUE(h.ok()) << h.status().ToString();
    return h.value();
  }

  PlainEntityStore store_;
  SegmentId seg_;
};

TEST_F(LinearHashTest, CreateRejectsBadParams) {
  EXPECT_TRUE(LinearHash::Create(store_, seg_, kRelation, 0)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(LinearHashTest, EmptyLookupAndRemove) {
  LinearHash h = Make();
  ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, 1));
  EXPECT_TRUE(vals.empty());
  EXPECT_TRUE(h.Remove(store_, 1, Addr(0)).IsNotFound());
  ASSERT_OK(h.CheckInvariants(store_));
}

TEST_F(LinearHashTest, InsertLookupRemove) {
  LinearHash h = Make();
  ASSERT_OK(h.Insert(store_, 42, Addr(1)));
  ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, 42));
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0], Addr(1));
  ASSERT_OK(h.Remove(store_, 42, Addr(1)));
  ASSERT_OK_AND_ASSIGN(auto after, h.Lookup(store_, 42));
  EXPECT_TRUE(after.empty());
}

TEST_F(LinearHashTest, DuplicatesSupported) {
  LinearHash h = Make();
  for (uint32_t i = 0; i < 20; ++i) ASSERT_OK(h.Insert(store_, 9, Addr(i)));
  ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, 9));
  EXPECT_EQ(vals.size(), 20u);
  ASSERT_OK(h.Remove(store_, 9, Addr(7)));
  ASSERT_OK_AND_ASSIGN(auto after, h.Lookup(store_, 9));
  EXPECT_EQ(after.size(), 19u);
  ASSERT_OK(h.CheckInvariants(store_));
}

TEST_F(LinearHashTest, GrowthSplitsBuckets) {
  LinearHash h = Make(4, 4, 1);
  ASSERT_OK_AND_ASSIGN(uint32_t before, h.BucketCount(store_));
  EXPECT_EQ(before, 4u);
  for (int i = 0; i < 500; ++i) ASSERT_OK(h.Insert(store_, i, Addr(i)));
  ASSERT_OK_AND_ASSIGN(uint32_t after, h.BucketCount(store_));
  EXPECT_GT(after, before);
  ASSERT_OK(h.CheckInvariants(store_));
  ASSERT_OK_AND_ASSIGN(size_t n, h.Size(store_));
  EXPECT_EQ(n, 500u);
  for (int i = 0; i < 500; i += 41) {
    ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, i));
    ASSERT_EQ(vals.size(), 1u) << "key " << i;
    EXPECT_EQ(vals[0], Addr(i));
  }
}

TEST_F(LinearHashTest, RemoveExactPairOnly) {
  LinearHash h = Make();
  ASSERT_OK(h.Insert(store_, 5, Addr(1)));
  EXPECT_TRUE(h.Remove(store_, 5, Addr(2)).IsNotFound());
  ASSERT_OK(h.Remove(store_, 5, Addr(1)));
}

TEST_F(LinearHashTest, EmptiedNodesUnlinked) {
  LinearHash h = Make(2, 2, 8);  // long chains allowed
  for (int i = 0; i < 100; ++i) ASSERT_OK(h.Insert(store_, i, Addr(i)));
  for (int i = 0; i < 100; ++i) ASSERT_OK(h.Remove(store_, i, Addr(i)));
  ASSERT_OK_AND_ASSIGN(size_t n, h.Size(store_));
  EXPECT_EQ(n, 0u);
  ASSERT_OK(h.CheckInvariants(store_));
  // Still usable.
  ASSERT_OK(h.Insert(store_, 7, Addr(7)));
  ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, 7));
  EXPECT_EQ(vals.size(), 1u);
}

TEST_F(LinearHashTest, AttachSeesExistingIndex) {
  LinearHash h = Make();
  for (int i = 0; i < 50; ++i) ASSERT_OK(h.Insert(store_, i, Addr(i)));
  ASSERT_OK_AND_ASSIGN(LinearHash h2, LinearHash::Attach(store_, seg_));
  ASSERT_OK_AND_ASSIGN(auto vals, h2.Lookup(store_, 30));
  ASSERT_EQ(vals.size(), 1u);
}

TEST_F(LinearHashTest, DirectoryGrowsPastOneSegmentAndPartitionZero) {
  // One-entry nodes and one-node chains split on nearly every insert. The
  // directory ends up far past one segment and past the 48 KB a single
  // partition holds at 6 bytes per bucket head, which the nodes filling
  // partition 0 would leave no room for anyway.
  LinearHash h = Make(4, 1, 1);
  constexpr int kKeys = 12000;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_OK(h.Insert(store_, i, Addr(i)));
    if (i % 3000 == 2999) ASSERT_OK(h.CheckInvariants(store_));
  }
  ASSERT_OK_AND_ASSIGN(uint32_t buckets, h.BucketCount(store_));
  EXPECT_GT(buckets, 4 * LinearHash::kSegmentBuckets);
  EXPECT_GT(buckets * node::kRefSize, 48u * 1024);
  EXPECT_EQ(h.meta_addr(), (EntityAddr{{seg_, 0}, 0}));
  ASSERT_OK(h.CheckInvariants(store_));
  ASSERT_OK_AND_ASSIGN(size_t n, h.Size(store_));
  EXPECT_EQ(n, static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; i += 97) {
    ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, i));
    ASSERT_EQ(vals.size(), 1u) << "key " << i;
    EXPECT_EQ(vals[0], Addr(i));
  }
}

TEST_F(LinearHashTest, BuildSizesDirectoryAndPacksChains) {
  std::vector<node::Entry> entries;
  for (int i = 0; i < 1000; ++i) entries.push_back({i, Addr(i)});
  ASSERT_OK_AND_ASSIGN(
      LinearHash h,
      LinearHash::Build(store_, seg_, kRelation, entries, 4, 4, 2));
  // The smallest full round of 4 x 2^level buckets that holds
  // node_capacity x max_chain_nodes = 8 entries per bucket: 125 -> 128.
  ASSERT_OK_AND_ASSIGN(uint32_t buckets, h.BucketCount(store_));
  EXPECT_EQ(buckets, 128u);
  EXPECT_EQ(h.meta_addr(), (EntityAddr{{seg_, 0}, 0}));
  ASSERT_OK(h.CheckInvariants(store_));
  ASSERT_OK_AND_ASSIGN(size_t n, h.Size(store_));
  EXPECT_EQ(n, 1000u);
  // Packed chains: 1000 entries need at least 250 four-entry nodes, and
  // packing wastes less than one node per bucket.
  size_t nodes = 0;
  for (Partition* p : store_.pm().SegmentPartitions(seg_)) {
    nodes += p->live_count();
  }
  nodes -= 2;  // the meta and the one directory segment
  EXPECT_GE(nodes, 250u);
  EXPECT_LT(nodes, 250u + buckets);
}

TEST_F(LinearHashTest, BuildRejectsNonEmptySegment) {
  ASSERT_OK(store_.Insert(seg_, testing::Bytes({1})).status());
  EXPECT_TRUE(LinearHash::Build(store_, seg_, kRelation, {})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(LinearHashTest, BulkAndIncrementalBuildsAgreeOnEveryKey) {
  // Random keys with duplicates, built both ways in separate stores.
  Random rng(5);
  std::vector<node::Entry> entries;
  for (uint32_t i = 0; i < 3000; ++i) {
    entries.push_back({rng.UniformRange(-1500, 1500), Addr(i)});
  }
  ASSERT_OK_AND_ASSIGN(
      LinearHash bulk,
      LinearHash::Build(store_, seg_, kRelation, entries, 8, 4, 2));
  PlainEntityStore store2;
  SegmentId seg2 = store2.NewSegment();
  ASSERT_OK_AND_ASSIGN(LinearHash inc,
                       LinearHash::Create(store2, seg2, kRelation, 8, 4, 2));
  for (const node::Entry& e : entries) {
    ASSERT_OK(inc.Insert(store2, e.key, e.value));
  }
  ASSERT_OK(bulk.CheckInvariants(store_));
  ASSERT_OK(inc.CheckInvariants(store2));
  for (int64_t k = -1510; k <= 1510; ++k) {
    ASSERT_OK_AND_ASSIGN(auto a, bulk.Lookup(store_, k));
    ASSERT_OK_AND_ASSIGN(auto b, inc.Lookup(store2, k));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << "key " << k;
  }
  // The bulk-built index keeps growing and shrinking like any other.
  for (uint32_t i = 0; i < 500; ++i) {
    ASSERT_OK(bulk.Insert(store_, 5000 + i, Addr(10000 + i)));
  }
  ASSERT_OK(bulk.Remove(store_, entries[7].key, entries[7].value));
  ASSERT_OK(bulk.CheckInvariants(store_));
  ASSERT_OK_AND_ASSIGN(size_t n, bulk.Size(store_));
  EXPECT_EQ(n, 3499u);
}

TEST_F(LinearHashTest, AttachAfterBulkBuild) {
  std::vector<node::Entry> entries;
  for (int i = 0; i < 600; ++i) entries.push_back({i * 7, Addr(i)});
  ASSERT_OK(
      LinearHash::Build(store_, seg_, kRelation, entries, 8, 4, 2).status());
  ASSERT_OK_AND_ASSIGN(LinearHash h, LinearHash::Attach(store_, seg_));
  ASSERT_OK(h.CheckInvariants(store_));
  for (int i = 0; i < 600; i += 37) {
    ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, i * 7));
    ASSERT_EQ(vals.size(), 1u);
    EXPECT_EQ(vals[0], Addr(i));
  }
  ASSERT_OK(h.Insert(store_, -1, Addr(9999)));
  ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, -1));
  EXPECT_EQ(vals.size(), 1u);
}

TEST_F(LinearHashTest, DamagedMetaIsCorruption) {
  LinearHash h = Make();
  ASSERT_OK(h.Insert(store_, 1, Addr(1)));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> meta, store_.Read(h.meta_addr()));
  // The payload starts with the level (u32, little-endian); 40 is past
  // any split state the table can address.
  std::vector<uint8_t> bad = meta;
  bad[node::kCommonHeaderSize] = 40;
  ASSERT_OK(store_.Update(h.meta_addr(), bad));
  EXPECT_TRUE(LinearHash::Attach(store_, seg_).status().IsCorruption());
  EXPECT_TRUE(h.Lookup(store_, 1).status().IsCorruption());
  // Truncated.
  bad.assign(meta.begin(), meta.begin() + 20);
  ASSERT_OK(store_.Update(h.meta_addr(), bad));
  EXPECT_TRUE(LinearHash::Attach(store_, seg_).status().IsCorruption());
  // A null first segment-table entry (after the split state).
  bad = meta;
  std::fill_n(bad.begin() + node::kCommonHeaderSize + kMetaFields,
              node::kRefSize, 0);
  ASSERT_OK(store_.Update(h.meta_addr(), bad));
  EXPECT_TRUE(h.Lookup(store_, 1).status().IsCorruption());
  EXPECT_TRUE(h.CheckInvariants(store_).IsCorruption());
  ASSERT_OK(store_.Update(h.meta_addr(), meta));
  ASSERT_OK(h.CheckInvariants(store_));
}

TEST_F(LinearHashTest, ValuesOutsideTheRelationAreRejected) {
  LinearHash h = Make();
  const EntityAddr other{{kRelation + 1, 0}, 1};
  const EntityAddr wide{{kRelation, 0}, node::kMaxSlot + 1};
  EXPECT_TRUE(h.Insert(store_, 1, other).IsInvalidArgument());
  EXPECT_TRUE(h.Insert(store_, 1, wide).IsInvalidArgument());
  EXPECT_TRUE(h.Remove(store_, 1, other).IsInvalidArgument());
  PlainEntityStore store2;
  const std::vector<node::Entry> entries = {{1, Addr(1)}, {2, wide}};
  EXPECT_TRUE(LinearHash::Build(store2, store2.NewSegment(), kRelation,
                                entries)
                  .status()
                  .IsInvalidArgument());
  ASSERT_OK_AND_ASSIGN(LinearHash again, LinearHash::Attach(store_, seg_));
  EXPECT_EQ(again.relation(), kRelation);
}

TEST(LinearHashDensityTest, HundredThousandKeysFitIn40Partitions) {
  // With 48 KiB partitions and capacity-8 nodes of 123 bytes (178 with
  // 12-byte addresses), the index fills 37 partitions (52 before).
  PlainEntityStore store;
  SegmentId seg = store.NewSegment();
  std::vector<node::Entry> entries;
  for (uint32_t i = 0; i < 100'000; ++i) {
    entries.push_back({i, EntityAddr{{kRelation, i / 1000}, i % 1000}});
  }
  ASSERT_OK_AND_ASSIGN(LinearHash h,
                       LinearHash::Build(store, seg, kRelation, entries));
  ASSERT_OK_AND_ASSIGN(uint32_t buckets, h.BucketCount(store));
  EXPECT_EQ(buckets, 2048u);
  EXPECT_LE(store.pm().SegmentPartitions(seg).size(), 40u);
  ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store, 54'321));
  const EntityAddr want{{kRelation, 54}, 321};
  EXPECT_EQ(vals, std::vector<EntityAddr>{want});
}

TEST_F(LinearHashTest, NegativeKeys) {
  LinearHash h = Make();
  for (int i = -50; i < 0; ++i) ASSERT_OK(h.Insert(store_, i, Addr(-i)));
  for (int i = -50; i < 0; ++i) {
    ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, i));
    ASSERT_EQ(vals.size(), 1u);
  }
  ASSERT_OK(h.CheckInvariants(store_));
}

// --- ordered chains ----------------------------------------------------------

TEST(LinearHashOrderTest, LookupStopsAtTheFirstNodePastTheKey) {
  // One bucket: Build sorts keys 99..0 and packs them four to a node, so
  // node i holds keys 4i..4i+3.
  CountingStore store;
  SegmentId seg = store.NewSegment();
  std::vector<node::Entry> entries;
  for (uint32_t i = 100; i-- > 0;) entries.push_back({i, Addr(i)});
  ASSERT_OK_AND_ASSIGN(
      LinearHash h,
      LinearHash::Build(store, seg, kRelation, entries, 1, 4, 64));
  ASSERT_OK_AND_ASSIGN(uint32_t buckets, h.BucketCount(store));
  ASSERT_EQ(buckets, 1u);
  for (int64_t k = -1; k <= 100; ++k) {
    store.reads.clear();
    ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store, k));
    if (k >= 0 && k < 100) {
      ASSERT_EQ(vals, std::vector<EntityAddr>{Addr(static_cast<uint32_t>(k))});
    } else {
      ASSERT_TRUE(vals.empty()) << "key " << k;
    }
    // The meta, the segment, then nodes 0..(k + 1) / 4: the last of them
    // is the first whose last key exceeds k (or the tail).
    const int64_t nodes = std::min<int64_t>(25, (k + 1) / 4 + 1);
    int reads = 0;
    for (const auto& [addr, times] : store.reads) reads += times;
    EXPECT_EQ(reads, 2 + nodes) << "key " << k;
    EXPECT_EQ(store.reads[h.meta_addr()], 1);
  }
}

TEST(LinearHashOrderTest, AscendingKeysPackNodesAndInsertsSplitFullNodes) {
  PlainEntityStore store;
  SegmentId seg = store.NewSegment();
  ASSERT_OK_AND_ASSIGN(LinearHash h,
                       LinearHash::Create(store, seg, kRelation, 1, 4, 64));
  auto nodes = [&] {
    size_t live = 0;
    for (Partition* p : store.pm().SegmentPartitions(seg)) {
      live += p->live_count();
    }
    return live - 2;  // the meta and the one directory segment
  };
  // Past the tail, a full tail opens a new node: 100 even keys, 25 nodes.
  for (uint32_t i = 0; i < 100; ++i) ASSERT_OK(h.Insert(store, 2 * i, Addr(i)));
  EXPECT_EQ(nodes(), 25u);
  // Key 1 belongs in the full head {0, 2, 4, 6}: the head keeps {0, 1}
  // and {2, 4, 6} moves into a new node after it.
  ASSERT_OK(h.Insert(store, 1, Addr(1000)));
  EXPECT_EQ(nodes(), 26u);
  EntityAddr head = ChainHead(store, h, 0);
  ASSERT_OK_AND_ASSIGN(auto bytes, store.Read(head));
  ASSERT_OK_AND_ASSIGN(node::HashNode n,
                       node::HashNode::Parse(bytes, Segs(seg)));
  EXPECT_EQ(n.entries,
            (std::vector<node::Entry>{{0, Addr(0)}, {1, Addr(1000)}}));
  // Key 3 now fits in the second node, which has room.
  ASSERT_OK(h.Insert(store, 3, Addr(1001)));
  EXPECT_EQ(nodes(), 26u);
  ASSERT_OK(h.CheckInvariants(store));
  for (int64_t k = 0; k <= 8; ++k) {
    ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store, k));
    EXPECT_EQ(vals.size(), k % 2 == 0 || k < 4 ? 1u : 0u) << "key " << k;
  }
}

TEST_F(LinearHashTest, CheckInvariantsReportsEntriesOutOfOrder) {
  LinearHash h = Make(1, 4, 8);
  for (uint32_t i = 0; i < 8; ++i) ASSERT_OK(h.Insert(store_, i, Addr(i)));
  ASSERT_OK(h.CheckInvariants(store_));
  const EntityAddr head = ChainHead(store_, h, 0);
  ASSERT_OK_AND_ASSIGN(auto head_bytes, store_.Read(head));
  ASSERT_OK_AND_ASSIGN(node::HashNode first,
                       node::HashNode::Parse(head_bytes, Segs(seg_)));
  ASSERT_EQ(first.entries.size(), 4u);
  ASSERT_FALSE(first.next.IsNull());
  ASSERT_OK_AND_ASSIGN(auto next_bytes, store_.Read(first.next));

  // Two entries of one node swapped.
  EditNode(store_, head, [](node::HashNode& n) {
    std::swap(n.entries[1], n.entries[2]);
  });
  EXPECT_TRUE(h.CheckInvariants(store_).IsCorruption());
  ASSERT_OK(store_.Update(head, head_bytes));
  ASSERT_OK(h.CheckInvariants(store_));

  // Each node sorted, but the head's last entry past the next node's first.
  EditNode(store_, head,
           [](node::HashNode& n) { n.entries[3] = {4, Addr(4)}; });
  EditNode(store_, first.next,
           [](node::HashNode& n) { n.entries[0] = {3, Addr(3)}; });
  EXPECT_TRUE(h.CheckInvariants(store_).IsCorruption());
  ASSERT_OK(store_.Update(head, head_bytes));
  ASSERT_OK(store_.Update(first.next, next_bytes));
  ASSERT_OK(h.CheckInvariants(store_));
}

TEST_F(LinearHashTest, SelfLoopedChainIsCorruption) {
  // A node whose next pointer is its own address: every walk past its
  // entries would go round it forever.
  LinearHash h = Make(1, 4, 8);
  for (uint32_t i = 0; i < 3; ++i) ASSERT_OK(h.Insert(store_, i, Addr(i)));
  const EntityAddr head = ChainHead(store_, h, 0);
  EditNode(store_, head, [&](node::HashNode& n) { n.next = head; });
  EXPECT_TRUE(h.Lookup(store_, 10).status().IsCorruption());
  EXPECT_TRUE(h.Insert(store_, 10, Addr(10)).IsCorruption());
  EXPECT_TRUE(h.Remove(store_, 10, Addr(10)).IsCorruption());
  EXPECT_TRUE(h.CheckInvariants(store_).IsCorruption());
  // Entries before the loop are still reachable.
  ASSERT_OK_AND_ASSIGN(auto vals, h.Lookup(store_, 1));
  EXPECT_EQ(vals, std::vector<EntityAddr>{Addr(1)});
}

TEST_F(LinearHashTest, EmptyChainNodeIsCorruption) {
  LinearHash h = Make(1, 4, 8);
  for (uint32_t i = 0; i < 6; ++i) ASSERT_OK(h.Insert(store_, i, Addr(i)));
  EditNode(store_, ChainHead(store_, h, 0),
           [](node::HashNode& n) { n.entries.clear(); });
  EXPECT_TRUE(h.Lookup(store_, 5).status().IsCorruption());
  EXPECT_TRUE(h.Insert(store_, 9, Addr(9)).IsCorruption());
  EXPECT_TRUE(h.Remove(store_, 5, Addr(5)).IsCorruption());
  EXPECT_TRUE(h.CheckInvariants(store_).IsCorruption());
}

struct HashPropertyParam {
  uint64_t seed;
  uint32_t buckets;
  uint16_t node_capacity;
  uint32_t max_chain;
  int operations;
};

class LinearHashPropertyTest
    : public ::testing::TestWithParam<HashPropertyParam> {
 protected:
  using Reference = std::multimap<int64_t, EntityAddr>;

  /// Invariants, size, and the lookup of every key in [-41, 41], absent
  /// keys included: the values come back in value order.
  static void ExpectMatches(PlainEntityStore& store, const LinearHash& h,
                            const Reference& model) {
    ASSERT_OK(h.CheckInvariants(store));
    ASSERT_OK_AND_ASSIGN(size_t n, h.Size(store));
    ASSERT_EQ(n, model.size());
    for (int64_t k = -41; k <= 41; ++k) {
      std::vector<EntityAddr> want;
      for (auto [b, e] = model.equal_range(k); b != e; ++b) {
        want.push_back(b->second);
      }
      std::sort(want.begin(), want.end());
      ASSERT_OK_AND_ASSIGN(auto got, h.Lookup(store, k));
      ASSERT_EQ(got, want) << "key " << k;
    }
  }

  /// Random inserts and removes against a multimap reference. With
  /// `bulk`, the reference first takes `operations / 2` random entries
  /// and the index starts built over them.
  void Run(bool bulk) {
    const HashPropertyParam param = GetParam();
    Random rng(param.seed);
    PlainEntityStore store;
    SegmentId seg = store.NewSegment();
    Reference model;
    uint32_t next_addr = 0;
    std::vector<node::Entry> initial;
    if (bulk) {
      for (int i = 0; i < param.operations / 2; ++i) {
        initial.push_back({rng.UniformRange(-40, 40), Addr(next_addr++)});
        model.emplace(initial.back().key, initial.back().value);
      }
    }
    ASSERT_OK_AND_ASSIGN(
        LinearHash h,
        LinearHash::Build(store, seg, kRelation, initial, param.buckets,
                          param.node_capacity, param.max_chain));
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(store, h, model));

    for (int step = 0; step < param.operations; ++step) {
      int64_t key = rng.UniformRange(-40, 40);
      if (model.empty() || rng.Bernoulli(0.65)) {
        EntityAddr a = Addr(next_addr++);
        ASSERT_OK(h.Insert(store, key, a));
        model.emplace(key, a);
      } else {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        ASSERT_OK(h.Remove(store, it->first, it->second));
        model.erase(it);
      }
      if (step % 200 == 199) {
        ASSERT_NO_FATAL_FAILURE(ExpectMatches(store, h, model));
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(store, h, model));
  }
};

TEST_P(LinearHashPropertyTest, MatchesMultimapReference) {
  Run(/*bulk=*/false);
}

TEST_P(LinearHashPropertyTest, MatchesMultimapReferenceFromBulkBuild) {
  Run(/*bulk=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinearHashPropertyTest,
    ::testing::Values(HashPropertyParam{11, 2, 2, 1, 2000},
                      HashPropertyParam{12, 4, 4, 1, 2000},
                      HashPropertyParam{13, 8, 8, 2, 2500},
                      HashPropertyParam{14, 1, 3, 1, 1500},
                      HashPropertyParam{15, 16, 4, 3, 2500}));

}  // namespace
}  // namespace mmdb
