#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "index/node_format.h"
#include "test_util.h"

namespace mmdb::node {
namespace {

// Entries lie in the relation's segment, links in the index's own.
constexpr Segments kSegs{/*relation=*/9, /*index=*/4};

Entry E(int64_t k, uint32_t slot) {
  return Entry{k, {{kSegs.relation, 1}, slot}};
}

EntityAddr Link(uint32_t partition, uint32_t slot) {
  return {{kSegs.index, partition}, slot};
}

TEST(NodeFormatTest, CompactSizes) {
  // A ref is a u32 partition number and a u16 slot; the segment is left
  // out. An entry is an i64 key and a ref.
  EXPECT_EQ(kRefSize, 6u);
  EXPECT_EQ(kEntrySize, 14u);
  EXPECT_EQ(kCommonHeaderSize, 5u);
  HashNode h;
  h.capacity = 8;
  EXPECT_EQ(h.Serialize().size(), 123u);
  TTreeNode t;
  t.capacity = 10;
  EXPECT_EQ(t.Serialize().size(), 158u);
}

TEST(NodeFormatTest, TTreeSerializeParseRoundTrip) {
  TTreeNode n;
  n.capacity = 6;
  n.height = 3;
  n.left = Link(2, 3);
  n.right = Link(5, 6);
  n.entries = {E(-5, 0), E(0, 1), E(7, kMaxSlot)};
  auto bytes = n.Serialize();
  // Fixed full-capacity size.
  EXPECT_EQ(bytes.size(), kTTreeHeaderSize + 6 * kEntrySize);
  ASSERT_OK_AND_ASSIGN(TTreeNode back, TTreeNode::Parse(bytes, kSegs));
  EXPECT_EQ(back.capacity, n.capacity);
  EXPECT_EQ(back.height, n.height);
  EXPECT_EQ(back.left, n.left);
  EXPECT_EQ(back.right, n.right);
  EXPECT_EQ(back.entries, n.entries);
}

TEST(NodeFormatTest, HashSerializeParseRoundTrip) {
  HashNode n;
  n.capacity = 4;
  n.next = Link(8, 9);
  n.entries = {E(1, 0), E(1, 1)};
  auto bytes = n.Serialize();
  EXPECT_EQ(bytes.size(), kHashHeaderSize + 4 * kEntrySize);
  ASSERT_OK_AND_ASSIGN(HashNode back, HashNode::Parse(bytes, kSegs));
  EXPECT_EQ(back.next, n.next);
  EXPECT_EQ(back.entries, n.entries);
  // A null link stays null; a link into partition 0 does not.
  n.next = EntityAddr::Null();
  ASSERT_OK_AND_ASSIGN(back, HashNode::Parse(n.Serialize(), kSegs));
  EXPECT_TRUE(back.next.IsNull());
  n.next = Link(0, 1);
  ASSERT_OK_AND_ASSIGN(back, HashNode::Parse(n.Serialize(), kSegs));
  EXPECT_EQ(back.next, Link(0, 1));
}

TEST(NodeFormatTest, SerializedSizeIsCapacityInvariant) {
  // The whole point of padding: adding entries never changes the size.
  TTreeNode n;
  n.capacity = 8;
  auto empty_size = TTreeNode{{}, {}, 1, 8, {}}.Serialize().size();
  for (int i = 0; i < 8; ++i) {
    n.entries.push_back(E(i, i));
    EXPECT_EQ(n.Serialize().size(), empty_size);
  }
}

TEST(NodeFormatTest, KindDetection) {
  TTreeNode t;
  t.capacity = 2;
  HashNode h;
  h.capacity = 2;
  auto meta = SerializeMeta(testing::Bytes({1, 2, 3}));
  ASSERT_OK_AND_ASSIGN(NodeKind kt, KindOf(t.Serialize()));
  ASSERT_OK_AND_ASSIGN(NodeKind kh, KindOf(h.Serialize()));
  ASSERT_OK_AND_ASSIGN(NodeKind km, KindOf(meta));
  EXPECT_EQ(kt, NodeKind::kTTree);
  EXPECT_EQ(kh, NodeKind::kHashBucket);
  EXPECT_EQ(km, NodeKind::kMeta);
  EXPECT_TRUE(KindOf({}).status().IsCorruption());
  EXPECT_TRUE(KindOf(testing::Bytes({99})).status().IsCorruption());
  // Cross-parsing is rejected.
  EXPECT_TRUE(TTreeNode::Parse(h.Serialize(), kSegs).status().IsCorruption());
  EXPECT_TRUE(HashNode::Parse(t.Serialize(), kSegs).status().IsCorruption());
}

TEST(NodeFormatTest, MetaPayloadRoundTrip) {
  auto payload = testing::FilledBytes(100, 3);
  auto meta = SerializeMeta(payload);
  ASSERT_OK_AND_ASSIGN(auto back, ParseMeta(meta));
  EXPECT_EQ(back, payload);
  EXPECT_TRUE(ParseMeta(testing::Bytes({1})).status().IsCorruption());
}

TEST(NodeFormatTest, InsertEntryKeepsTTreeSorted) {
  TTreeNode n;
  n.capacity = 5;
  auto bytes = n.Serialize();
  for (int64_t k : {5, 1, 9, 3, 7}) {
    ASSERT_OK(InsertEntry(&bytes, E(k, static_cast<uint32_t>(k))));
  }
  ASSERT_OK_AND_ASSIGN(TTreeNode back, TTreeNode::Parse(bytes, kSegs));
  ASSERT_EQ(back.entries.size(), 5u);
  for (size_t i = 1; i < back.entries.size(); ++i) {
    EXPECT_LT(back.entries[i - 1].key, back.entries[i].key);
  }
  // Full node rejects further inserts.
  EXPECT_TRUE(InsertEntry(&bytes, E(100, 100)).IsFull());
}

TEST(NodeFormatTest, DuplicateKeysOrderedByValue) {
  TTreeNode n;
  n.capacity = 4;
  auto bytes = n.Serialize();
  ASSERT_OK(InsertEntry(&bytes, E(5, 30)));
  ASSERT_OK(InsertEntry(&bytes, E(5, 10)));
  ASSERT_OK(InsertEntry(&bytes, E(5, 20)));
  ASSERT_OK_AND_ASSIGN(TTreeNode back, TTreeNode::Parse(bytes, kSegs));
  EXPECT_EQ(back.entries[0].value.slot, 10u);
  EXPECT_EQ(back.entries[1].value.slot, 20u);
  EXPECT_EQ(back.entries[2].value.slot, 30u);
}

TEST(NodeFormatTest, RemoveEntryExactMatchOnly) {
  HashNode n;
  n.capacity = 4;
  auto bytes = n.Serialize();
  ASSERT_OK(InsertEntry(&bytes, E(1, 1)));
  ASSERT_OK(InsertEntry(&bytes, E(1, 2)));
  EXPECT_TRUE(RemoveEntry(&bytes, E(1, 3)).IsNotFound());
  ASSERT_OK(RemoveEntry(&bytes, E(1, 1)));
  ASSERT_OK_AND_ASSIGN(HashNode back, HashNode::Parse(bytes, kSegs));
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0].value.slot, 2u);
}

TEST(NodeFormatTest, EntryOpsMatchOnKeyPartitionAndSlot) {
  // The raw-byte ops know no segment: an entry names its value by
  // (partition, slot), so the segment a REDO record carries is not
  // compared.
  HashNode n;
  n.capacity = 4;
  auto bytes = n.Serialize();
  ASSERT_OK(InsertEntry(&bytes, E(1, 1)));
  Entry elsewhere = E(1, 1);
  elsewhere.value.partition.segment = 77;
  ASSERT_OK(RemoveEntry(&bytes, elsewhere));
  ASSERT_OK_AND_ASSIGN(HashNode back, HashNode::Parse(bytes, kSegs));
  EXPECT_TRUE(back.entries.empty());
}

TEST(NodeFormatTest, EntryOpSlotWiderThan16BitsIsCorruption) {
  // A slot a 16-bit ref cannot hold (a damaged REDO record) is refused
  // and leaves the node as it was.
  for (bool ttree : {false, true}) {
    SCOPED_TRACE(ttree ? "T-tree" : "hash");
    TTreeNode t;
    t.capacity = 4;
    HashNode h;
    h.capacity = 4;
    auto bytes = ttree ? t.Serialize() : h.Serialize();
    ASSERT_OK(InsertEntry(&bytes, E(1, kMaxSlot)));
    const auto before = bytes;
    EXPECT_TRUE(InsertEntry(&bytes, E(2, kMaxSlot + 1)).IsCorruption());
    EXPECT_TRUE(RemoveEntry(&bytes, E(1, kMaxSlot + 1)).IsCorruption());
    EXPECT_TRUE(RemoveEntry(&bytes, E(1, 0xFFFFFFFFu)).IsCorruption());
    EXPECT_EQ(bytes, before);
  }
}

TEST(NodeFormatTest, EntryOpsOnMetaRejected) {
  auto meta = SerializeMeta(testing::Bytes({1}));
  EXPECT_TRUE(InsertEntry(&meta, E(1, 1)).IsInvalidArgument());
  EXPECT_TRUE(RemoveEntry(&meta, E(1, 1)).IsInvalidArgument());
}

TEST(NodeFormatTest, CountAboveCapacityIsCorruption) {
  // A node re-serializes at its capacity's size, so one whose count reads
  // above its capacity would lose entries on its next entry op.
  TTreeNode t;
  t.capacity = 10;
  for (uint32_t i = 0; i < 10; ++i) t.entries.push_back(E(i, i));
  auto tb = t.Serialize();
  tb[3] = 2;  // capacity, low byte
  EXPECT_TRUE(TTreeNode::Parse(tb, kSegs).status().IsCorruption());
  auto before = tb;
  EXPECT_TRUE(RemoveEntry(&tb, E(0, 0)).IsCorruption());
  EXPECT_TRUE(InsertEntry(&tb, E(20, 20)).IsCorruption());
  EXPECT_EQ(tb, before);

  HashNode h;
  h.capacity = 8;
  for (uint32_t i = 0; i < 8; ++i) h.entries.push_back(E(i, i));
  auto hb = h.Serialize();
  hb[3] = 1;
  EXPECT_TRUE(HashNode::Parse(hb, kSegs).status().IsCorruption());
  EXPECT_TRUE(RemoveEntry(&hb, E(0, 0)).IsCorruption());

  // Count equal to capacity still parses.
  hb[3] = 8;
  ASSERT_OK_AND_ASSIGN(HashNode back, HashNode::Parse(hb, kSegs));
  EXPECT_EQ(back.entries, h.entries);
}

bool EntryLess(const Entry& a, const Entry& b) {
  return a.key != b.key ? a.key < b.key : a.value < b.value;
}

/// The entries of a T-tree or hash node image, sorted.
Result<std::vector<Entry>> SortedEntries(std::span<const uint8_t> bytes) {
  auto kind = KindOf(bytes);
  if (!kind.ok()) return kind.status();
  std::vector<Entry> out;
  if (kind.value() == NodeKind::kTTree) {
    auto n = TTreeNode::Parse(bytes, kSegs);
    if (!n.ok()) return n.status();
    out = n.value().entries;
  } else {
    auto n = HashNode::Parse(bytes, kSegs);
    if (!n.ok()) return n.status();
    out = n.value().entries;
  }
  std::sort(out.begin(), out.end(), EntryLess);
  return out;
}

/// A damaged image must be refused (Corruption, or InvalidArgument for
/// an entry op on a meta node, leaving the bytes as they were) or parse
/// to a node on which an insert adds only its entry and a remove takes
/// only its own.
void CheckMutatedImage(const std::vector<uint8_t>& img) {
  const Entry fresh = E(1000, 1000);
  auto kind = KindOf(img);
  if (!kind.ok()) {
    EXPECT_TRUE(kind.status().IsCorruption());
    return;
  }
  auto inserted = img;
  Status ins = InsertEntry(&inserted, fresh);
  auto removed = img;
  Status rm = RemoveEntry(&removed, fresh);
  if (kind.value() == NodeKind::kMeta) {
    EXPECT_TRUE(ins.IsInvalidArgument()) << ins.ToString();
    EXPECT_TRUE(rm.IsInvalidArgument()) << rm.ToString();
    EXPECT_EQ(inserted, img);
    EXPECT_EQ(removed, img);
    return;
  }
  auto before = SortedEntries(img);
  if (!before.ok()) {
    EXPECT_TRUE(before.status().IsCorruption()) << before.status().ToString();
    EXPECT_TRUE(ins.IsCorruption()) << ins.ToString();
    EXPECT_TRUE(rm.IsCorruption()) << rm.ToString();
    EXPECT_EQ(inserted, img);
    EXPECT_EQ(removed, img);
    return;
  }
  if (ins.ok()) {
    std::vector<Entry> want = before.value();
    want.insert(std::upper_bound(want.begin(), want.end(), fresh, EntryLess),
                fresh);
    auto after = SortedEntries(inserted);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(after.value(), want);
  } else {
    EXPECT_TRUE(ins.IsFull()) << ins.ToString();
    EXPECT_EQ(inserted, img);
  }
  EXPECT_TRUE(rm.IsNotFound()) << rm.ToString();
  for (const Entry& victim : before.value()) {
    removed = img;
    ASSERT_OK(RemoveEntry(&removed, victim));
    std::vector<Entry> want = before.value();
    want.erase(std::find(want.begin(), want.end(), victim));
    auto after = SortedEntries(removed);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(after.value(), want);
  }
}

TEST(NodeFormatTest, MutatedNodesParseOrReportCorruption) {
  // Capacities a mask can lower below the count: 12 ^ 0x04 = 8 < 10
  // entries, 5 ^ 0x04 = 1 < 4.
  TTreeNode t;
  t.capacity = 12;
  t.height = 2;
  t.left = Link(2, 3);
  t.right = Link(2, 4);
  for (uint32_t i = 0; i < 10; ++i) t.entries.push_back(E(i * 3, i));
  HashNode h;
  h.capacity = 5;
  h.next = Link(3, 1);
  for (uint32_t i = 0; i < 4; ++i) h.entries.push_back(E(7, i));
  // A T-tree meta: capacity, relation segment, root.
  std::vector<uint8_t> payload = {10, 0, kSegs.relation, 0, 0, 0};
  PutRef(&payload, Link(1, 5));
  const std::vector<std::vector<uint8_t>> images = {
      t.Serialize(), h.Serialize(), SerializeMeta(payload)};
  for (size_t which = 0; which < images.size(); ++which) {
    for (size_t i = 0; i < images[which].size(); ++i) {
      for (uint8_t mask : {0x01, 0x04, 0x10, 0x80, 0xFF}) {
        SCOPED_TRACE("image " + std::to_string(which) + " byte " +
                     std::to_string(i) + " mask " + std::to_string(mask));
        std::vector<uint8_t> img = images[which];
        img[i] ^= mask;
        ASSERT_NO_FATAL_FAILURE(CheckMutatedImage(img));
      }
    }
  }
}

TEST(NodeFormatTest, RefRoundTrip) {
  std::vector<uint8_t> buf;
  EntityAddr a{{kSegs.index, 0xDEADBEEF}, kMaxSlot};
  PutRef(&buf, a);
  ASSERT_EQ(buf.size(), kRefSize);
  EntityAddr back;
  ASSERT_TRUE(GetLink(buf, 0, kSegs.index, &back));
  EXPECT_EQ(back, a);
  EXPECT_FALSE(GetLink(buf, 1, kSegs.index, &back));  // out of bounds
  buf.clear();
  PutRef(&buf, EntityAddr::Null());
  ASSERT_TRUE(GetLink(buf, 0, kSegs.index, &back));
  EXPECT_TRUE(back.IsNull());

  ASSERT_OK(CheckValue(a, kSegs.index));
  EXPECT_TRUE(CheckValue(a, kSegs.relation).IsInvalidArgument());
  EXPECT_TRUE(CheckValue({{kSegs.index, 1}, kMaxSlot + 1}, kSegs.index)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace mmdb::node
