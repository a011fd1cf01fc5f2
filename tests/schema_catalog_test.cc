#include <gtest/gtest.h>

#include <limits>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "test_util.h"
#include "util/crc32.h"

namespace mmdb {
namespace {

constexpr uint32_t kPartitionBytes = 48 * 1024;
constexpr uint8_t kMutationMasks[] = {0x01, 0x04, 0x10, 0x80, 0xFF};

Schema AccountSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"balance", ColumnType::kInt64},
                 {"owner", ColumnType::kString}});
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema s = AccountSchema();
  Tuple t{int64_t{42}, int64_t{-100}, std::string("alice")};
  ASSERT_OK_AND_ASSIGN(auto bytes, s.Encode(t));
  ASSERT_OK_AND_ASSIGN(auto back, s.Decode(bytes));
  EXPECT_EQ(back, t);
}

TEST(SchemaTest, ValidateRejectsArityAndTypeMismatch) {
  Schema s = AccountSchema();
  EXPECT_TRUE(s.Validate(Tuple{int64_t{1}}).IsInvalidArgument());
  EXPECT_TRUE(
      s.Validate(Tuple{int64_t{1}, std::string("x"), std::string("y")})
          .IsInvalidArgument());
  EXPECT_OK(s.Validate(Tuple{int64_t{1}, int64_t{2}, std::string("y")}));
}

TEST(SchemaTest, DecodeRejectsTruncatedAndTrailing) {
  Schema s = AccountSchema();
  Tuple t{int64_t{1}, int64_t{2}, std::string("bob")};
  ASSERT_OK_AND_ASSIGN(auto bytes, s.Encode(t));
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 1);
  EXPECT_TRUE(s.Decode(truncated).status().IsCorruption());
  bytes.push_back(0);
  EXPECT_TRUE(s.Decode(bytes).status().IsCorruption());
}

TEST(SchemaTest, EmptyStringsAndExtremeValues) {
  Schema s({{"a", ColumnType::kString}, {"b", ColumnType::kInt64}});
  Tuple t{std::string(""), std::numeric_limits<int64_t>::min()};
  ASSERT_OK_AND_ASSIGN(auto bytes, s.Encode(t));
  ASSERT_OK_AND_ASSIGN(auto back, s.Decode(bytes));
  EXPECT_EQ(back, t);
}

TEST(SchemaTest, RoundTripsVarintExtremesAndStrings) {
  Schema s({{"a", ColumnType::kInt64}, {"b", ColumnType::kString}});
  const int64_t ints[] = {std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(), 0, 1, -1};
  const std::string strings[] = {"", "x", std::string(300, 'q'),
                                 std::string(40000, 'z')};
  for (int64_t v : ints) {
    for (const std::string& str : strings) {
      const Tuple t{v, str};
      ASSERT_OK_AND_ASSIGN(auto bytes, s.Encode(t));
      ASSERT_OK_AND_ASSIGN(RowKind kind, Schema::KindOf(bytes));
      EXPECT_EQ(kind, RowKind::kHome);
      ASSERT_OK_AND_ASSIGN(auto back, s.Decode(bytes));
      EXPECT_EQ(back, t);
      // A moved row differs from its home row in the kind byte only.
      bytes[0] = static_cast<uint8_t>(RowKind::kMoved);
      ASSERT_OK_AND_ASSIGN(kind, Schema::KindOf(bytes));
      EXPECT_EQ(kind, RowKind::kMoved);
      ASSERT_OK_AND_ASSIGN(back, s.Decode(bytes));
      EXPECT_EQ(back, t);
    }
  }
  // A varint takes one byte per started group of seven bits: INT64_MIN
  // and INT64_MAX zigzag to the two largest u64s, ten bytes each.
  ASSERT_OK_AND_ASSIGN(auto big,
                       s.Encode(Tuple{std::numeric_limits<int64_t>::min(),
                                      std::string(300, 'q')}));
  EXPECT_EQ(big.size(), 1u + 10u + 2u + 300u);
}

TEST(SchemaTest, Tp1RowIsSevenOrEightBytes) {
  Schema s({{"id", ColumnType::kInt64},
            {"balance", ColumnType::kInt64},
            {"branch", ColumnType::kInt64}});
  // Short rows are padded to a stub's length, so a home slot can always
  // take a stub in place.
  ASSERT_OK_AND_ASSIGN(auto small, s.Encode(Tuple{int64_t{0}, int64_t{0},
                                                  int64_t{0}}));
  EXPECT_EQ(small, (std::vector<uint8_t>{0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(Schema::kStubSize, 7u);
  for (int64_t id : {int64_t{1}, int64_t{8191}, int64_t{99999}}) {
    ASSERT_OK_AND_ASSIGN(auto row,
                         s.Encode(Tuple{id, int64_t{1000}, id % 97}));
    EXPECT_GE(row.size(), 7u);
    EXPECT_LE(row.size(), 8u);
  }
}

TEST(SchemaTest, MalformedRowsReadCorruption) {
  Schema s({{"a", ColumnType::kInt64}, {"b", ColumnType::kString}});
  auto corrupt = [&](std::vector<uint8_t> row) {
    return s.Decode(row).status().IsCorruption();
  };
  // Empty, and shorter than a stub.
  EXPECT_TRUE(corrupt({}));
  EXPECT_TRUE(corrupt({0, 0, 0}));
  // Unknown kinds.
  EXPECT_TRUE(corrupt({3, 0, 0, 0, 0, 0, 0}));
  EXPECT_TRUE(corrupt({0xFF, 0, 0, 0, 0, 0, 0}));
  EXPECT_TRUE(Schema::KindOf(std::vector<uint8_t>{9, 0, 0, 0, 0, 0, 0})
                  .status()
                  .IsCorruption());
  // A stub holds no tuple.
  EXPECT_TRUE(corrupt(Schema::EncodeStub({{5, 1}, 2})));
  // A varint truncated at the end of the row.
  EXPECT_TRUE(corrupt({0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}));
  // An overlong varint: eleven bytes, or a tenth byte above 1.
  std::vector<uint8_t> overlong{0};
  overlong.insert(overlong.end(), 10, 0x80);
  overlong.insert(overlong.end(), {0x00, 0x00});
  EXPECT_TRUE(corrupt(overlong));
  std::vector<uint8_t> tenth{0};
  tenth.insert(tenth.end(), 9, 0xFF);
  tenth.insert(tenth.end(), {0x02, 0x00});
  EXPECT_TRUE(corrupt(tenth));
  // A string that runs past the end.
  EXPECT_TRUE(corrupt({0, 0x02, 0x09, 'a', 'b', 'c', 'd'}));
  // Trailing bytes: non-zero padding, and bytes past the padded length.
  ASSERT_OK_AND_ASSIGN(auto row, s.Encode(Tuple{int64_t{1}, std::string()}));
  ASSERT_EQ(row.size(), 7u);
  EXPECT_OK(s.Decode(row).status());
  std::vector<uint8_t> dirty = row;
  dirty[6] = 1;
  EXPECT_TRUE(corrupt(dirty));
  std::vector<uint8_t> longer = row;
  longer.push_back(0);
  EXPECT_TRUE(corrupt(longer));
  ASSERT_OK_AND_ASSIGN(auto wide,
                       s.Encode(Tuple{int64_t{1}, std::string("abcdefgh")}));
  wide.push_back(0);
  EXPECT_TRUE(corrupt(wide));
}

TEST(SchemaTest, MutatedRowsDecodeOrReportCorruption) {
  Schema s({{"id", ColumnType::kInt64},
            {"owner", ColumnType::kString},
            {"balance", ColumnType::kInt64}});
  const Tuple tuples[] = {
      Tuple{int64_t{7}, std::string(), int64_t{0}},
      Tuple{int64_t{-123456789}, std::string("alice"), int64_t{1} << 62},
      Tuple{std::numeric_limits<int64_t>::max(), std::string(200, 'm'),
            std::numeric_limits<int64_t>::min()}};
  size_t decoded = 0;
  for (const Tuple& t : tuples) {
    ASSERT_OK_AND_ASSIGN(auto row, s.Encode(t));
    for (size_t i = 0; i < row.size(); ++i) {
      for (uint8_t mask : kMutationMasks) {
        std::vector<uint8_t> b = row;
        b[i] ^= mask;
        auto back = s.Decode(b);
        EXPECT_TRUE(back.ok() || back.status().IsCorruption())
            << "byte " << i << " mask " << int{mask};
        if (back.ok()) ++decoded;
      }
    }
    for (size_t len = 0; len < row.size(); ++len) {
      std::span<const uint8_t> cut(row.data(), len);
      EXPECT_TRUE(s.Decode(cut).status().IsCorruption()) << len;
    }
  }
  EXPECT_GT(decoded, 0u);  // a flipped value bit is still a tuple
}

TEST(SchemaTest, StubsRoundTripAndRejectOtherRows) {
  const EntityAddr target{{12, 0xFEDCBA98u}, 0xFFFF};
  const std::vector<uint8_t> stub = Schema::EncodeStub(target);
  ASSERT_EQ(stub.size(), Schema::kStubSize);
  ASSERT_OK_AND_ASSIGN(RowKind kind, Schema::KindOf(stub));
  EXPECT_EQ(kind, RowKind::kStub);
  ASSERT_OK_AND_ASSIGN(EntityAddr back, Schema::DecodeStub(stub, 12));
  EXPECT_EQ(back, target);
  std::vector<uint8_t> longer = stub;
  longer.push_back(0);
  EXPECT_TRUE(Schema::DecodeStub(longer, 12).status().IsCorruption());
  EXPECT_TRUE(Schema::DecodeStub(std::span<const uint8_t>(stub.data(), 6), 12)
                  .status()
                  .IsCorruption());
  ASSERT_OK_AND_ASSIGN(auto row, AccountSchema().Encode(
                                     Tuple{int64_t{1}, int64_t{2},
                                           std::string("bob")}));
  EXPECT_TRUE(Schema::DecodeStub(row, 12).status().IsCorruption());
}

TEST(SchemaTest, SerializeDeserializeSchema) {
  Schema s = AccountSchema();
  auto bytes = s.Serialize();
  size_t consumed = 0;
  ASSERT_OK_AND_ASSIGN(Schema back, Schema::Deserialize(bytes, &consumed));
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(back, s);
}

TEST(SchemaTest, FindColumn) {
  Schema s = AccountSchema();
  EXPECT_EQ(s.FindColumn("balance"), 1);
  EXPECT_EQ(s.FindColumn("nope"), -1);
}

TEST(WireTest, ReaderBoundsChecking) {
  std::vector<uint8_t> b;
  wire::PutU32(&b, 7);
  wire::Reader r(b);
  uint64_t v64;
  EXPECT_FALSE(r.GetU64(&v64));  // only 4 bytes available
  uint32_t v32;
  EXPECT_TRUE(r.GetU32(&v32));
  EXPECT_EQ(v32, 7u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(DiskAllocationMapTest, PseudoCircularAllocation) {
  DiskAllocationMap m(4, 6);
  ASSERT_OK_AND_ASSIGN(uint64_t s0, m.Allocate(100));
  ASSERT_OK_AND_ASSIGN(uint64_t s1, m.Allocate(101));
  EXPECT_EQ(s0, 0u);
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(m.SlotFirstPage(s1), 6u);
  ASSERT_OK(m.Free(s0));
  // Head is past slot 0, so allocation continues forward first.
  ASSERT_OK_AND_ASSIGN(uint64_t s2, m.Allocate(102));
  EXPECT_EQ(s2, 2u);
  ASSERT_OK_AND_ASSIGN(uint64_t s3, m.Allocate(103));
  EXPECT_EQ(s3, 3u);
  // Wraps around, skipping the still-used slots, to the freed slot 0.
  ASSERT_OK_AND_ASSIGN(uint64_t s4, m.Allocate(104));
  EXPECT_EQ(s4, 0u);
  EXPECT_TRUE(m.Allocate(105).status().IsFull());
}

TEST(DiskAllocationMapTest, FreeAndReclaimValidation) {
  DiskAllocationMap m(4, 6);
  EXPECT_TRUE(m.Free(9).IsInvalidArgument());
  EXPECT_TRUE(m.Free(1).IsInvalidArgument());  // not in use
  ASSERT_OK_AND_ASSIGN(uint64_t s, m.Allocate(42));
  ASSERT_OK(m.Free(s));
  ASSERT_OK(m.Reclaim(s, 42));
  EXPECT_EQ(m.owner(s), 42u);
  EXPECT_TRUE(m.Reclaim(s, 43).IsInvalidArgument());  // in use
}

TEST(DiskAllocationMapTest, ChunkSerializeApplyRoundTrip) {
  DiskAllocationMap m(600, 6);
  ASSERT_OK(m.Allocate(1).status());
  ASSERT_OK(m.Allocate(2).status());
  // Slot in the second chunk:
  for (int i = 0; i < 300; ++i) ASSERT_OK(m.Allocate(100 + i).status());
  EXPECT_EQ(m.num_chunks(), 3u);

  DiskAllocationMap rebuilt(600, 6);  // sized the way restart sizes it
  for (uint32_t c = 0; c < m.num_chunks(); ++c) {
    ASSERT_OK(rebuilt.ApplyChunk(m.SerializeChunk(c)));
  }
  EXPECT_EQ(rebuilt.num_slots(), 600u);
  EXPECT_EQ(rebuilt.free_count(), m.free_count());
  EXPECT_EQ(rebuilt.head(), m.head());
  for (uint64_t s = 0; s < 600; ++s) EXPECT_EQ(rebuilt.owner(s), m.owner(s));
}

TEST(CatalogTest, CreateAndLookupRelations) {
  Catalog c;
  ASSERT_OK_AND_ASSIGN(RelationInfo * r,
                       c.CreateRelation("acct", AccountSchema(), 2));
  EXPECT_EQ(r->id, 1u);
  EXPECT_TRUE(c.CreateRelation("acct", AccountSchema(), 3)
                  .status()
                  .IsInvalidArgument());
  ASSERT_OK_AND_ASSIGN(RelationInfo * got, c.GetRelation("acct"));
  EXPECT_EQ(got, r);
  ASSERT_OK_AND_ASSIGN(RelationInfo * by_id, c.GetRelationById(1));
  EXPECT_EQ(by_id, r);
  EXPECT_TRUE(c.GetRelation("other").status().IsNotFound());
}

TEST(CatalogTest, IndexesAttachToRelations) {
  Catalog c;
  ASSERT_OK(c.CreateRelation("acct", AccountSchema(), 2).status());
  ASSERT_OK_AND_ASSIGN(IndexInfo * idx,
                       c.CreateIndex("acct_id", 1, 0, IndexType::kTTree, 3));
  EXPECT_EQ(idx->segment, 3u);
  ASSERT_OK_AND_ASSIGN(RelationInfo * rel, c.GetRelation("acct"));
  ASSERT_EQ(rel->index_names.size(), 1u);
  EXPECT_EQ(rel->index_names[0], "acct_id");
  EXPECT_TRUE(c.CreateIndex("acct_id", 1, 0, IndexType::kLinearHash, 4)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      c.CreateIndex("x", 99, 0, IndexType::kTTree, 5).status().IsNotFound());
}

TEST(CatalogTest, DescriptorLookupBySegment) {
  Catalog c;
  ASSERT_OK_AND_ASSIGN(RelationInfo * rel,
                       c.CreateRelation("acct", AccountSchema(), 2));
  PartitionDescriptor d;
  d.id = {2, 0};
  rel->partitions.push_back(d);
  ASSERT_OK_AND_ASSIGN(PartitionDescriptor * found, c.FindDescriptor({2, 0}));
  EXPECT_EQ(found->id, (PartitionId{2, 0}));
  EXPECT_TRUE(c.FindDescriptor({2, 5}).status().IsNotFound());
  EXPECT_TRUE(c.FindDescriptor({9, 0}).status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(RelationInfo * owner, c.RelationOfSegment(2));
  EXPECT_EQ(owner, rel);

  // A catalog partition's descriptor comes from the root block: it is
  // found like any other, and stays non-resident until restart installs
  // its rebuilt partition.
  Catalog written;
  written.set_catalog_segment(1);
  PartitionDescriptor cd;
  cd.id = {1, 0};
  cd.checkpoint_page = 12;
  cd.checkpoint_slot = 2;
  ASSERT_OK_AND_ASSIGN(std::vector<PartitionDescriptor> * roots,
                       written.PartitionsOf(1));
  roots->push_back(cd);
  ASSERT_OK(c.LoadRoot(written.RootBlock(kPartitionBytes), kPartitionBytes));
  ASSERT_OK_AND_ASSIGN(PartitionDescriptor * loaded, c.FindDescriptor({1, 0}));
  EXPECT_EQ(loaded->checkpoint_page, 12u);
  EXPECT_FALSE(loaded->resident);
  ASSERT_OK_AND_ASSIGN(std::vector<PartitionDescriptor> * catalog_parts,
                       c.PartitionsOf(1));
  ASSERT_EQ(catalog_parts->size(), 1u);
  EXPECT_EQ(&catalog_parts->front(), loaded);

  // The walks: relations by name, each one's descriptors, then each of
  // its indexes' in index_names order (creation order, not name order).
  ASSERT_OK_AND_ASSIGN(RelationInfo * other,
                       c.CreateRelation("zeta", AccountSchema(), 5));
  ASSERT_OK_AND_ASSIGN(
      IndexInfo * second,
      c.CreateIndex("z_idx", rel->id, 0, IndexType::kTTree, 4));
  ASSERT_OK_AND_ASSIGN(
      IndexInfo * third,
      c.CreateIndex("a_idx", rel->id, 1, IndexType::kLinearHash, 3));
  auto add = [](std::vector<PartitionDescriptor>* list, PartitionId pid) {
    PartitionDescriptor pd;
    pd.id = pid;
    list->push_back(pd);
  };
  add(&rel->partitions, {2, 1});
  add(&second->partitions, {4, 0});
  add(&third->partitions, {3, 0});
  add(&third->partitions, {3, 1});
  add(&other->partitions, {5, 0});
  auto ids = [](const std::vector<const PartitionDescriptor*>& parts) {
    std::vector<PartitionId> out;
    for (const PartitionDescriptor* pd : parts) out.push_back(pd->id);
    return out;
  };
  const std::vector<PartitionId> acct = {
      {2, 0}, {2, 1}, {4, 0}, {3, 0}, {3, 1}};
  ASSERT_OK_AND_ASSIGN(auto acct_parts, c.RelationPartitions("acct"));
  EXPECT_EQ(ids(acct_parts), acct);
  std::vector<PartitionId> all = acct;
  all.push_back({5, 0});  // the catalog's own {1, 0} is not data
  EXPECT_EQ(ids(c.DataPartitions()), all);
  EXPECT_TRUE(c.RelationPartitions("nope").status().IsNotFound());
}

TEST(CatalogTest, RowSerializationRebuildRoundTrip) {
  Catalog c;
  ASSERT_OK_AND_ASSIGN(RelationInfo * rel,
                       c.CreateRelation("acct", AccountSchema(), 2));
  ASSERT_OK_AND_ASSIGN(
      IndexInfo * idx,
      c.CreateIndex("acct_id", rel->id, 0, IndexType::kLinearHash, 3));
  PartitionDescriptor d;
  d.id = {2, 0};
  d.checkpoint_page = 60;
  d.checkpoint_slot = 10;
  rel->partitions.push_back(d);
  PartitionDescriptor di;
  di.id = {3, 0};
  idx->partitions.push_back(di);

  DiskAllocationMap map(100, 6);
  ASSERT_OK(map.Allocate(d.id.Pack()).status());

  std::vector<std::pair<EntityAddr, std::vector<uint8_t>>> rows;
  rows.emplace_back(EntityAddr{{1, 0}, 0}, Catalog::SerializeRelationRow(*rel));
  rows.emplace_back(EntityAddr{{1, 0}, 1}, Catalog::SerializeIndexRow(*idx));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> rel_row, c.PartitionRow(d));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> idx_row, c.PartitionRow(di));
  rows.emplace_back(EntityAddr{{1, 0}, 2}, rel_row);
  rows.emplace_back(EntityAddr{{1, 0}, 3}, idx_row);
  rows.emplace_back(EntityAddr{{1, 0}, 4}, map.SerializeChunk(0));

  Catalog rebuilt;
  DiskAllocationMap rebuilt_map(100, 6);  // sized the way restart sizes it
  ASSERT_OK(rebuilt.Rebuild(rows, &rebuilt_map));

  ASSERT_OK_AND_ASSIGN(RelationInfo * r2, rebuilt.GetRelation("acct"));
  EXPECT_EQ(r2->id, rel->id);
  EXPECT_EQ(r2->schema, rel->schema);
  ASSERT_EQ(r2->partitions.size(), 1u);
  EXPECT_EQ(r2->partitions[0].checkpoint_page, 60u);
  EXPECT_FALSE(r2->partitions[0].resident);  // residency is volatile
  ASSERT_OK_AND_ASSIGN(IndexInfo * i2, rebuilt.GetIndex("acct_id"));
  EXPECT_EQ(i2->type, IndexType::kLinearHash);
  ASSERT_EQ(i2->partitions.size(), 1u);
  EXPECT_EQ(rebuilt_map.owner(0), d.id.Pack());
  EXPECT_EQ(rebuilt.next_relation_id(), rel->id + 1);
}

TEST(CatalogTest, RebuildRejectsUnknownIndexName) {
  Catalog c;
  ASSERT_OK_AND_ASSIGN(RelationInfo * rel,
                       c.CreateRelation("acct", AccountSchema(), 2));
  rel->index_names.push_back("ghost");  // no index row defines it
  std::vector<std::pair<EntityAddr, std::vector<uint8_t>>> rows;
  rows.emplace_back(EntityAddr{{1, 0}, 0}, Catalog::SerializeRelationRow(*rel));
  Catalog rebuilt;
  DiskAllocationMap map(100, 6);
  Status st = rebuilt.Rebuild(rows, &map);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

// Replaces a block's trailing CRC with the CRC of its (edited) body.
std::vector<uint8_t> Reseal(std::vector<uint8_t> block) {
  block.resize(block.size() - 4);
  uint32_t crc = Crc32(block.data(), block.size());
  wire::PutU32(&block, crc);
  return block;
}

Catalog RootCatalog() {
  Catalog c;
  c.set_catalog_segment(7);
  auto parts = c.PartitionsOf(7);
  for (uint32_t n = 0; n < 3; ++n) {
    PartitionDescriptor d;
    d.id = {7, n};
    if (n != 1) {  // partition 1 was never checkpointed
      d.checkpoint_page = 60 * n;
      d.checkpoint_slot = 10 * n;
    }
    parts.value()->push_back(d);
  }
  return c;
}

TEST(CatalogTest, RootBlockRoundTrip) {
  const Catalog c = RootCatalog();
  const std::vector<uint8_t> block = c.RootBlock(kPartitionBytes);

  Catalog loaded;
  ASSERT_OK(loaded.LoadRoot(block, kPartitionBytes));
  EXPECT_EQ(loaded.catalog_segment(), 7u);
  ASSERT_OK_AND_ASSIGN(std::vector<PartitionDescriptor> * parts,
                       loaded.PartitionsOf(7));
  ASSERT_EQ(parts->size(), 3u);
  for (uint32_t n = 0; n < 3; ++n) {
    const PartitionDescriptor& d = (*parts)[n];
    EXPECT_EQ(d.id, (PartitionId{7, n}));
    EXPECT_EQ(d.checkpoint_page, n == 1 ? kNoCheckpointPage : 60 * n);
    EXPECT_EQ(d.checkpoint_slot, n == 1 ? ~0ull : 10 * n);
    EXPECT_FALSE(d.resident);
  }
  EXPECT_EQ(loaded.RootBlock(kPartitionBytes), block);
  // Rebuilding the relations and indexes leaves the catalog's own
  // segment and descriptors alone.
  DiskAllocationMap map(100, 6);
  ASSERT_OK(loaded.Rebuild({}, &map));
  EXPECT_EQ(loaded.catalog_segment(), 7u);
  EXPECT_EQ(loaded.RootBlock(kPartitionBytes), block);

  auto expect_corruption = [](const std::vector<uint8_t>& b, uint32_t size) {
    Catalog fresh;
    Status st = fresh.LoadRoot(b, size);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_EQ(fresh.catalog_segment(), 0u);  // a failed load changes nothing
  };
  std::vector<uint8_t> flipped = block;
  flipped[13] ^= 0x04;
  expect_corruption(flipped, kPartitionBytes);
  std::vector<uint8_t> magic = block;
  magic[0] ^= 0xFF;
  expect_corruption(Reseal(magic), kPartitionBytes);
  std::vector<uint8_t> cut(block.begin(), block.end() - 12);
  expect_corruption(cut, kPartitionBytes);
  expect_corruption(Reseal(cut), kPartitionBytes);
  expect_corruption({}, kPartitionBytes);
  expect_corruption(block, 2 * kPartitionBytes);
}

TEST(CatalogTest, MutatedRootBlocksLoadOrReportCorruption) {
  const std::vector<uint8_t> block = RootCatalog().RootBlock(kPartitionBytes);
  size_t loaded = 0;
  for (size_t i = 0; i + 4 < block.size(); ++i) {
    for (uint8_t mask : kMutationMasks) {
      std::vector<uint8_t> b = block;
      b[i] ^= mask;
      Catalog c;
      // The checksum catches the damage as it is ...
      EXPECT_TRUE(c.LoadRoot(b, kPartitionBytes).IsCorruption()) << i;
      // ... and with the checksum recomputed, the decode behind it must
      // still load the block or report Corruption.
      Status st = c.LoadRoot(Reseal(b), kPartitionBytes);
      EXPECT_TRUE(st.ok() || st.IsCorruption())
          << "byte " << i << " mask " << int{mask} << ": " << st.ToString();
      if (st.ok()) ++loaded;
    }
  }
  EXPECT_GT(loaded, 0u);  // checkpoint pages and slots are free-form
}

TEST(CatalogTest, MutatedRowsRebuildOrReportCorruption) {
  Catalog c;
  ASSERT_OK_AND_ASSIGN(RelationInfo * rel,
                       c.CreateRelation("acct", AccountSchema(), 2));
  ASSERT_OK_AND_ASSIGN(
      IndexInfo * idx,
      c.CreateIndex("acct_id", rel->id, 0, IndexType::kLinearHash, 3));
  PartitionDescriptor d;
  d.id = {2, 0};
  d.checkpoint_page = 6;
  d.checkpoint_slot = 1;
  rel->partitions.push_back(d);
  PartitionDescriptor di;
  di.id = {3, 0};
  idx->partitions.push_back(di);
  DiskAllocationMap map(8, 6);
  ASSERT_OK(map.Allocate(di.id.Pack()).status());
  ASSERT_OK(map.Allocate(d.id.Pack()).status());

  std::vector<std::pair<EntityAddr, std::vector<uint8_t>>> rows;
  rows.emplace_back(EntityAddr{{1, 0}, 0}, Catalog::SerializeRelationRow(*rel));
  rows.emplace_back(EntityAddr{{1, 0}, 1}, Catalog::SerializeIndexRow(*idx));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> rel_row, c.PartitionRow(d));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> idx_row, c.PartitionRow(di));
  rows.emplace_back(EntityAddr{{1, 0}, 2}, rel_row);
  rows.emplace_back(EntityAddr{{1, 0}, 3}, idx_row);
  rows.emplace_back(EntityAddr{{1, 0}, 4}, map.SerializeChunk(0));
  {
    Catalog rebuilt;
    DiskAllocationMap rebuilt_map(8, 6);
    ASSERT_OK(rebuilt.Rebuild(rows, &rebuilt_map));
  }

  size_t corrupt = 0;
  for (size_t row = 0; row < rows.size(); ++row) {
    for (size_t i = 0; i < rows[row].second.size(); ++i) {
      for (uint8_t mask : kMutationMasks) {
        auto mutated = rows;
        mutated[row].second[i] ^= mask;
        Catalog rebuilt;
        // Restart sizes the map from the database's options.
        DiskAllocationMap rebuilt_map(8, 6);
        Status st = rebuilt.Rebuild(mutated, &rebuilt_map);
        EXPECT_TRUE(st.ok() || st.IsCorruption())
            << "row " << row << " byte " << i << " mask " << int{mask}
            << ": " << st.ToString();
        if (st.IsCorruption()) ++corrupt;
      }
    }
  }
  EXPECT_GT(corrupt, 0u);
}

TEST(CatalogTest, DropRelationRemovesIndexes) {
  Catalog c;
  ASSERT_OK(c.CreateRelation("acct", AccountSchema(), 2).status());
  ASSERT_OK(c.CreateIndex("i1", 1, 0, IndexType::kTTree, 3).status());
  ASSERT_OK(c.DropRelation("acct"));
  EXPECT_TRUE(c.GetRelation("acct").status().IsNotFound());
  EXPECT_TRUE(c.GetIndex("i1").status().IsNotFound());
}

}  // namespace
}  // namespace mmdb
