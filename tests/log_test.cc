#include <gtest/gtest.h>

#include "index/node_format.h"
#include "log/log_disk.h"
#include "log/log_record.h"
#include "log/slb.h"
#include "log/slt.h"
#include "sim/stable_memory.h"
#include "storage/partition.h"
#include "test_util.h"

namespace mmdb {
namespace {

LogRecord MakeInsert(uint64_t txn, PartitionId pid, uint32_t bin,
                     uint32_t slot, std::vector<uint8_t> data) {
  LogRecord r;
  r.op = LogOp::kInsert;
  r.bin_index = bin;
  r.txn_id = txn;
  r.partition = pid;
  r.slot = slot;
  r.data = std::move(data);
  return r;
}

LogRecord MakePatch(uint64_t txn, PartitionId pid, uint32_t bin,
                    uint32_t slot, uint16_t offset, std::vector<uint8_t> data) {
  LogRecord r = MakeInsert(txn, pid, bin, slot, std::move(data));
  r.op = LogOp::kPatch;
  r.offset = offset;
  return r;
}

TEST(LogRecordTest, SerializeParseRoundTripAllOps) {
  std::vector<LogRecord> recs;
  recs.push_back(MakeInsert(7, {1, 2}, 3, 4, testing::Bytes({9, 8, 7})));
  {
    LogRecord r;
    r.op = LogOp::kDelete;
    r.bin_index = 1;
    r.txn_id = 2;
    r.partition = {3, 4};
    r.slot = 5;
    recs.push_back(r);
  }
  {
    LogRecord r;
    r.op = LogOp::kUpdate;
    r.bin_index = 1;
    r.txn_id = 2;
    r.partition = {3, 4};
    r.slot = 5;
    r.data = testing::FilledBytes(100, 3);
    recs.push_back(r);
  }
  for (LogOp op : {LogOp::kNodeInsertEntry, LogOp::kNodeRemoveEntry}) {
    LogRecord r;
    r.op = op;
    r.bin_index = 9;
    r.txn_id = 10;
    r.partition = {11, 12};
    r.slot = 13;
    r.key = -42;
    r.child = EntityAddr{{14, 15}, 16};
    recs.push_back(r);
  }
  recs.push_back(MakePatch(17, {18, 19}, 20, 21, 300, testing::Bytes({6, 5})));
  // Every varint at its widest, and both ends of the zigzag key range.
  for (int64_t key : {INT64_MIN, INT64_MAX}) {
    LogRecord r;
    r.op = LogOp::kNodeRemoveEntry;
    r.bin_index = UINT32_MAX;
    r.txn_id = UINT64_MAX;
    r.partition = {UINT32_MAX, UINT32_MAX};
    r.slot = UINT32_MAX;
    r.key = key;
    r.child = EntityAddr{{UINT32_MAX, UINT32_MAX}, UINT32_MAX};
    recs.push_back(r);
  }
  recs.push_back(MakePatch(UINT64_MAX, {0, 0}, 0, 0, 0xFFFF - 2,
                           testing::Bytes({1, 2})));

  std::vector<uint8_t> buf;
  for (const LogRecord& r : recs) {
    size_t before = buf.size();
    r.AppendTo(&buf);
    EXPECT_EQ(buf.size() - before, r.SerializedSize());
  }
  wire::Reader reader(buf);
  for (const LogRecord& want : recs) {
    ASSERT_OK_AND_ASSIGN(LogRecord got, LogRecord::Parse(&reader));
    EXPECT_EQ(got.op, want.op);
    EXPECT_EQ(got.bin_index, want.bin_index);
    EXPECT_EQ(got.txn_id, want.txn_id);
    EXPECT_EQ(got.partition, want.partition);
    EXPECT_EQ(got.slot, want.slot);
    EXPECT_EQ(got.data, want.data);
    EXPECT_EQ(got.offset, want.offset);
    EXPECT_EQ(got.key, want.key);
    EXPECT_EQ(got.child, want.child);
  }
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(LogRecordTest, PatchIsHeaderPlusOffsetLengthAndSpan) {
  // The op byte, five one-byte header varints, a one-byte offset and
  // length, and the span.
  LogRecord r = MakePatch(1, {2, 3}, 4, 5, 7, testing::Bytes({1, 2, 3}));
  std::vector<uint8_t> buf;
  r.AppendTo(&buf);
  ASSERT_EQ(r.SerializedSize(), 1u + 5 + 2 + 3);
  ASSERT_EQ(buf.size(), r.SerializedSize());
  wire::Reader whole(buf);
  ASSERT_OK_AND_ASSIGN(LogRecord got, LogRecord::Parse(&whole));
  EXPECT_EQ(got.offset, 7u);
  const PartitionId part{2, 3};
  EXPECT_EQ(got.ToString(), "PATCH txn=1 part=" + part.ToString() + " slot=5");

  // Every proper prefix parses as Corruption.
  const std::span<const uint8_t> bytes(buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    wire::Reader reader(bytes.first(cut));
    EXPECT_TRUE(LogRecord::Parse(&reader).status().IsCorruption())
        << "cut " << cut;
  }
}

TEST(WireVarintTest, RoundTripsAtEveryWidth) {
  std::vector<uint64_t> values = {0, UINT32_MAX, UINT64_MAX};
  for (int k = 1; k <= 9; ++k) {
    values.push_back((uint64_t{1} << (7 * k)) - 1);
    values.push_back(uint64_t{1} << (7 * k));
  }
  for (uint64_t v : values) {
    std::vector<uint8_t> buf;
    wire::PutVarint(&buf, v);
    EXPECT_EQ(buf.size(), wire::VarintSize(v)) << v;
    wire::Reader r(buf);
    uint64_t got = 0;
    ASSERT_TRUE(r.GetVarint(&got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_EQ(r.remaining(), 0u);
  }
  EXPECT_EQ(wire::VarintSize(127), 1u);
  EXPECT_EQ(wire::VarintSize(128), 2u);
  EXPECT_EQ(wire::VarintSize(UINT64_MAX), 10u);
  EXPECT_EQ(wire::ZigZag(0), 0u);
  EXPECT_EQ(wire::ZigZag(-1), 1u);
  EXPECT_EQ(wire::ZigZag(1), 2u);
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-64},
                    int64_t{64}, INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(wire::UnZigZag(wire::ZigZag(v)), v);
  }
}

// A kPatch record with every integer field given as raw varint bytes, and
// `payload` zero bytes after them.
std::vector<uint8_t> RawPatch(std::vector<std::vector<uint8_t>> fields,
                              size_t payload) {
  std::vector<uint8_t> out = {static_cast<uint8_t>(LogOp::kPatch)};
  for (const auto& f : fields) out.insert(out.end(), f.begin(), f.end());
  out.resize(out.size() + payload, 0);
  return out;
}

std::vector<uint8_t> Varint(uint64_t v) {
  std::vector<uint8_t> out;
  wire::PutVarint(&out, v);
  return out;
}

Status ParseOne(const std::vector<uint8_t>& bytes) {
  wire::Reader r(bytes);
  return LogRecord::Parse(&r).status();
}

TEST(LogRecordTest, MalformedVarintsAreCorruption) {
  // Fields: bin, txn, segment, partition number, slot, offset, length.
  const auto fields = [](size_t i, std::vector<uint8_t> v) {
    std::vector<std::vector<uint8_t>> f = {Varint(1), Varint(2), Varint(3),
                                           Varint(4), Varint(5), Varint(6),
                                           Varint(2)};
    f[i] = std::move(v);
    return f;
  };
  ASSERT_OK(ParseOne(RawPatch(fields(0, Varint(1)), 2)));

  // A varint whose continuation bit runs past the end of the buffer, and
  // one whose continuation bit swallows the next field, leaving the
  // record short.
  EXPECT_TRUE(ParseOne({static_cast<uint8_t>(LogOp::kDelete), 0x81, 0x80})
                  .IsCorruption());
  EXPECT_TRUE(ParseOne(RawPatch(fields(4, {0x80}), 0)).IsCorruption());

  // Ten bytes is the widest u64; an eleventh, or a tenth byte above 1,
  // is Corruption.
  const std::vector<uint8_t> widest = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                       0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  ASSERT_OK(ParseOne(RawPatch(fields(1, widest), 2)));
  std::vector<uint8_t> eleven(10, 0x80);
  eleven.push_back(0x00);
  EXPECT_TRUE(ParseOne(RawPatch(fields(1, eleven), 2)).IsCorruption());
  std::vector<uint8_t> overflow = widest;
  overflow.back() = 0x02;
  EXPECT_TRUE(ParseOne(RawPatch(fields(1, overflow), 2)).IsCorruption());

  // The u32 ids: bin, segment, partition number and slot.
  for (size_t i : {0, 2, 3, 4}) {
    SCOPED_TRACE(i);
    ASSERT_OK(ParseOne(RawPatch(fields(i, Varint(UINT32_MAX)), 2)));
    EXPECT_TRUE(ParseOne(RawPatch(fields(i, Varint(uint64_t{1} << 32)), 2))
                    .IsCorruption());
  }
  // The u16 offset and length, each with its full payload present.
  ASSERT_OK(ParseOne(RawPatch(fields(5, Varint(0xFFFF)), 2)));
  EXPECT_TRUE(
      ParseOne(RawPatch(fields(5, Varint(0x10000)), 2)).IsCorruption());
  ASSERT_OK(ParseOne(RawPatch(fields(6, Varint(0xFFFF)), 0xFFFF)));
  EXPECT_TRUE(ParseOne(RawPatch(fields(6, Varint(0x10000)), 0x10000))
                  .IsCorruption());
  // A kInsert's length is the field after the header.
  std::vector<uint8_t> insert = RawPatch(fields(5, Varint(0x10000)), 0x10000);
  insert[0] = static_cast<uint8_t>(LogOp::kInsert);
  EXPECT_TRUE(ParseOne(insert).IsCorruption());

  // An index entry's child address holds u32 ids too.
  const auto node = [](uint64_t child_slot) {
    std::vector<uint8_t> out = {
        static_cast<uint8_t>(LogOp::kNodeInsertEntry)};
    // Header, zigzag(key), child segment and number.
    for (uint64_t v : {1, 2, 3, 4, 5, 6, 7, 8}) wire::PutVarint(&out, v);
    wire::PutVarint(&out, child_slot);
    return out;
  };
  ASSERT_OK(ParseOne(node(UINT32_MAX)));
  EXPECT_TRUE(ParseOne(node(uint64_t{1} << 32)).IsCorruption());

  // The multi-stream frame: epoch is a u32, csn a u64.
  std::vector<uint8_t> record;
  MakeInsert(1, {1, 2}, 3, 4, {}).AppendTo(&record);
  const auto framed = [&record](std::vector<uint8_t> epoch,
                                std::vector<uint8_t> csn) {
    std::vector<uint8_t> s = std::move(epoch);
    s.insert(s.end(), csn.begin(), csn.end());
    s.insert(s.end(), record.begin(), record.end());
    std::vector<LogRecord> out;
    return ParseLogStream(s, &out, /*with_epoch=*/true);
  };
  ASSERT_OK(framed(Varint(UINT32_MAX), widest));
  EXPECT_TRUE(framed(Varint(uint64_t{1} << 32), Varint(1)).IsCorruption());
  EXPECT_TRUE(framed(Varint(1), eleven).IsCorruption());
}

TEST(LogRecordTest, InsertAtAnUnfittableSlotIsFull) {
  // A damaged slot number from the log must not grow the directory past
  // the partition.
  Partition p({1, 2}, 4096, 0);
  const std::vector<uint8_t> before = p.image();
  EXPECT_TRUE(
      ApplyLogRecord(MakeInsert(1, {1, 2}, 0, 1u << 29, testing::Bytes({1})),
                     &p)
          .IsFull());
  EXPECT_EQ(p.image(), before);
}

TEST(LogRecordTest, PatchPastItsEntityIsCorruption) {
  Partition p({1, 2}, 8192, 0);
  ASSERT_OK(ApplyLogRecord(
      MakeInsert(1, {1, 2}, 0, 0, testing::Bytes({1, 2, 3, 4})), &p));
  ASSERT_OK(ApplyLogRecord(
      MakePatch(2, {1, 2}, 0, 0, 2, testing::Bytes({8, 9})), &p));
  ASSERT_OK_AND_ASSIGN(auto bytes, p.Read(0));
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()),
            testing::Bytes({1, 2, 8, 9}));
  EXPECT_TRUE(
      ApplyLogRecord(MakePatch(3, {1, 2}, 0, 0, 3, testing::Bytes({1, 1})), &p)
          .IsCorruption());
  EXPECT_TRUE(
      ApplyLogRecord(MakePatch(3, {1, 2}, 0, 0, 5, {}), &p).IsCorruption());
  EXPECT_TRUE(
      ApplyLogRecord(MakePatch(3, {1, 2}, 0, 1, 0, testing::Bytes({1})), &p)
          .IsNotFound());
  ASSERT_OK_AND_ASSIGN(bytes, p.Read(0));
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()),
            testing::Bytes({1, 2, 8, 9}));

  // Its UNDO is the full pre-image.
  LogRecord patch = MakePatch(4, {1, 2}, 0, 0, 0, testing::Bytes({7}));
  LogRecord undo = MakeUndo(patch, testing::Bytes({1, 2, 8, 9}));
  EXPECT_EQ(undo.op, LogOp::kUpdate);
  ASSERT_OK(ApplyLogRecord(patch, &p));
  ASSERT_OK(ApplyLogRecord(undo, &p));
  ASSERT_OK_AND_ASSIGN(bytes, p.Read(0));
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()),
            testing::Bytes({1, 2, 8, 9}));
}

TEST(LogRecordTest, MutatedStreamsParseOrReportCorruption) {
  // One record of each op, in the single-stream and the epoch-framed
  // format. Flipping any bits of any byte, or cutting the stream short,
  // yields OK or Corruption — never a crash or an out-of-bounds read.
  // Every record a damaged stream still yields is applied to a scratch
  // partition, as recovery would: each apply returns a Status, OK or not.
  std::vector<LogRecord> recs;
  recs.push_back(MakeInsert(1, {1, 2}, 3, 4, testing::FilledBytes(9, 1)));
  recs.push_back(MakeInsert(2, {1, 2}, 3, 5, {}));
  recs.back().op = LogOp::kDelete;
  recs.push_back(MakeInsert(3, {1, 2}, 3, 6, testing::FilledBytes(12, 2)));
  recs.back().op = LogOp::kUpdate;
  for (LogOp op : {LogOp::kNodeInsertEntry, LogOp::kNodeRemoveEntry}) {
    recs.push_back(MakeInsert(4, {1, 2}, 3, 7, {}));
    recs.back().op = op;
    recs.back().key = 77;
    recs.back().child = EntityAddr{{5, 6}, 8};
  }
  recs.push_back(MakePatch(5, {1, 2}, 3, 4, 3, testing::Bytes({4, 5, 6})));

  // The partition the records were logged against: slot 4 free for the
  // insert and the patch, entities at 5 and 6 to delete and update, and
  // an empty hash node at 7 for the entry ops.
  Partition base({1, 2}, 4096, 0);
  ASSERT_OK(base.InsertAt(5, testing::FilledBytes(4, 3)));
  ASSERT_OK(base.InsertAt(6, testing::FilledBytes(12, 4)));
  node::HashNode bucket;
  bucket.capacity = 4;
  ASSERT_OK(base.InsertAt(7, bucket.Serialize()));
  size_t applied_ok = 0;
  const auto apply_all = [&](const std::vector<LogRecord>& records) {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Partition> scratch,
                         Partition::FromImage(base.image()));
    for (const LogRecord& rec : records) {
      if (ApplyLogRecord(rec, scratch.get()).ok()) ++applied_ok;
    }
  };

  for (bool with_epoch : {false, true}) {
    SCOPED_TRACE(with_epoch ? "epoch frames" : "single stream");
    std::vector<uint8_t> stream;
    for (const LogRecord& r : recs) {
      if (with_epoch) r.AppendEpochFrame(&stream);
      r.AppendTo(&stream);
    }
    std::vector<LogRecord> parsed;
    ASSERT_OK(ParseLogStream(stream, &parsed, with_epoch));
    ASSERT_EQ(parsed.size(), recs.size());
    applied_ok = 0;
    apply_all(parsed);
    ASSERT_EQ(applied_ok, recs.size());
    size_t corrupt = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      for (uint8_t mask : {0x01, 0x04, 0x10, 0x80, 0xFF}) {
        std::vector<uint8_t> bad = stream;
        bad[i] ^= mask;
        parsed.clear();
        Status st = ParseLogStream(bad, &parsed, with_epoch);
        ASSERT_TRUE(st.ok() || st.IsCorruption())
            << "byte " << i << " mask " << int{mask} << ": " << st.ToString();
        if (!st.ok()) ++corrupt;
        apply_all(parsed);
      }
      parsed.clear();
      Status st = ParseLogStream(std::span<const uint8_t>(stream).first(i),
                                 &parsed, with_epoch);
      ASSERT_TRUE(st.ok() || st.IsCorruption()) << "cut " << i;
      apply_all(parsed);
    }
    EXPECT_GT(corrupt, 0u);
  }
}

TEST(LogRecordTest, ParseRejectsGarbage) {
  std::vector<uint8_t> buf = {0xFF, 0x00};
  wire::Reader r(buf);
  EXPECT_TRUE(LogRecord::Parse(&r).status().IsCorruption());
}

TEST(LogRecordTest, ApplyAndUndoAreInverses) {
  Partition p({1, 2}, 8192, 0);
  LogRecord ins = MakeInsert(1, {1, 2}, 0, 0, testing::Bytes({5, 5}));
  ASSERT_OK(ApplyLogRecord(ins, &p));
  ASSERT_TRUE(p.SlotUsed(0));

  LogRecord undo_ins = MakeUndo(ins, {});
  ASSERT_OK(ApplyLogRecord(undo_ins, &p));
  EXPECT_FALSE(p.SlotUsed(0));

  // Update + its undo restore the pre-image.
  ASSERT_OK(ApplyLogRecord(ins, &p));
  LogRecord upd = ins;
  upd.op = LogOp::kUpdate;
  upd.data = testing::Bytes({7, 7, 7});
  LogRecord undo_upd = MakeUndo(upd, testing::Bytes({5, 5}));
  ASSERT_OK(ApplyLogRecord(upd, &p));
  ASSERT_OK(ApplyLogRecord(undo_upd, &p));
  ASSERT_OK_AND_ASSIGN(auto bytes, p.Read(0));
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()),
            testing::Bytes({5, 5}));

  // Delete + undo(delete) restore the entity.
  LogRecord del = ins;
  del.op = LogOp::kDelete;
  del.data.clear();
  LogRecord undo_del = MakeUndo(del, testing::Bytes({5, 5}));
  ASSERT_OK(ApplyLogRecord(del, &p));
  EXPECT_FALSE(p.SlotUsed(0));
  ASSERT_OK(ApplyLogRecord(undo_del, &p));
  EXPECT_TRUE(p.SlotUsed(0));
}

TEST(LogRecordTest, ApplyToWrongPartitionRejected) {
  Partition p({9, 9}, 8192, 0);
  LogRecord ins = MakeInsert(1, {1, 2}, 0, 0, testing::Bytes({5}));
  EXPECT_TRUE(ApplyLogRecord(ins, &p).IsInvalidArgument());
}

TEST(LogRecordTest, IndexEntryWithASlotWiderThan16BitsIsCorruption) {
  // The record carries a u32 slot; an index node stores 16 bits of it.
  // A wider one (a damaged record) reads as Corruption and leaves the
  // node as it was, on insert and remove alike.
  Partition p({1, 2}, 4096, 0);
  node::HashNode bucket;
  bucket.capacity = 4;
  ASSERT_OK(p.InsertAt(7, bucket.Serialize()));
  LogRecord rec = MakeInsert(4, {1, 2}, 3, 7, {});
  rec.op = LogOp::kNodeInsertEntry;
  rec.key = 77;
  rec.child = EntityAddr{{5, 6}, node::kMaxSlot};
  ASSERT_OK(ApplyLogRecord(rec, &p));
  const std::vector<uint8_t> before(p.image());
  for (LogOp op : {LogOp::kNodeInsertEntry, LogOp::kNodeRemoveEntry}) {
    LogRecord wide = rec;
    wide.op = op;
    wide.child.slot = node::kMaxSlot + 1;
    EXPECT_TRUE(ApplyLogRecord(wide, &p).IsCorruption());
    EXPECT_EQ(p.image(), before);
  }
  ASSERT_OK(ApplyLogRecord(MakeUndo(rec, {}), &p));
}

class SlbTest : public ::testing::Test {
 protected:
  SlbTest()
      : meter_(1 << 20),
        slb_(StableLogBuffer::Config{256, 1 << 20}, &meter_) {}

  sim::StableMemoryMeter meter_;
  StableLogBuffer slb_;
};

TEST_F(SlbTest, CommitOrderPreserved) {
  // T1 and T2 interleave appends; T2 commits first, so its records come
  // out first.
  ASSERT_OK(slb_.Append(1, MakeInsert(1, {1, 0}, 0, 0, {})));
  ASSERT_OK(slb_.Append(2, MakeInsert(2, {1, 0}, 0, 1, {})));
  ASSERT_OK(slb_.Append(1, MakeInsert(1, {1, 0}, 0, 2, {})));
  ASSERT_OK(slb_.Commit(2));
  ASSERT_OK(slb_.Commit(1));
  std::vector<uint64_t> order;
  while (slb_.HasCommittedRecords()) {
    ASSERT_OK_AND_ASSIGN(LogRecord r, slb_.PopCommitted());
    order.push_back(r.txn_id * 10 + r.slot);
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{21, 10, 12}));
}

TEST_F(SlbTest, DiscardDropsUncommittedRecords) {
  ASSERT_OK(slb_.Append(1, MakeInsert(1, {1, 0}, 0, 0, {})));
  uint64_t allocated = meter_.allocated_bytes();
  EXPECT_GT(allocated, 0u);
  ASSERT_OK(slb_.Discard(1));
  EXPECT_EQ(meter_.allocated_bytes(), 0u);
  EXPECT_FALSE(slb_.HasCommittedRecords());
}

TEST_F(SlbTest, ReadOnlyCommitIsNoop) {
  ASSERT_OK(slb_.Commit(42));
  EXPECT_FALSE(slb_.HasCommittedRecords());
}

TEST_F(SlbTest, BlocksFreedAsConsumed) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(slb_.Append(1, MakeInsert(1, {1, 0}, 0, i,
                                        testing::FilledBytes(64, 1))));
  }
  ASSERT_OK(slb_.Commit(1));
  uint64_t before = meter_.allocated_bytes();
  while (slb_.HasCommittedRecords()) {
    ASSERT_OK(slb_.PopCommitted().status());
  }
  EXPECT_EQ(meter_.allocated_bytes(), 0u);
  EXPECT_GT(before, 0u);
}

TEST_F(SlbTest, OversizedRecordGetsDedicatedBlock) {
  ASSERT_OK(slb_.Append(1, MakeInsert(1, {1, 0}, 0, 0,
                                      testing::FilledBytes(1000, 2))));
  ASSERT_OK(slb_.Commit(1));
  ASSERT_OK_AND_ASSIGN(LogRecord r, slb_.PopCommitted());
  EXPECT_EQ(r.data.size(), 1000u);
}

TEST_F(SlbTest, FullWhenBudgetExhausted) {
  sim::StableMemoryMeter small(600);
  StableLogBuffer slb(StableLogBuffer::Config{256, 600}, &small);
  Status st = Status::OK();
  for (int i = 0; i < 100 && st.ok(); ++i) {
    st = slb.Append(1, MakeInsert(1, {1, 0}, 0, i, testing::FilledBytes(40, 1)));
  }
  EXPECT_TRUE(st.IsFull());
}

TEST_F(SlbTest, CheckpointRequestDeduplication) {
  EXPECT_TRUE(slb_.RequestCheckpoint({1, 0}, CheckpointTrigger::kUpdateCount));
  EXPECT_FALSE(slb_.RequestCheckpoint({1, 0}, CheckpointTrigger::kAge));
  EXPECT_TRUE(slb_.RequestCheckpoint({1, 1}, CheckpointTrigger::kAge));
  slb_.checkpoint_requests().front().state = CheckpointState::kFinished;
  slb_.ClearFinished({1, 0});
  EXPECT_EQ(slb_.checkpoint_requests().size(), 1u);
  EXPECT_TRUE(slb_.RequestCheckpoint({1, 0}, CheckpointTrigger::kAge));
}

TEST_F(SlbTest, CrashDiscardsUncommittedKeepsCommitted) {
  ASSERT_OK(slb_.Append(1, MakeInsert(1, {1, 0}, 0, 0, {})));
  ASSERT_OK(slb_.Append(2, MakeInsert(2, {1, 0}, 0, 1, {})));
  ASSERT_OK(slb_.Commit(1));
  slb_.RequestCheckpoint({1, 0}, CheckpointTrigger::kAge);
  slb_.OnCrash();
  EXPECT_TRUE(slb_.checkpoint_requests().empty());
  ASSERT_TRUE(slb_.HasCommittedRecords());
  ASSERT_OK_AND_ASSIGN(LogRecord r, slb_.PopCommitted());
  EXPECT_EQ(r.txn_id, 1u);
  EXPECT_FALSE(slb_.HasCommittedRecords());
  EXPECT_GE(slb_.max_txn_id(), 2u);
}

class SltTest : public ::testing::Test {
 protected:
  SltTest()
      : meter_(1 << 20),
        slt_(StableLogTail::Config{4, 1024}, &meter_) {}

  sim::StableMemoryMeter meter_;
  StableLogTail slt_;
};

TEST_F(SltTest, RegisterFindRelease) {
  ASSERT_OK_AND_ASSIGN(uint32_t b0, slt_.RegisterPartition({1, 0}));
  ASSERT_OK_AND_ASSIGN(uint32_t b1, slt_.RegisterPartition({1, 1}));
  EXPECT_NE(b0, b1);
  ASSERT_OK_AND_ASSIGN(uint32_t found, slt_.FindBin({1, 1}));
  EXPECT_EQ(found, b1);
  ASSERT_OK(slt_.ReleaseBin(b0));
  EXPECT_TRUE(slt_.FindBin({1, 0}).status().IsNotFound());
  // Released bin index is recycled.
  ASSERT_OK_AND_ASSIGN(uint32_t b2, slt_.RegisterPartition({2, 0}));
  EXPECT_EQ(b2, b0);
}

TEST_F(SltTest, ActivePageAccounting) {
  ASSERT_OK_AND_ASSIGN(uint32_t b, slt_.RegisterPartition({1, 0}));
  uint64_t before = meter_.allocated_bytes();
  ASSERT_OK(slt_.AppendToActivePage(b, testing::FilledBytes(10, 1)));
  // First append allocates the page buffer.
  EXPECT_EQ(meter_.allocated_bytes(), before + 1024);
  ASSERT_OK(slt_.AppendToActivePage(b, testing::FilledBytes(10, 2)));
  EXPECT_EQ(meter_.allocated_bytes(), before + 1024);
  ASSERT_OK_AND_ASSIGN(PartitionBin * bin, slt_.bin(b));
  EXPECT_EQ(bin->active_records, 2u);
  EXPECT_EQ(bin->active_page.size(), 20u);
  ASSERT_OK(slt_.ResetAfterCheckpoint(b));
  EXPECT_EQ(meter_.allocated_bytes(), before);
  EXPECT_EQ(bin->active_records, 0u);
}

TEST_F(SltTest, ActiveBinsListsOnlyOutstanding) {
  ASSERT_OK_AND_ASSIGN(uint32_t b0, slt_.RegisterPartition({1, 0}));
  ASSERT_OK_AND_ASSIGN(uint32_t b1, slt_.RegisterPartition({1, 1}));
  (void)b1;
  EXPECT_TRUE(slt_.ActiveBins().empty());
  ASSERT_OK(slt_.AppendToActivePage(b0, testing::FilledBytes(4, 1)));
  EXPECT_EQ(slt_.ActiveBins(), std::vector<uint32_t>{b0});
}

class LogDiskTest : public ::testing::Test {
 protected:
  LogDiskTest()
      : disks_("log", sim::DiskParams{.page_size_bytes = 1024}),
        writer_(LogDiskWriter::Config{1024, 100, 4}, &disks_) {}

  PartitionBin MakeBin(PartitionId pid) {
    PartitionBin b;
    b.in_use = true;
    b.partition = pid;
    return b;
  }

  void FillActive(PartitionBin* bin, uint64_t txn, int n_records) {
    for (int i = 0; i < n_records; ++i) {
      LogRecord r = MakeInsert(txn, bin->partition, 0, i, {});
      std::vector<uint8_t> bytes;
      r.AppendTo(&bytes);
      bin->active_page.insert(bin->active_page.end(), bytes.begin(),
                              bytes.end());
      ++bin->active_records;
    }
  }

  sim::DuplexedDisk disks_;
  LogDiskWriter writer_;
};

TEST_F(LogDiskTest, FlushAndReadBack) {
  PartitionBin bin = MakeBin({1, 0});
  FillActive(&bin, 42, 3);
  uint64_t done = 0;
  ASSERT_OK_AND_ASSIGN(uint64_t lsn, writer_.FlushBinPage(&bin, 4, 0, &done));
  EXPECT_EQ(lsn, 0u);
  EXPECT_EQ(bin.first_page_lsn, 0u);
  EXPECT_EQ(bin.last_page_lsn, 0u);
  EXPECT_EQ(bin.active_records, 0u);
  EXPECT_EQ(bin.directory, std::vector<uint64_t>{0});

  ParsedLogPage page;
  ASSERT_OK(writer_.ReadPage(0, done, sim::SeekClass::kNear, &page, &done));
  EXPECT_EQ(page.partition, (PartitionId{1, 0}));
  std::vector<LogRecord> records;
  ASSERT_OK(ParseLogStream(page.payload, &records));
  EXPECT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].txn_id, 42u);
  EXPECT_TRUE(page.directory.empty());
  EXPECT_EQ(page.prev_lsn, kNoLsn);
}

TEST_F(LogDiskTest, FlushOfEmptyBinRejected) {
  PartitionBin bin = MakeBin({1, 0});
  uint64_t done;
  EXPECT_TRUE(
      writer_.FlushBinPage(&bin, 4, 0, &done).status().IsInvalidArgument());
}

TEST_F(LogDiskTest, AnchorPagesEmbedDirectoryEveryNth) {
  PartitionBin bin = MakeBin({2, 3});
  uint64_t done = 0;
  // Directory capacity 2: pages 0,1 plain; page 2 is an anchor embedding
  // [0,1]; pages 3 plain; page 4 anchors [2,3].
  for (int i = 0; i < 5; ++i) {
    FillActive(&bin, 1, 1);
    ASSERT_OK(writer_.FlushBinPage(&bin, 2, done, &done).status());
  }
  EXPECT_EQ(bin.pages_since_checkpoint, 5u);
  EXPECT_EQ(bin.last_anchor_lsn, 4u);
  EXPECT_EQ(bin.directory, std::vector<uint64_t>{4});

  ParsedLogPage page;
  ASSERT_OK(writer_.ReadPage(2, done, sim::SeekClass::kNear, &page, &done));
  EXPECT_EQ(page.directory, (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(page.prev_anchor_lsn, kNoLsn);
  ASSERT_OK(writer_.ReadPage(4, done, sim::SeekClass::kNear, &page, &done));
  EXPECT_EQ(page.directory, (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(page.prev_anchor_lsn, 2u);
  ASSERT_OK(writer_.ReadPage(3, done, sim::SeekClass::kNear, &page, &done));
  EXPECT_TRUE(page.directory.empty());
  EXPECT_EQ(page.prev_lsn, 2u);
}

TEST_F(LogDiskTest, WindowAndAgeBoundaryAdvance) {
  EXPECT_EQ(writer_.window_start(), 0u);
  // Young log: nothing is near falling off the window yet.
  EXPECT_EQ(writer_.age_boundary(), 0u);
  PartitionBin bin = MakeBin({1, 0});
  uint64_t done = 0;
  for (int i = 0; i < 150; ++i) {
    FillActive(&bin, 1, 1);
    ASSERT_OK(writer_.FlushBinPage(&bin, 8, done, &done).status());
  }
  EXPECT_EQ(writer_.next_lsn(), 150u);
  EXPECT_EQ(writer_.window_start(), 50u);
  EXPECT_EQ(writer_.age_boundary(), 54u);
}

TEST_F(LogDiskTest, ArchivePagesTagged) {
  LogRecord r = MakeInsert(1, {5, 5}, 0, 0, {});
  std::vector<uint8_t> bytes;
  r.AppendTo(&bytes);
  uint64_t done = 0;
  ASSERT_OK_AND_ASSIGN(uint64_t lsn, writer_.WriteArchivePage(bytes, 0, &done));
  ParsedLogPage page;
  ASSERT_OK(writer_.ReadPage(lsn, done, sim::SeekClass::kNear, &page, &done));
  EXPECT_EQ(page.partition.Pack(), kArchiveCombinedTag);
  std::vector<LogRecord> records;
  ASSERT_OK(ParseLogStream(page.payload, &records));
  EXPECT_EQ(records.size(), 1u);
}

TEST_F(LogDiskTest, LargeRecordSpansPages) {
  // A record bigger than one page: the stream splits across pages and
  // reassembles on read.
  PartitionBin bin = MakeBin({3, 0});
  LogRecord big = MakeInsert(9, {3, 0}, 0, 0, testing::FilledBytes(2500, 7));
  std::vector<uint8_t> bytes;
  big.AppendTo(&bytes);
  bin.active_page = bytes;
  bin.active_records = 1;
  uint64_t done = 0;
  uint32_t cap = writer_.PagePayloadCapacity(0);
  ASSERT_LT(cap, bytes.size());
  ASSERT_OK(writer_.FlushBinPage(&bin, 8, 0, &done).status());
  // Remainder stays in the active page.
  EXPECT_EQ(bin.active_page.size(), bytes.size() - cap);
  ParsedLogPage page;
  ASSERT_OK(writer_.ReadPage(0, done, sim::SeekClass::kNear, &page, &done));
  std::vector<uint8_t> stream = page.payload;
  stream.insert(stream.end(), bin.active_page.begin(), bin.active_page.end());
  std::vector<LogRecord> records;
  ASSERT_OK(ParseLogStream(stream, &records));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].data, testing::FilledBytes(2500, 7));
}

TEST_F(LogDiskTest, CorruptPageDetected) {
  PartitionBin bin = MakeBin({1, 0});
  FillActive(&bin, 1, 2);
  uint64_t done = 0;
  ASSERT_OK(writer_.FlushBinPage(&bin, 4, 0, &done).status());
  // Corrupt the stored page on both mirrors.
  sim::Page stored;
  ASSERT_OK(
      disks_.primary().ReadPage(0, 0, sim::SeekClass::kNear, &stored, &done));
  std::vector<uint8_t> raw = *stored.bytes;
  raw[raw.size() - 1] ^= 0xFF;
  disks_.WritePage(0, sim::MakePage(std::move(raw)), 0, sim::SeekClass::kNear);
  ParsedLogPage page;
  EXPECT_TRUE(writer_.ReadPage(0, 0, sim::SeekClass::kNear, &page, &done)
                  .IsCorruption());
}

}  // namespace
}  // namespace mmdb
