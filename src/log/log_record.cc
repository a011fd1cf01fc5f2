#include "log/log_record.h"

#include <algorithm>

#include "index/node_format.h"
#include "util/logging.h"

namespace mmdb {

namespace {

// Walks a record's fields after its op byte, in wire order: `varint` for
// each integer field, `bytes` for the payload. SerializedSize and AppendTo
// both walk it, so the layout is written down once; Parse reads it back.
//
//   header             bin | txn | segment | partition number | slot
//   kInsert, kUpdate   length | image
//   kPatch             offset | length | span
//   kNode*             zigzag(key) | segment | number | slot
template <typename Varint, typename Bytes>
void WalkFields(const LogRecord& r, Varint&& varint, Bytes&& bytes) {
  varint(r.bin_index);
  varint(r.txn_id);
  varint(r.partition.segment);
  varint(r.partition.number);
  varint(r.slot);
  switch (r.op) {
    case LogOp::kInsert:
    case LogOp::kUpdate:
      varint(r.data.size());
      bytes(r.data);
      break;
    case LogOp::kPatch:
      varint(r.offset);
      varint(r.data.size());
      bytes(r.data);
      break;
    case LogOp::kDelete:
      break;
    case LogOp::kNodeInsertEntry:
    case LogOp::kNodeRemoveEntry:
      varint(wire::ZigZag(r.key));
      varint(r.child.partition.segment);
      varint(r.child.partition.number);
      varint(r.child.slot);
      break;
  }
}

}  // namespace

size_t LogRecord::SerializedSize() const {
  size_t n = 1;  // op
  WalkFields(
      *this, [&n](uint64_t v) { n += wire::VarintSize(v); },
      [&n](std::span<const uint8_t> b) { n += b.size(); });
  return n;
}

void LogRecord::AppendTo(std::vector<uint8_t>* out) const {
  MMDB_CHECK(offset + data.size() <= 0xFFFF);
  wire::PutU8(out, static_cast<uint8_t>(op));
  WalkFields(
      *this, [out](uint64_t v) { wire::PutVarint(out, v); },
      [out](std::span<const uint8_t> b) { wire::PutBytes(out, b); });
}

void LogRecord::AppendEpochFrame(std::vector<uint8_t>* out) const {
  wire::PutVarint(out, epoch);
  wire::PutVarint(out, csn);
}

Result<LogRecord> LogRecord::Parse(wire::Reader* r) {
  LogRecord rec;
  uint8_t op;
  if (!r->GetU8(&op) || !r->GetVarint(&rec.bin_index) ||
      !r->GetVarint(&rec.txn_id) || !r->GetVarint(&rec.partition.segment) ||
      !r->GetVarint(&rec.partition.number) || !r->GetVarint(&rec.slot)) {
    return Status::Corruption("malformed log record header");
  }
  if (op < 1 || op > 6) return Status::Corruption("unknown log op");
  rec.op = static_cast<LogOp>(op);
  switch (rec.op) {
    case LogOp::kInsert:
    case LogOp::kUpdate:
    case LogOp::kPatch: {
      uint16_t len;
      if ((rec.op == LogOp::kPatch && !r->GetVarint(&rec.offset)) ||
          !r->GetVarint(&len)) {
        return Status::Corruption("malformed log record length");
      }
      std::span<const uint8_t> bytes;
      if (!r->GetBytes(len, &bytes)) {
        return Status::Corruption("truncated log record payload");
      }
      rec.data.assign(bytes.begin(), bytes.end());
      break;
    }
    case LogOp::kDelete:
      break;
    case LogOp::kNodeInsertEntry:
    case LogOp::kNodeRemoveEntry: {
      uint64_t key;
      if (!r->GetVarint(&key) || !r->GetVarint(&rec.child.partition.segment) ||
          !r->GetVarint(&rec.child.partition.number) ||
          !r->GetVarint(&rec.child.slot)) {
        return Status::Corruption("malformed index log record");
      }
      rec.key = wire::UnZigZag(key);
      break;
    }
  }
  return rec;
}

std::string LogRecord::ToString() const {
  const char* name = "?";
  switch (op) {
    case LogOp::kInsert: name = "INSERT"; break;
    case LogOp::kDelete: name = "DELETE"; break;
    case LogOp::kUpdate: name = "UPDATE"; break;
    case LogOp::kNodeInsertEntry: name = "NODE_INSERT"; break;
    case LogOp::kNodeRemoveEntry: name = "NODE_REMOVE"; break;
    case LogOp::kPatch: name = "PATCH"; break;
  }
  return std::string(name) + " txn=" + std::to_string(txn_id) + " part=" +
         partition.ToString() + " slot=" + std::to_string(slot);
}

Status ApplyLogRecord(const LogRecord& rec, Partition* partition) {
  if (partition->id() != rec.partition) {
    return Status::InvalidArgument("record applied to wrong partition");
  }
  switch (rec.op) {
    case LogOp::kInsert:
      return partition->InsertAt(rec.slot, rec.data);
    case LogOp::kDelete:
      return partition->Delete(rec.slot);
    case LogOp::kUpdate:
      return partition->Update(rec.slot, rec.data);
    case LogOp::kPatch: {
      auto bytes = partition->Read(rec.slot);
      if (!bytes.ok()) return bytes.status();
      if (rec.offset + rec.data.size() > bytes.value().size()) {
        return Status::Corruption("patch runs past the end of its entity");
      }
      std::vector<uint8_t> image(bytes.value().begin(), bytes.value().end());
      std::copy(rec.data.begin(), rec.data.end(), image.begin() + rec.offset);
      return partition->Update(rec.slot, image);
    }
    case LogOp::kNodeInsertEntry:
    case LogOp::kNodeRemoveEntry: {
      auto bytes = partition->Read(rec.slot);
      if (!bytes.ok()) return bytes.status();
      std::vector<uint8_t> node(bytes.value().begin(), bytes.value().end());
      node::Entry e{rec.key, rec.child};
      Status st = rec.op == LogOp::kNodeInsertEntry
                      ? node::InsertEntry(&node, e)
                      : node::RemoveEntry(&node, e);
      if (!st.ok()) return st;
      return partition->Update(rec.slot, node);
    }
  }
  return Status::InvalidArgument("bad log op");
}

LogRecord MakeUndo(const LogRecord& redo, std::span<const uint8_t> pre_image) {
  LogRecord undo;
  undo.bin_index = redo.bin_index;
  undo.txn_id = redo.txn_id;
  undo.partition = redo.partition;
  undo.slot = redo.slot;
  switch (redo.op) {
    case LogOp::kInsert:
      undo.op = LogOp::kDelete;
      break;
    case LogOp::kDelete:
      undo.op = LogOp::kInsert;
      undo.data.assign(pre_image.begin(), pre_image.end());
      break;
    case LogOp::kUpdate:
    case LogOp::kPatch:
      undo.op = LogOp::kUpdate;
      undo.data.assign(pre_image.begin(), pre_image.end());
      break;
    case LogOp::kNodeInsertEntry:
      undo.op = LogOp::kNodeRemoveEntry;
      undo.key = redo.key;
      undo.child = redo.child;
      break;
    case LogOp::kNodeRemoveEntry:
      undo.op = LogOp::kNodeInsertEntry;
      undo.key = redo.key;
      undo.child = redo.child;
      break;
  }
  return undo;
}

}  // namespace mmdb
