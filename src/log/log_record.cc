#include "log/log_record.h"

#include <algorithm>

#include "index/node_format.h"
#include "util/logging.h"

namespace mmdb {

namespace {
// Common header: op(1) + bin(4) + txn(8) + partition(8) + slot(4).
constexpr size_t kHeaderSize = 1 + 4 + 8 + 8 + 4;
}  // namespace

size_t LogRecord::SerializedSize() const {
  switch (op) {
    case LogOp::kInsert:
    case LogOp::kUpdate:
      return kHeaderSize + 2 + data.size();
    case LogOp::kPatch:
      return kHeaderSize + 2 + 2 + data.size();
    case LogOp::kDelete:
      return kHeaderSize;
    case LogOp::kNodeInsertEntry:
    case LogOp::kNodeRemoveEntry:
      return kHeaderSize + 8 + 12;
  }
  return kHeaderSize;
}

void LogRecord::AppendTo(std::vector<uint8_t>* out) const {
  wire::PutU8(out, static_cast<uint8_t>(op));
  wire::PutU32(out, bin_index);
  wire::PutU64(out, txn_id);
  wire::PutU64(out, partition.Pack());
  wire::PutU32(out, slot);
  switch (op) {
    case LogOp::kInsert:
    case LogOp::kUpdate:
      MMDB_CHECK(data.size() <= 0xFFFF);
      wire::PutU16(out, static_cast<uint16_t>(data.size()));
      wire::PutBytes(out, data);
      break;
    case LogOp::kPatch:
      MMDB_CHECK(offset + data.size() <= 0xFFFF);
      wire::PutU16(out, offset);
      wire::PutU16(out, static_cast<uint16_t>(data.size()));
      wire::PutBytes(out, data);
      break;
    case LogOp::kDelete:
      break;
    case LogOp::kNodeInsertEntry:
    case LogOp::kNodeRemoveEntry:
      wire::PutI64(out, key);
      node::PutAddr(out, child);
      break;
  }
}

void LogRecord::AppendEpochFrame(std::vector<uint8_t>* out) const {
  wire::PutU32(out, epoch);
  wire::PutU64(out, csn);
}

bool LogRecord::PeekSize(std::span<const uint8_t> buf, size_t* size) {
  if (buf.empty()) return false;
  switch (static_cast<LogOp>(buf[0])) {
    case LogOp::kInsert:
    case LogOp::kUpdate: {
      if (buf.size() < kHeaderSize + 2) return false;
      uint16_t len = static_cast<uint16_t>(
          buf[kHeaderSize] | (buf[kHeaderSize + 1] << 8));
      *size = kHeaderSize + 2 + len;
      return true;
    }
    case LogOp::kPatch: {
      if (buf.size() < kHeaderSize + 4) return false;
      uint16_t len = static_cast<uint16_t>(
          buf[kHeaderSize + 2] | (buf[kHeaderSize + 3] << 8));
      *size = kHeaderSize + 4 + len;
      return true;
    }
    case LogOp::kDelete:
      *size = kHeaderSize;
      return true;
    case LogOp::kNodeInsertEntry:
    case LogOp::kNodeRemoveEntry:
      *size = kHeaderSize + 8 + 12;
      return true;
  }
  // Unknown op: report the header size so the caller's Parse sees (and
  // rejects) the same bytes instead of stalling forever.
  *size = kHeaderSize;
  return true;
}

Result<LogRecord> LogRecord::Parse(wire::Reader* r) {
  LogRecord rec;
  uint8_t op;
  uint64_t part;
  if (!r->GetU8(&op) || !r->GetU32(&rec.bin_index) || !r->GetU64(&rec.txn_id) ||
      !r->GetU64(&part) || !r->GetU32(&rec.slot)) {
    return Status::Corruption("truncated log record header");
  }
  if (op < 1 || op > 6) return Status::Corruption("unknown log op");
  rec.op = static_cast<LogOp>(op);
  rec.partition = PartitionId::Unpack(part);
  switch (rec.op) {
    case LogOp::kInsert:
    case LogOp::kUpdate: {
      uint16_t len;
      if (!r->GetU16(&len)) return Status::Corruption("truncated log record");
      std::span<const uint8_t> bytes;
      if (!r->GetBytes(len, &bytes)) {
        return Status::Corruption("truncated log record payload");
      }
      rec.data.assign(bytes.begin(), bytes.end());
      break;
    }
    case LogOp::kPatch: {
      uint16_t len;
      if (!r->GetU16(&rec.offset) || !r->GetU16(&len)) {
        return Status::Corruption("truncated patch record");
      }
      std::span<const uint8_t> bytes;
      if (!r->GetBytes(len, &bytes)) {
        return Status::Corruption("truncated patch record payload");
      }
      rec.data.assign(bytes.begin(), bytes.end());
      break;
    }
    case LogOp::kDelete:
      break;
    case LogOp::kNodeInsertEntry:
    case LogOp::kNodeRemoveEntry: {
      if (!r->GetI64(&rec.key) || !r->GetU32(&rec.child.partition.segment) ||
          !r->GetU32(&rec.child.partition.number) ||
          !r->GetU32(&rec.child.slot)) {
        return Status::Corruption("truncated index log record");
      }
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
