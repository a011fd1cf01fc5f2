#include "txn/undo_space.h"

#include <algorithm>

namespace mmdb {

void UndoSpace::Push(uint64_t txn_id, LogRecord undo) {
  bytes_in_use_ += undo.SerializedSize();
  high_water_bytes_ = std::max(high_water_bytes_, bytes_in_use_);
  chains_[txn_id].push_back(std::move(undo));
}

std::vector<LogRecord> UndoSpace::TakeReversed(uint64_t txn_id) {
  auto it = chains_.find(txn_id);
  if (it == chains_.end()) return {};
  std::vector<LogRecord> out = std::move(it->second);
  chains_.erase(it);
  for (const LogRecord& r : out) bytes_in_use_ -= r.SerializedSize();
  std::reverse(out.begin(), out.end());
  return out;
}

size_t UndoSpace::Depth(uint64_t txn_id) const {
  auto it = chains_.find(txn_id);
  return it == chains_.end() ? 0 : it->second.size();
}

std::vector<LogRecord> UndoSpace::TakeReversedFrom(uint64_t txn_id,
                                                   size_t depth) {
  auto it = chains_.find(txn_id);
  if (it == chains_.end() || it->second.size() <= depth) return {};
  std::vector<LogRecord> out(
      std::make_move_iterator(it->second.begin() + depth),
      std::make_move_iterator(it->second.end()));
  it->second.resize(depth);
  if (it->second.empty()) chains_.erase(it);
  for (const LogRecord& r : out) bytes_in_use_ -= r.SerializedSize();
  std::reverse(out.begin(), out.end());
  return out;
}

void UndoSpace::Discard(uint64_t txn_id) {
  auto it = chains_.find(txn_id);
  if (it == chains_.end()) return;
  for (const LogRecord& r : it->second) bytes_in_use_ -= r.SerializedSize();
  chains_.erase(it);
}

}  // namespace mmdb
