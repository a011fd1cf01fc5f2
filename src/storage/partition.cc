#include "storage/partition.h"

#include <cstring>

#include "util/logging.h"

namespace mmdb {

namespace {
constexpr uint32_t kMagic = 0x4D4D5054;  // "MMPT"
}  // namespace

/// On-image header. All partition state is kept inside the buffer so the
/// buffer doubles as the checkpoint image.
struct Partition::Header {
  uint32_t magic;
  uint32_t segment;
  uint32_t number;
  uint32_t bin_index;
  uint32_t size_bytes;
  uint32_t slot_count;   // slot directory entries (used + free)
  uint32_t live_count;   // used entries
  uint32_t heap_top;     // heap occupies [heap_top, size_bytes)
  uint32_t garbage;      // dead heap bytes reclaimable by compaction
};

namespace {
constexpr uint32_t kHeaderSize = 9 * sizeof(uint32_t);
constexpr uint32_t kSlotEntrySize = 2 * sizeof(uint32_t);  // offset, length
}  // namespace

Partition::Header* Partition::header() {
  static_assert(sizeof(Header) == kHeaderSize);
  return reinterpret_cast<Header*>(buf_.data());
}
const Partition::Header* Partition::header() const {
  return reinterpret_cast<const Header*>(buf_.data());
}

uint32_t* Partition::slot_entry(uint32_t slot) {
  return reinterpret_cast<uint32_t*>(buf_.data() + kHeaderSize +
                                     slot * kSlotEntrySize);
}
const uint32_t* Partition::slot_entry(uint32_t slot) const {
  return reinterpret_cast<const uint32_t*>(buf_.data() + kHeaderSize +
                                           slot * kSlotEntrySize);
}

Partition::Partition(PartitionId id, uint32_t size_bytes, uint32_t bin_index)
    : buf_(size_bytes, 0) {
  MMDB_CHECK(size_bytes > kHeaderSize + 256);
  Header* h = header();
  h->magic = kMagic;
  h->segment = id.segment;
  h->number = id.number;
  h->bin_index = bin_index;
  h->size_bytes = size_bytes;
  h->slot_count = 0;
  h->live_count = 0;
  h->heap_top = size_bytes;
  h->garbage = 0;
}

Partition::Partition(std::vector<uint8_t> image) : buf_(std::move(image)) {}

Result<std::unique_ptr<Partition>> Partition::FromImage(
    std::vector<uint8_t> image) {
  if (image.size() < kHeaderSize) {
    return Status::Corruption("partition image shorter than header");
  }
  const auto* h = reinterpret_cast<const Header*>(image.data());
  if (h->magic != kMagic) {
    return Status::Corruption("partition image has bad magic");
  }
  if (h->size_bytes != image.size()) {
    return Status::Corruption("partition image size mismatch");
  }
  if (h->heap_top > h->size_bytes ||
      kHeaderSize + uint64_t{h->slot_count} * kSlotEntrySize > h->heap_top) {
    return Status::Corruption("partition image has inconsistent layout");
  }
  return std::unique_ptr<Partition>(new Partition(std::move(image)));
}

PartitionId Partition::id() const {
  return PartitionId{header()->segment, header()->number};
}

uint32_t Partition::bin_index() const { return header()->bin_index; }

uint32_t Partition::slot_count() const { return header()->slot_count; }
uint32_t Partition::live_count() const { return header()->live_count; }
uint32_t Partition::garbage_bytes() const { return header()->garbage; }

uint32_t Partition::free_bytes() const {
  const Header* h = header();
  uint32_t dir_end = kHeaderSize + h->slot_count * kSlotEntrySize;
  return h->heap_top - dir_end;
}

bool Partition::SlotUsed(uint32_t slot) const {
  if (slot >= header()->slot_count) return false;
  return slot_entry(slot)[0] != kFreeSlot;
}

void Partition::Compact() {
  Header* h = header();
  std::vector<uint8_t> heap_copy(buf_.begin() + h->heap_top, buf_.end());
  uint32_t old_top = h->heap_top;
  uint32_t write_to = h->size_bytes;
  for (uint32_t s = 0; s < h->slot_count; ++s) {
    uint32_t* e = slot_entry(s);
    if (e[0] == kFreeSlot) continue;
    uint32_t len = e[1];
    write_to -= len;
    std::memcpy(buf_.data() + write_to, heap_copy.data() + (e[0] - old_top),
                len);
    e[0] = write_to;
  }
  h->heap_top = write_to;
  h->garbage = 0;
}

Result<uint32_t> Partition::Insert(std::span<const uint8_t> data) {
  Header* h = header();
  // Reuse the lowest free directory entry; a directory with every entry
  // live has none, so the scan is skipped and the entity appends.
  uint32_t slot = h->slot_count;
  if (h->live_count < h->slot_count) {
    for (uint32_t s = 0; s < h->slot_count; ++s) {
      if (slot_entry(s)[0] == kFreeSlot) {
        slot = s;
        break;
      }
    }
  }
  Status st = InsertAt(slot, data);
  if (!st.ok()) return st;
  return slot;
}

Status Partition::InsertAt(uint32_t slot, std::span<const uint8_t> data) {
  Header* h = header();
  if (slot < h->slot_count && slot_entry(slot)[0] != kFreeSlot) {
    return Status::InvalidArgument("slot already in use");
  }
  // 64-bit sizes: a slot number parsed from a damaged log record can be
  // large enough to wrap the directory growth in 32 bits.
  const uint64_t new_slot_count =
      slot >= h->slot_count ? uint64_t{slot} + 1 : h->slot_count;
  const uint64_t grow = (new_slot_count - h->slot_count) * kSlotEntrySize;
  const uint32_t dir_end = kHeaderSize + h->slot_count * kSlotEntrySize;
  const uint64_t need = grow + data.size();
  // Compaction merges the garbage into the free space, so together they
  // decide whether the entity fits.
  if (uint64_t{h->heap_top} - dir_end + h->garbage < need) {
    return Status::Full("partition cannot fit entity");
  }
  if (h->heap_top - dir_end < need) Compact();
  if (h->heap_top - dir_end < need) {
    // A garbage count the heap does not back (a damaged image).
    return Status::Full("partition cannot fit entity after compaction");
  }
  // Grow the directory, marking any intermediate new slots free.
  for (uint32_t s = h->slot_count; s < new_slot_count; ++s) {
    uint32_t* e = slot_entry(s);
    e[0] = kFreeSlot;
    e[1] = 0;
  }
  h->slot_count = static_cast<uint32_t>(new_slot_count);
  h->heap_top -= static_cast<uint32_t>(data.size());
  if (!data.empty()) {
    std::memcpy(buf_.data() + h->heap_top, data.data(), data.size());
  }
  uint32_t* e = slot_entry(slot);
  e[0] = h->heap_top;
  e[1] = static_cast<uint32_t>(data.size());
  ++h->live_count;
  ++update_count_;
  return Status::OK();
}

Status Partition::Update(uint32_t slot, std::span<const uint8_t> data) {
  Header* h = header();
  if (!SlotUsed(slot)) {
    return Status::NotFound("update of unused slot");
  }
  uint32_t* e = slot_entry(slot);
  if (data.size() <= e[1]) {
    // Overwrite in place; excess becomes garbage.
    if (!data.empty()) {
      std::memcpy(buf_.data() + e[0], data.data(), data.size());
    }
    h->garbage += e[1] - static_cast<uint32_t>(data.size());
    e[1] = static_cast<uint32_t>(data.size());
    ++update_count_;
    return Status::OK();
  }
  // Relocate within the heap. Free the old space first so compaction can
  // reclaim it if allocation needs to compact. Save the old bytes because
  // compaction invalidates the old offset.
  std::vector<uint8_t> incoming(data.begin(), data.end());
  std::vector<uint8_t> old_bytes(buf_.begin() + e[0], buf_.begin() + e[0] + e[1]);
  h->garbage += e[1];
  e[0] = kFreeSlot;
  e[1] = 0;
  --h->live_count;
  Status st = InsertAt(slot, incoming);
  if (!st.ok()) {
    // Roll back: re-insert the old entity. This always fits because
    // freeing it above made at least old_bytes.size() bytes reclaimable.
    Status rb = InsertAt(slot, old_bytes);
    MMDB_CHECK(rb.ok());
    return st;
  }
  return Status::OK();
}

bool Partition::UpdateFits(uint32_t slot, size_t size) const {
  if (!SlotUsed(slot)) return false;
  return size <= uint64_t{free_bytes()} + garbage_bytes() + slot_entry(slot)[1];
}

Status Partition::Delete(uint32_t slot) {
  Header* h = header();
  if (!SlotUsed(slot)) {
    return Status::NotFound("delete of unused slot");
  }
  uint32_t* e = slot_entry(slot);
  h->garbage += e[1];
  e[0] = kFreeSlot;
  e[1] = 0;
  --h->live_count;
  ++update_count_;
  // Shrink the directory if the tail slots are free, so slot numbers stay
  // dense over time.
  while (h->slot_count > 0 && slot_entry(h->slot_count - 1)[0] == kFreeSlot) {
    --h->slot_count;
  }
  return Status::OK();
}

Result<std::span<const uint8_t>> Partition::Read(uint32_t slot) const {
  if (!SlotUsed(slot)) {
    return Status::NotFound("read of unused slot");
  }
  const uint32_t* e = slot_entry(slot);
  return std::span<const uint8_t>(buf_.data() + e[0], e[1]);
}

}  // namespace mmdb
