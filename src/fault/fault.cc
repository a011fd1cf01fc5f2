#include "fault/fault.h"

#include <cstring>

namespace mmdb::fault {

const char* SiteName(Site site) {
  switch (site) {
    case Site::kDiskWrite:
      return "disk.write";
    case Site::kDiskRead:
      return "disk.read";
    case Site::kStableMemAccess:
      return "stable_mem.access";
    case Site::kSlbFlush:
      return "slb.flush";
    case Site::kCheckpointTrackWrite:
      return "checkpoint.track_write";
    case Site::kRestartApply:
      return "restart.apply";
    case Site::kSiteCount:
      break;
  }
  return "unknown";
}

FaultPlan& FaultPlan::TornWrite(const std::string& device,
                                uint64_t nth_visit) {
  FaultSpec s;
  s.site = Site::kDiskWrite;
  s.kind = FaultKind::kTornWrite;
  s.device = device;
  s.nth_visit = nth_visit;
  specs.push_back(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::TransientReadError(const std::string& device,
                                         uint64_t nth_visit, uint32_t count) {
  FaultSpec s;
  s.site = Site::kDiskRead;
  s.kind = FaultKind::kTransientReadError;
  s.device = device;
  s.nth_visit = nth_visit;
  s.count = count;
  specs.push_back(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::LatentCorruption(const std::string& device,
                                       uint64_t page_no) {
  FaultSpec s;
  s.site = Site::kDiskRead;
  s.kind = FaultKind::kLatentCorruption;
  s.device = device;
  s.page_no = page_no;
  specs.push_back(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::BitFlip(const std::string& device, uint64_t nth_visit) {
  FaultSpec s;
  s.site = Site::kStableMemAccess;
  s.kind = FaultKind::kBitFlip;
  s.device = device;
  s.nth_visit = nth_visit;
  specs.push_back(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::CrashAtVisit(Site site, uint64_t nth_visit) {
  FaultSpec s;
  s.site = site;
  s.kind = FaultKind::kCrash;
  s.nth_visit = nth_visit;
  specs.push_back(std::move(s));
  return *this;
}

FaultPlan& FaultPlan::CrashAtTime(uint64_t at_ns) {
  FaultSpec s;
  s.any_site = true;
  s.kind = FaultKind::kCrash;
  s.at_ns = at_ns;
  specs.push_back(std::move(s));
  return *this;
}

void FaultInjector::Arm(FaultPlan plan) {
  armed_ = true;
  crash_pending_ = false;
  atomic_depth_ = 0;
  crashes_fired_ = 0;
  injected_total_ = 0;
  specs_.clear();
  for (FaultSpec& s : plan.specs) {
    specs_.push_back(SpecState{std::move(s), 0, 0});
  }
  std::memset(visits_, 0, sizeof(visits_));
  std::memset(injected_, 0, sizeof(injected_));
  rng_ = Random(plan.seed);
}

void FaultInjector::Disarm() {
  armed_ = false;
  crash_pending_ = false;
  atomic_depth_ = 0;
  specs_.clear();
}

void FaultInjector::AttachMetrics(obs::MetricsRegistry* reg) {
  for (size_t i = 0; i < kSiteCount; ++i) {
    m_injected_[i] = reg->counter(
        std::string("fault.injected.") + SiteName(static_cast<Site>(i)));
  }
  m_injected_total_ = reg->counter("fault.injected_total");
  m_crashes_ = reg->counter("fault.crashes");
}

bool FaultInjector::Matches(const FaultSpec& spec, const SiteEvent& ev) const {
  if (!spec.any_site && spec.site != ev.site) return false;
  if (!spec.device.empty() && spec.device != ev.device) return false;
  if (spec.page_no != kAnyPage && spec.page_no != ev.page_no) return false;
  return true;
}

void FaultInjector::NoteInjected(Site site) {
  ++injected_[static_cast<size_t>(site)];
  ++injected_total_;
  if (m_injected_total_ != nullptr) {
    m_injected_[static_cast<size_t>(site)]->Add(1);
    m_injected_total_->Add(1);
  }
}

void FaultInjector::FlipBit(SiteEvent* ev) {
  std::vector<uint8_t>* bytes = ev->data;
  std::shared_ptr<std::vector<uint8_t>> copy;
  if (bytes == nullptr && ev->shared_data != nullptr &&
      *ev->shared_data != nullptr) {
    copy = std::make_shared<std::vector<uint8_t>>(**ev->shared_data);
    bytes = copy.get();
  }
  if (bytes == nullptr || bytes->empty()) return;
  uint64_t bit = rng_.Uniform(bytes->size() * 8);
  (*bytes)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  if (copy != nullptr) *ev->shared_data = std::move(copy);
}

Status FaultInjector::OnSite(SiteEvent* ev) {
  ++visits_[static_cast<size_t>(ev->site)];
  if (crash_pending_) {
    return atomic_depth_ > 0 ? Status::OK() : CrashedStatus();
  }

  Status result = Status::OK();
  for (SpecState& st : specs_) {
    if (!Matches(st.spec, *ev)) continue;
    ++st.matches;
    bool fire;
    if (st.spec.at_ns != 0) {
      fire = ev->now_ns >= st.spec.at_ns && st.fired < st.spec.count;
    } else {
      fire = st.matches >= st.spec.nth_visit &&
             st.fired < st.spec.count &&
             st.matches < st.spec.nth_visit + st.spec.count;
    }
    if (!fire) continue;
    ++st.fired;
    NoteInjected(ev->site);

    switch (st.spec.kind) {
      case FaultKind::kTornWrite:
        if (ev->track_pages > 0) {
          // Keep a strict prefix of the track's pages.
          ev->torn_keep_pages =
              static_cast<uint32_t>(rng_.Uniform(ev->track_pages));
        } else if (ev->write_size > 1) {
          // Keep at least one byte, lose at least one.
          ev->torn_keep_bytes =
              1 + static_cast<size_t>(rng_.Uniform(ev->write_size - 1));
        } else {
          ev->torn_keep_bytes = 0;
        }
        break;
      case FaultKind::kTransientReadError:
        result = Status::IOError(
            std::string("injected transient read error at ") +
            SiteName(ev->site) + " on " + ev->device);
        break;
      case FaultKind::kLatentCorruption:
      case FaultKind::kBitFlip:
        FlipBit(ev);
        break;
      case FaultKind::kCrash:
        crash_pending_ = true;
        ++crashes_fired_;
        if (m_crashes_ != nullptr) m_crashes_->Add(1);
        if (atomic_depth_ == 0) result = CrashedStatus();
        break;
    }
  }
  return result;
}

}  // namespace mmdb::fault
