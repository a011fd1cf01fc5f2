#ifndef MMDB_FAULT_FAULT_H_
#define MMDB_FAULT_FAULT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/random.h"
#include "util/status.h"

namespace mmdb::fault {

/// Named injection sites. Each site is a point in the simulation where a
/// `FaultInjector` hook fires: device-level page operations, stable-memory
/// accesses, and the higher-level log / checkpoint / restart events the
/// paper's failure analysis (Sections 2.6-2.8) reasons about.
enum class Site : uint8_t {
  kDiskWrite = 0,           // sim::Disk page/track write ("disk.write")
  kDiskRead,                // sim::Disk page/track read ("disk.read")
  kStableMemAccess,         // StableMemoryMeter charge ("stable_mem.access")
  kSlbFlush,                // LogDiskWriter bin-page/archive flush ("slb.flush")
  kCheckpointTrackWrite,    // checkpointer image install ("checkpoint.track_write")
  kRestartApply,            // restart log-record apply batch ("restart.apply")
  kSiteCount,
};

inline constexpr size_t kSiteCount = static_cast<size_t>(Site::kSiteCount);

/// "disk.write", "disk.read", ... (stable identifiers used in metric names,
/// failure reports, and EXPERIMENTS.md recipes).
const char* SiteName(Site site);

/// What an armed spec does when it fires.
enum class FaultKind : uint8_t {
  /// Page write persists only a prefix (track write: a prefix of its
  /// pages). Silent at write time; detected on read by the device CRC or
  /// by content-level checksums (log-page payload CRC, image parse).
  kTornWrite,
  /// Read fails with Status::IOError for `count` consecutive matching
  /// visits, then succeeds: models a transient fault cleared by retry.
  kTransientReadError,
  /// Flips one stored bit without updating the device CRC: detected on
  /// the next read of the page as Status::Corruption.
  kLatentCorruption,
  /// Flips one bit in a stable-memory buffer (e.g. a catalog-root copy).
  kBitFlip,
  /// Halts the system: the injector latches crash_pending and every
  /// subsequent hook/barrier outside an atomic section returns
  /// Status::Fault until Database::Crash() delivers the crash.
  kCrash,
};

inline constexpr uint64_t kAnyPage = ~0ull;

/// One armed fault. Matching: site (or any_site), optional device name
/// (exact match, "" = any), optional page number. Firing: the
/// `nth_visit`-th matching visit (1-based), or — when `at_ns` is set —
/// the first matching visit at virtual time >= at_ns. `count` makes
/// transient faults persist for that many consecutive matching visits.
struct FaultSpec {
  Site site = Site::kDiskWrite;
  bool any_site = false;
  FaultKind kind = FaultKind::kCrash;
  std::string device;          // "" = any device
  uint64_t page_no = kAnyPage; // kAnyPage = any page
  uint64_t nth_visit = 1;      // 1-based ordinal among matching visits
  uint64_t at_ns = 0;          // 0 = disabled; else virtual-clock trigger
  uint32_t count = 1;          // consecutive firings (transient errors)
};

/// A deterministic, seed-reproducible fault schedule. The seed feeds the
/// injector's private RNG, which decides torn-write lengths and flipped
/// bit positions; two runs armed with an equal plan observe byte-identical
/// fault effects.
struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultSpec> specs;

  FaultPlan& TornWrite(const std::string& device, uint64_t nth_visit = 1);
  FaultPlan& TransientReadError(const std::string& device,
                                uint64_t nth_visit = 1, uint32_t count = 1);
  FaultPlan& LatentCorruption(const std::string& device, uint64_t page_no);
  FaultPlan& BitFlip(const std::string& device, uint64_t nth_visit = 1);
  FaultPlan& CrashAtVisit(Site site, uint64_t nth_visit);
  FaultPlan& CrashAtTime(uint64_t at_ns);
};

/// Everything a hook site tells the injector about one visit. `data`, when
/// non-null, points at the mutable staged bytes so corruption kinds can
/// flip bits in place. `shared_data`, when non-null, points at a stored
/// page's bytes that other devices may share: corruption kinds replace
/// the reference with an altered private copy (copy-on-write), so only
/// this device's copy goes bad. For writes the injector reports torn
/// lengths back through `torn_keep_bytes` / `torn_keep_pages`.
struct SiteEvent {
  Site site = Site::kDiskWrite;
  const char* device = "";
  uint64_t page_no = kAnyPage;
  uint64_t now_ns = 0;
  std::vector<uint8_t>* data = nullptr;  // mutable payload (buffers)
  std::shared_ptr<const std::vector<uint8_t>>* shared_data = nullptr;
  size_t write_size = 0;                 // bytes about to be written
  uint32_t track_pages = 0;              // >0 for whole-track writes

  // Outputs (set by the injector when a torn-write spec fires).
  size_t torn_keep_bytes = ~size_t{0};   // < write_size when torn
  uint32_t torn_keep_pages = ~uint32_t{0};  // < track_pages when torn
};

/// Deterministic fault injector. One instance lives in the Database's
/// stable store; every simulated device and stable-log component holds a
/// pointer and calls `OnSite` at its named sites and `Barrier` before
/// mutating stable state. Both are single-branch no-ops while disarmed.
///
/// Crash semantics: when a kCrash spec fires the injector latches
/// `crash_pending`. From then on every hook and barrier returns
/// Status::Fault — so the in-flight operation unwinds without touching
/// further stable state — until Database::Crash() calls
/// OnCrashDelivered(). Inside an atomic section (BeginAtomic/EndAtomic,
/// used for multi-step stable transitions that a real implementation
/// performs under a critical section, e.g. checkpoint commit + bin reset)
/// the crash is latched but deferred: hooks keep returning OK and the
/// section completes before the crash takes effect.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms `plan` and resets all visit counters, spec state, and the RNG.
  /// An empty plan still counts visits (used by CrashExplorer's probe).
  void Arm(FaultPlan plan);
  void Disarm();
  bool armed() const { return armed_; }

  /// Registers fault.injected.<site> counters plus the aggregate
  /// fault.injected_total and fault.crashes.
  void AttachMetrics(obs::MetricsRegistry* reg);

  /// Hook call from an injection site. Counts the visit, fires matching
  /// specs, applies in-place effects, and returns non-OK when the visit
  /// itself must fail (transient IOError, or Fault once a crash fired).
  Status OnSite(SiteEvent* ev);

  /// Stable-mutation guard: Status::Fault while a crash is pending
  /// (outside atomic sections), OK otherwise.
  Status Barrier() {
    if (!armed_ || !crash_pending_ || atomic_depth_ > 0) return Status::OK();
    return CrashedStatus();
  }

  void BeginAtomic() { ++atomic_depth_; }
  void EndAtomic() { --atomic_depth_; }

  /// Database::Crash() reports that the latched crash has been delivered;
  /// consumed specs stay consumed, so recovery runs fault-free unless the
  /// plan armed further specs.
  void OnCrashDelivered() { crash_pending_ = false; }

  bool crash_pending() const { return crash_pending_; }
  uint64_t crashes_fired() const { return crashes_fired_; }
  uint64_t visits(Site site) const {
    return visits_[static_cast<size_t>(site)];
  }
  uint64_t injected(Site site) const {
    return injected_[static_cast<size_t>(site)];
  }
  uint64_t injected_total() const { return injected_total_; }

 private:
  struct SpecState {
    FaultSpec spec;
    uint64_t matches = 0;  // matching visits seen so far
    uint64_t fired = 0;    // times this spec has fired
  };

  bool Matches(const FaultSpec& spec, const SiteEvent& ev) const;
  void NoteInjected(Site site);
  /// Flips one seed-chosen bit of the visit's payload, if it has one.
  void FlipBit(SiteEvent* ev);
  static Status CrashedStatus() {
    return Status::Fault("injected crash pending");
  }

  bool armed_ = false;
  bool crash_pending_ = false;
  int atomic_depth_ = 0;
  uint64_t crashes_fired_ = 0;
  uint64_t injected_total_ = 0;
  std::vector<SpecState> specs_;
  uint64_t visits_[kSiteCount] = {};
  uint64_t injected_[kSiteCount] = {};
  Random rng_{1};

  obs::Counter* m_injected_[kSiteCount] = {};
  obs::Counter* m_injected_total_ = nullptr;
  obs::Counter* m_crashes_ = nullptr;
};

/// Single-branch hook helper: no-op (OK) when `inj` is null or disarmed.
inline Status Hook(FaultInjector* inj, SiteEvent* ev) {
  if (inj == nullptr || !inj->armed()) return Status::OK();
  return inj->OnSite(ev);
}

/// Single-branch barrier helper for stable-mutation entry points.
inline Status Barrier(FaultInjector* inj) {
  if (inj == nullptr || !inj->armed()) return Status::OK();
  return inj->Barrier();
}

/// RAII atomic stable transition (see FaultInjector crash semantics).
class AtomicSection {
 public:
  explicit AtomicSection(FaultInjector* inj) : inj_(inj) {
    if (inj_ != nullptr) inj_->BeginAtomic();
  }
  ~AtomicSection() {
    if (inj_ != nullptr) inj_->EndAtomic();
  }
  AtomicSection(const AtomicSection&) = delete;
  AtomicSection& operator=(const AtomicSection&) = delete;

 private:
  FaultInjector* inj_;
};

}  // namespace mmdb::fault

#endif  // MMDB_FAULT_FAULT_H_
