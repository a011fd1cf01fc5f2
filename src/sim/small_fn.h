#ifndef MMDB_SIM_SMALL_FN_H_
#define MMDB_SIM_SMALL_FN_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace mmdb::sim {

/// Move-only callable with small-buffer storage for the event loop's
/// `void(uint64_t now_ns)` callbacks.
///
/// `std::function` heap-allocates any capture list bigger than two or
/// three pointers, which made every `EventScheduler::At` a malloc/free
/// pair on the simulator's hottest path. SmallFn keeps captures up to
/// kInlineBytes inline in the event itself (the scheduler's heap array
/// then owns all callback state with zero extra allocations) and only
/// falls back to the heap for oversized or throwing-move captures —
/// `is_inline()` lets tests pin the hot callers to the inline path.
///
/// Unlike std::function, SmallFn accepts move-only captures (e.g. a
/// `std::unique_ptr<Partition>` riding to its install event), which is
/// what lets recovered partitions travel through the event loop
/// without shared_ptr overhead.
class SmallFn {
 public:
  /// Sized for the biggest hot-path capture list: the pipelined-recovery
  /// lambdas capture ~10 enclosing locals by reference plus a lane index
  /// and a shared task pointer.
  static constexpr size_t kInlineBytes = 112;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_v<std::decay_t<F>&, uint64_t>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &kInlineVt<D>;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      vt_ = &kHeapVt<D>;
    }
  }

  SmallFn(SmallFn&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      vt_->relocate(other.buf_, buf_);
      other.vt_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      Destroy();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        vt_->relocate(other.buf_, buf_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { Destroy(); }

  void operator()(uint64_t now_ns) { vt_->invoke(buf_, now_ns); }

  explicit operator bool() const { return vt_ != nullptr; }
  /// True when the callable's captures live inside this object (no heap
  /// allocation was needed).
  bool is_inline() const { return vt_ != nullptr && vt_->inline_storage; }

 private:
  struct VTable {
    void (*invoke)(void* self, uint64_t now_ns);
    /// Move-constructs `from`'s callable into `to` and destroys the
    /// source (heap flavor just steals the pointer).
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* self);
    bool inline_storage;
  };

  template <typename D>
  static constexpr VTable kInlineVt = {
      [](void* self, uint64_t t) { (*static_cast<D*>(self))(t); },
      [](void* from, void* to) {
        D* f = static_cast<D*>(from);
        ::new (to) D(std::move(*f));
        f->~D();
      },
      [](void* self) { static_cast<D*>(self)->~D(); },
      true,
  };

  template <typename D>
  static constexpr VTable kHeapVt = {
      [](void* self, uint64_t t) { (**static_cast<D**>(self))(t); },
      [](void* from, void* to) {
        *static_cast<D**>(to) = *static_cast<D**>(from);
      },
      [](void* self) { delete *static_cast<D**>(self); },
      false,
  };

  void Destroy() {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace mmdb::sim

#endif  // MMDB_SIM_SMALL_FN_H_
