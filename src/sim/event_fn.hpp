// Small-buffer callables for simulation events and completion callbacks.
//
// InlineFn<R(Args...), N> stands in for std::function on the kernel's and
// the controllers' hottest paths. The simulator fires tens of millions of
// events per host second, and every memory operation carries a completion
// callback; std::function heap-allocates any capture over its
// (implementation-defined, ~16-byte) small-object threshold. InlineFn
// stores captures up to N bytes in place, relocates with a single indirect
// call (or a fixed-size memcpy for trivially copyable captures), and falls
// back to one heap cell only for oversized or throwing-move callables.
//
// EventFn is the kernel's void() event: 48 bytes inline, enough for six
// pointers or a bound completion callback plus a word.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace bcsim::sim {

template <typename Signature, std::size_t InlineBytes>
class InlineFn;

/// Move-only type-erased R(Args...) callable with InlineBytes of inline
/// storage.
template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFn<R(Args...), InlineBytes> {
 public:
  /// Captures up to this many bytes (with at most pointer alignment) are
  /// stored inline; anything larger lives in a single heap cell.
  static constexpr std::size_t kInlineBytes = InlineBytes;

  InlineFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn> &&
                                        std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    emplace<std::decay_t<F>>(std::forward<F>(f));
  }

  InlineFn(InlineFn&& o) noexcept : vt_(o.vt_) {
    if (vt_ != nullptr) {
      relocate_from(o);
      o.vt_ = nullptr;
    }
  }
  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      vt_ = o.vt_;
      if (vt_ != nullptr) {
        relocate_from(o);
        o.vt_ = nullptr;
      }
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept { return vt_ != nullptr; }

  /// Invokes the callable. Precondition: non-empty.
  R operator()(Args... args) { return vt_->call(buf_, std::forward<Args>(args)...); }

 private:
  struct VTable {
    R (*call)(void*, Args&&...);
    /// Move-constructs into dst from src and destroys src (dst is raw).
    /// nullptr means "memcpy the buffer" — most captures are a few
    /// pointers, and skipping the indirect call matters: the event queue
    /// relocates events on growth and hands them out on every pop.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr means "trivially destructible" for the same reason.
    void (*destroy)(void*) noexcept;
  };

  template <typename F>
  static R invoke(F& f, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      f(std::forward<Args>(args)...);
    } else {
      return f(std::forward<Args>(args)...);
    }
  }

  template <typename F>
  void emplace(F f) {
    if constexpr (sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
                  std::is_trivially_copyable_v<F> && std::is_trivially_destructible_v<F>) {
      ::new (static_cast<void*>(buf_)) F(std::move(f));
      static constexpr VTable vt = {
          [](void* p, Args&&... args) -> R {
            return invoke(*std::launder(reinterpret_cast<F*>(p)), std::forward<Args>(args)...);
          },
          nullptr,
          nullptr,
      };
      vt_ = &vt;
    } else if constexpr (sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
                         std::is_nothrow_move_constructible_v<F>) {
      ::new (static_cast<void*>(buf_)) F(std::move(f));
      static constexpr VTable vt = {
          [](void* p, Args&&... args) -> R {
            return invoke(*std::launder(reinterpret_cast<F*>(p)), std::forward<Args>(args)...);
          },
          [](void* dst, void* src) noexcept {
            F* s = std::launder(reinterpret_cast<F*>(src));
            ::new (dst) F(std::move(*s));
            s->~F();
          },
          [](void* p) noexcept { std::launder(reinterpret_cast<F*>(p))->~F(); },
      };
      vt_ = &vt;
    } else {
      ::new (static_cast<void*>(buf_)) F*(new F(std::move(f)));
      static constexpr VTable vt = {
          [](void* p, Args&&... args) -> R {
            return invoke(**std::launder(reinterpret_cast<F**>(p)), std::forward<Args>(args)...);
          },
          [](void* dst, void* src) noexcept {
            ::new (dst) F*(*std::launder(reinterpret_cast<F**>(src)));
          },
          [](void* p) noexcept { delete *std::launder(reinterpret_cast<F**>(p)); },
      };
      vt_ = &vt;
    }
  }

  void relocate_from(InlineFn& o) noexcept {
    if (vt_->relocate != nullptr) {
      vt_->relocate(buf_, o.buf_);
    } else {
      // Copies the whole buffer even when the stored object is smaller —
      // a fixed-size memcpy beats a size load + variable copy, and reading
      // the uninitialized tail of a byte array is harmless (GCC flags it
      // as maybe-uninitialized anyway).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
      std::memcpy(buf_, o.buf_, kInlineBytes);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    }
  }

  void reset() noexcept {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(void*) std::byte buf_[kInlineBytes];
};

/// The kernel's event callable: void(), six pointers inline.
using EventFn = InlineFn<void(), 48>;

}  // namespace bcsim::sim
