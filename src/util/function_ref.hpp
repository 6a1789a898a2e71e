/// \file function_ref.hpp
/// A non-owning, trivially copyable callable reference.
///
/// FunctionRef<R(Args...)> is two words: a context pointer and a plain
/// function pointer. Invoking it is one indirect call — no allocation, no
/// virtual dispatch, no std::function small-buffer machinery. It does NOT
/// own the referenced callable, so the callable must outlive every use of
/// the ref; binding a temporary is a dangling reference. This is the
/// callback type of the NIC data path: TxRing's on-transmit hook, called
/// once per flush with the flushed span (the experiment harness binds its
/// latency-histogram recorder there), and the drivers' per-packet work
/// hook, where a std::function's type-erased call and potential allocation
/// would be measurable overhead.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace metro::util {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// A null ref; invoking it is undefined. Test with operator bool first.
  constexpr FunctionRef() noexcept = default;

  /// Bind an lvalue callable. Lvalue-only on purpose: a FunctionRef never
  /// extends a lifetime, so binding a temporary would dangle immediately.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F& fn) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<F*>(obj))(std::forward<Args>(args)...);
        }) {}

  /// Bind a free function directly.
  FunctionRef(R (*fn)(Args...)) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(reinterpret_cast<void*>(fn)), call_([](void* obj, Args... args) -> R {
          return reinterpret_cast<R (*)(Args...)>(obj)(std::forward<Args>(args)...);
        }) {
    if (fn == nullptr) call_ = nullptr;
  }

  /// True when a callable is bound.
  constexpr explicit operator bool() const noexcept { return call_ != nullptr; }

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace metro::util
