#pragma once

/**
 * @file
 * Small-buffer-optimized move-only callable for the event kernel.
 *
 * Every scheduled event carries a `void()` closure. `std::function`
 * copies, type-erases through a virtual-ish dispatch and — for
 * captures beyond its tiny internal buffer — heap-allocates. The DES
 * hot path schedules tens of millions of closures per second, so
 * InlineFn gives the kernel a dedicated callable that:
 *
 *  - stores captures up to kInlineBytes (32 B) inline, no allocation;
 *  - is move-only (events are consumed exactly once, copies are never
 *    needed), so captured state needs no copy constructor;
 *  - falls back to a single heap cell for oversized or
 *    throwing-move captures, preserving drop-in generality.
 *
 * 32 bytes exactly holds a `std::function` (32 B on libstdc++), so
 * every existing `schedule_*` call site converts implicitly, and the
 * kernel's per-event buffer moves stay at two cache-friendly 16-byte
 * pairs. InlineFn is `InlineFunction<void()>`; other signatures (a
 * fan-out join's `void(const InvocationTrace&)`) use the same storage
 * for callbacks that wait in a slab record.
 */

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace hivemind::sim {

template <typename Signature>
class InlineFunction;

/** Move-only callable with 32-byte inline capture storage. */
template <typename R, typename... Args>
class InlineFunction<R(Args...)>
{
  public:
    /** Captures up to this size (and max_align_t alignment) stay inline. */
    static constexpr std::size_t kInlineBytes = 32;

    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    /**
     * Wrap any callable of this signature. Null-testable callables
     * (function pointers, `std::function`) that are empty produce a
     * null InlineFunction, preserving the kernel's "schedule nothing"
     * tolerance.
     */
    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D&, Args...>>>
    InlineFunction(F&& f)
    {
        construct_from(std::forward<F>(f));
    }

    /**
     * Destroy the current callable (if any) and store @p f in place.
     * Used by the event kernel to build the callable directly inside
     * a slab slot, skipping the temporary-InlineFn move a
     * construct-then-assign sequence would cost per event.
     */
    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D&, Args...>>>
    void assign(F&& f)
    {
        reset();
        construct_from(std::forward<F>(f));
    }

    InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

    InlineFunction& operator=(InlineFunction&& other) noexcept
    {
        if (this != &other) {
            reset();
            move_from(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction&) = delete;
    InlineFunction& operator=(const InlineFunction&) = delete;

    ~InlineFunction() { reset(); }

    /** Invoke. Precondition: non-null. */
    R operator()(Args... args)
    {
        return invoke_(storage_, std::forward<Args>(args)...);
    }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    /** Destroy the held callable (if any); becomes null. */
    void reset() noexcept
    {
        // Managed (heap or non-trivial) callables are the exception;
        // the kernel's hot path only ever destroys trivial or
        // already-moved-from instances.
        if (manage_) [[unlikely]]
            manage_(Op::Destroy, storage_, nullptr);
        invoke_ = nullptr;
        manage_ = nullptr;
    }

    /** True when @p F would be stored without heap allocation. */
    template <typename F>
    static constexpr bool stores_inline()
    {
        return fits_inline<std::decay_t<F>>;
    }

  private:
    enum class Op
    {
        MoveTo,
        Destroy
    };

    template <typename D>
    static constexpr bool fits_inline =
        sizeof(D) <= kInlineBytes &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

    /** Heap-fallback cell: the buffer holds a single owning pointer. */
    static void*& ptr(void* storage)
    {
        return *static_cast<void**>(storage);
    }

    /** Store @p f. Precondition: *this is null. */
    template <typename F, typename D = std::decay_t<F>>
    void construct_from(F&& f)
    {
        if constexpr (std::is_constructible_v<bool, const D&>) {
            if (!static_cast<bool>(f))
                return;  // Empty std::function / null pointer: stay null.
        }
        if constexpr (fits_inline<D>) {
            ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
            invoke_ = [](void* s, Args... args) -> R {
                return (*std::launder(static_cast<D*>(s)))(
                    std::forward<Args>(args)...);
            };
            // Trivially relocatable captures (plain data, reference /
            // pointer captures — the hot-path norm) keep manage_ null:
            // moving them is a raw buffer copy with no indirect call.
            if constexpr (!(std::is_trivially_copyable_v<D> &&
                            std::is_trivially_destructible_v<D>)) {
                manage_ = [](Op op, void* self, void* dst) {
                    D* obj = std::launder(static_cast<D*>(self));
                    if (op == Op::MoveTo)
                        ::new (dst) D(std::move(*obj));
                    obj->~D();
                };
            }
        } else {
            ptr(storage_) = new D(std::forward<F>(f));
            invoke_ = [](void* s, Args... args) -> R {
                return (*static_cast<D*>(ptr(s)))(std::forward<Args>(args)...);
            };
            manage_ = [](Op op, void* self, void* dst) {
                if (op == Op::MoveTo)
                    ptr(dst) = ptr(self);
                else
                    delete static_cast<D*>(ptr(self));
            };
        }
    }

    void move_from(InlineFunction& other) noexcept
    {
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        if (manage_) [[unlikely]]
            manage_(Op::MoveTo, other.storage_, storage_);
        else if (invoke_)
            std::memcpy(storage_, other.storage_, kInlineBytes);
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    R (*invoke_)(void*, Args...) = nullptr;
    void (*manage_)(Op, void*, void*) = nullptr;
};

/** The event kernel's callable: a move-only `void()` InlineFunction. */
using InlineFn = InlineFunction<void()>;

}  // namespace hivemind::sim
