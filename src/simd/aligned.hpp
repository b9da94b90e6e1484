// Over-aligned allocation for the SoA arrays the hot loops stream.
//
// Alignment is not a correctness requirement -- it is a layout
// guarantee: a 64-byte-aligned array starts on a cache line and never
// false-shares its head with a neighboring allocation's tail. The probe
// label arrays and the grid's flat cell arrays are written by one worker
// and scanned in tight loops, so that matters there.
//
// kSoAlign = 64 covers one full cache line.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

namespace gsp::simd {

inline constexpr std::size_t kSoAlign = 64;

/// Minimal C++17 allocator handing out storage aligned to `Align` bytes.
/// Propagates nothing, compares equal always (stateless), and rebinding
/// keeps the alignment -- exactly what std::vector needs.
template <class T, std::size_t Align = kSoAlign>
class AlignedAllocator {
    static_assert((Align & (Align - 1)) == 0, "alignment must be a power of two");
    static_assert(Align >= alignof(T), "alignment must not weaken the type's own");

public:
    using value_type = T;
    using size_type = std::size_t;
    using difference_type = std::ptrdiff_t;

    template <class U>
    struct rebind {
        using other = AlignedAllocator<U, Align>;
    };

    AlignedAllocator() noexcept = default;
    template <class U>
    AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

    [[nodiscard]] T* allocate(std::size_t n) {
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
            throw std::bad_alloc();
        }
        // operator new with extended alignment: portable (no posix_memalign
        // / _aligned_malloc split) and ASan-instrumented like every other
        // allocation in the codebase.
        return static_cast<T*>(
            ::operator new(n * sizeof(T), std::align_val_t{Align}));
    }

    void deallocate(T* p, std::size_t) noexcept {
        ::operator delete(p, std::align_val_t{Align});
    }

    friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
        return true;
    }
};

/// The vector type the SoA arrays use: std::vector semantics, cache-line
/// aligned storage.
template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace gsp::simd
