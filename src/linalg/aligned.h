// Cache-line-aligned storage for the dense linear-algebra types.
//
// The batched scoring kernels (kernels.h) stream rows of |V| × d context
// matrices through SIMD lanes; 64-byte alignment guarantees every row-major
// buffer starts on a cache-line boundary so vector loads never straddle
// lines and the compiler may emit aligned moves. The allocator is a drop-in
// for std::allocator<double> inside std::vector.
#ifndef FASEA_LINALG_ALIGNED_H_
#define FASEA_LINALG_ALIGNED_H_

#include <cstddef>
#include <new>

namespace fasea {

/// Alignment of every Vector/Matrix buffer, in bytes. One x86 cache line;
/// also the widest vector register, the AVX-512F kernel tier's.
inline constexpr std::size_t kLinalgAlignment = 64;

template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t(kLinalgAlignment)));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t(kLinalgAlignment));
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

}  // namespace fasea

#endif  // FASEA_LINALG_ALIGNED_H_
