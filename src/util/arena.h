// Bump-pointer arena for short-lived scratch memory.
//
// The tile-MSR fan-out allocates per-chunk state (statistics blocks, result
// flags) on every parallel candidate scan. Routing those through the
// general-purpose allocator costs a lock + free per scan; an Arena turns
// each allocation into a pointer bump and each "free" into a single Reset()
// at a point where no allocation is live.
//
// Usage contract:
//  * Allocate()/AllocateArray() return uninitialized storage valid until
//    the next Reset() (or destruction). Nothing is ever freed individually
//    and destructors are NOT run — only trivially destructible payloads
//    belong in an arena.
//  * Reset() retains the capacity of the largest block seen so far, so a
//    steady-state recompute performs zero heap allocations.
//  * Not thread-safe: one arena per owner (e.g. one per MpnServer, whose
//    Recompute calls are serialized by the owning GroupSession). Parallel
//    fan-out workers may *read and write* arena-backed buffers handed to
//    them, but only the owner thread may call Allocate()/Reset().
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace mpn {

class Arena {
 public:
  /// `initial_block_bytes` sizes the first block lazily allocated on first
  /// use; subsequent blocks grow geometrically.
  explicit Arena(size_t initial_block_bytes = 1 << 14)
      : next_block_bytes_(initial_block_bytes < kMinBlockBytes
                              ? kMinBlockBytes
                              : initial_block_bytes) {}
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two), valid
  /// until Reset(). Zero-byte requests return a unique non-null pointer.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t));

  /// Typed array allocation; T must be trivially destructible (the arena
  /// never runs destructors). The storage is uninitialized.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible<T>::value,
                  "arena storage is reclaimed without running destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Invalidates every outstanding allocation and rewinds to the start of
  /// a single retained block sized for the high-water mark, so steady-state
  /// callers stop touching the heap entirely.
  void Reset();

  /// Bytes handed out since the last Reset (diagnostics).
  size_t bytes_used() const { return bytes_used_; }

  /// Capacity currently held across all blocks (diagnostics).
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Block {
    Block* prev;
    size_t size;  // payload bytes following the header
  };
  static constexpr size_t kMinBlockBytes = 1024;

  /// Allocates a fresh block of at least `min_bytes` payload and makes it
  /// current.
  void AddBlock(size_t min_bytes);

  Block* head_ = nullptr;    // current (most recent) block
  char* cursor_ = nullptr;   // next free byte in head_
  char* limit_ = nullptr;    // one past head_'s payload
  size_t next_block_bytes_;  // size of the next block to allocate
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace mpn
