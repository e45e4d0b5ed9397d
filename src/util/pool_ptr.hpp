// Pooled reference-counted payload blocks.
//
// The simulator is single-threaded, so std::shared_ptr pays for two things
// the hot paths never need: atomic reference counts (a locked RMW per copy,
// and multicast delivery copies the payload handle once per receiver -- an
// N-1 refcount storm at 1024 nodes) and a heap allocation per control
// block.  PoolPtr replaces both: a plain 32-bit count living in a header
// directly in front of the object, and size-bucketed free lists that recycle
// whole blocks, so steady-state message traffic allocates nothing.
//
// Layout:   [PoolBlockHeader | object storage]
// The header sits at a fixed offset before the object, so a typed
// PoolPtr<const P> can decay to the type-erased PoolPtr<const void> carried
// by net::Message without losing the count or the destructor thunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace repseq::util {

namespace pool_detail {

struct BlockHeader {
  std::uint32_t refs;
  std::uint32_t bucket;        // size-class index; kUnpooled => plain delete
  void (*destroy)(void* obj);  // destructor thunk for the typed object
};

inline constexpr std::uint32_t kUnpooled = 0xffffffffu;
inline constexpr std::size_t kHeaderBytes =
    (sizeof(BlockHeader) + alignof(std::max_align_t) - 1) &
    ~(alignof(std::max_align_t) - 1);
// Size classes: 32 << i bytes of object storage, i in [0, kBuckets).
inline constexpr std::size_t kMinBucketBytes = 32;
inline constexpr std::size_t kBuckets = 10;  // up to 16 KB pooled

inline std::uint32_t bucket_for(std::size_t bytes) {
  std::size_t cap = kMinBucketBytes;
  for (std::uint32_t b = 0; b < kBuckets; ++b, cap <<= 1) {
    if (bytes <= cap) return b;
  }
  return kUnpooled;
}

inline void free_block(void* blk) {
  ::operator delete(blk, std::align_val_t{alignof(std::max_align_t)});
}

/// Set once this thread's free lists are destroyed.  Trivially destructible,
/// so it stays readable while later thread-exit and static destructors
/// release their last PoolPtrs; those blocks go straight to the allocator.
inline thread_local bool lists_torn_down = false;

/// The per-thread free lists.  Thread exit hands every parked block back to
/// the allocator, so a leak checker sees no pool memory left behind.
struct FreeLists {
  std::vector<void*> lists[kBuckets];

  ~FreeLists() {
    for (const std::vector<void*>& fl : lists) {
      for (void* blk : fl) free_block(blk);
    }
    lists_torn_down = true;
  }
};

/// The bucket's free list, or nullptr once the lists are torn down.
inline std::vector<void*>* free_list(std::uint32_t bucket) {
  if (lists_torn_down) return nullptr;
  thread_local FreeLists fl;
  return &fl.lists[bucket];
}

/// Returns a block with room for `bytes` of object storage; the header is
/// uninitialized.  Blocks come from the matching free list when available.
inline void* acquire_block(std::size_t bytes, std::uint32_t& bucket_out) {
  const std::uint32_t b = bucket_for(bytes);
  bucket_out = b;
  if (b != kUnpooled) {
    std::vector<void*>* fl = free_list(b);
    if (fl != nullptr && !fl->empty()) {
      void* blk = fl->back();
      fl->pop_back();
      return blk;
    }
    return ::operator new(kHeaderBytes + (kMinBucketBytes << b),
                          std::align_val_t{alignof(std::max_align_t)});
  }
  return ::operator new(kHeaderBytes + bytes,
                        std::align_val_t{alignof(std::max_align_t)});
}

inline void release_block(void* blk, std::uint32_t bucket) {
  std::vector<void*>* fl = bucket != kUnpooled ? free_list(bucket) : nullptr;
  if (fl != nullptr) {
    fl->push_back(blk);
  } else {
    free_block(blk);
  }
}

inline BlockHeader* header_of(const void* obj) {
  return reinterpret_cast<BlockHeader*>(
      reinterpret_cast<char*>(const_cast<void*>(obj)) -
      static_cast<std::ptrdiff_t>(kHeaderBytes));
}

}  // namespace pool_detail

/// Non-atomic, pool-backed shared pointer.  Copying bumps a plain counter;
/// the last owner runs the destructor thunk and recycles the block.  NOT
/// thread-safe -- the simulator is single-threaded by construction.
template <typename T>
class PoolPtr {
 public:
  PoolPtr() = default;
  PoolPtr(std::nullptr_t) {}  // NOLINT: shared_ptr-style ergonomics

  PoolPtr(const PoolPtr& o) : obj_(o.obj_) { retain(); }
  PoolPtr(PoolPtr&& o) noexcept : obj_(o.obj_) { o.obj_ = nullptr; }

  /// Typed -> type-erased (or derived -> base) conversion; the header
  /// offset is fixed, so the count and destructor thunk survive erasure.
  template <typename U, typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  PoolPtr(const PoolPtr<U>& o) : obj_(o.get()) {  // NOLINT: converting ctor
    retain();
  }
  template <typename U, typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  PoolPtr(PoolPtr<U>&& o) noexcept : obj_(o.get()) {  // NOLINT: converting ctor
    o.detach();
  }

  PoolPtr& operator=(const PoolPtr& o) {
    if (this != &o) {
      release();
      obj_ = o.obj_;
      retain();
    }
    return *this;
  }
  PoolPtr& operator=(PoolPtr&& o) noexcept {
    if (this != &o) {
      release();
      obj_ = o.obj_;
      o.obj_ = nullptr;
    }
    return *this;
  }
  PoolPtr& operator=(std::nullptr_t) {
    release();
    obj_ = nullptr;
    return *this;
  }

  ~PoolPtr() { release(); }

  [[nodiscard]] T* get() const { return obj_; }
  [[nodiscard]] T* operator->() const { return obj_; }
  template <typename V = T, typename = std::enable_if_t<!std::is_void_v<V>>>
  [[nodiscard]] V& operator*() const {
    return *obj_;
  }
  [[nodiscard]] explicit operator bool() const { return obj_ != nullptr; }
  [[nodiscard]] bool operator==(std::nullptr_t) const { return obj_ == nullptr; }
  [[nodiscard]] bool operator!=(std::nullptr_t) const { return obj_ != nullptr; }
  template <typename U>
  [[nodiscard]] bool operator==(const PoolPtr<U>& o) const {
    return static_cast<const void*>(obj_) == static_cast<const void*>(o.get());
  }
  template <typename U>
  [[nodiscard]] bool operator!=(const PoolPtr<U>& o) const {
    return !(*this == o);
  }

  /// Releases ownership without touching the count (used by converting
  /// moves; public because PoolPtr<U> is a distinct type).
  void detach() { obj_ = nullptr; }

  /// Adopts `obj`, which must be block storage with a live header whose
  /// count already includes this reference (used by make_pooled).
  static PoolPtr adopt(T* obj) {
    PoolPtr p;
    p.obj_ = obj;
    return p;
  }

 private:
  void retain() {
    if (obj_ != nullptr) ++pool_detail::header_of(obj_)->refs;
  }
  void release() {
    if (obj_ == nullptr) return;
    pool_detail::BlockHeader* h = pool_detail::header_of(obj_);
    if (--h->refs == 0) {
      const std::uint32_t bucket = h->bucket;
      h->destroy(const_cast<void*>(static_cast<const void*>(obj_)));
      pool_detail::release_block(h, bucket);
    }
  }

  T* obj_ = nullptr;
};

/// Constructs a T in a pooled block and returns an owning PoolPtr<T>
/// (implicitly convertible to PoolPtr<const T> / PoolPtr<const void>).
template <typename T, typename... Args>
PoolPtr<T> make_pooled(Args&&... args) {
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "over-aligned payloads are not supported by the block pool");
  std::uint32_t bucket = 0;
  void* blk = pool_detail::acquire_block(sizeof(T), bucket);
  auto* h = static_cast<pool_detail::BlockHeader*>(blk);
  void* storage = static_cast<char*>(blk) + pool_detail::kHeaderBytes;
  T* obj;
  try {
    obj = ::new (storage) T(std::forward<Args>(args)...);
  } catch (...) {
    pool_detail::release_block(blk, bucket);
    throw;
  }
  h->refs = 1;
  h->bucket = bucket;
  h->destroy = [](void* p) { static_cast<T*>(p)->~T(); };
  return PoolPtr<T>::adopt(obj);
}

}  // namespace repseq::util
