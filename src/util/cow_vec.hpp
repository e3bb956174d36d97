#pragma once

// Chunked copy-on-write vector: the storage primitive behind versioned
// timing state (DESIGN.md §14).
//
// Elements live in fixed-size chunks (~16 KiB) addressed through a chunk
// table; both chunks and the table carry atomic refcounts. fork() is O(1)
// (one table refcount bump); writers privatize the chunks they are about
// to touch, so the cost of mutating under live snapshots is O(chunks
// touched), never O(arena).
//
// Thread contract:
//  - fork()/privatize*/mut()/assign() are writer-side operations: exactly
//    one thread (the coordinating thread of the owning Timer) may call
//    them at a time.
//  - const reads on a forked handle are safe from any number of threads
//    concurrently with writer mutation, because the writer only ever
//    writes chunks whose refcount it has proven to be 1 (i.e. chunks no
//    fork can see). Publication of a fork to another thread must itself
//    be synchronized (mutex, atomic shared_ptr, thread start).
//  - Releasing a fork (destructor) is safe from any thread: refcounts are
//    atomic, and the releaser frees a chunk only when it held the last
//    reference, which the writer by construction no longer shares.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace mgba {

template <typename T>
class CowVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "CowVec chunks are cloned and compared bytewise");

 public:
  // Largest power-of-two element count with chunk payload <= 16 KiB.
  // 16 KiB keeps privatization of a scattered ECO cone cheap (a handful
  // of chunks) while bounding table size to ~0.05% of payload.
  static constexpr std::size_t kTargetChunkBytes = 16 * 1024;

 private:
  static constexpr std::size_t compute_shift() {
    std::size_t budget = kTargetChunkBytes / sizeof(T);
    if (budget <= 1) return 0;
    std::size_t shift = 0;
    while ((std::size_t{2} << shift) <= budget) ++shift;
    return shift;
  }

 public:
  static constexpr std::size_t kShift = compute_shift();
  static constexpr std::size_t kChunkElems = std::size_t{1} << kShift;
  static constexpr std::size_t kMask = kChunkElems - 1;

  CowVec() = default;

  // Copying a CowVec IS the fork: O(1), one atomic increment.
  CowVec(const CowVec& other) : table_(other.table_) {
    if (table_) table_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  CowVec(CowVec&& other) noexcept : table_(other.table_) {
    other.table_ = nullptr;
  }
  CowVec& operator=(const CowVec& other) {
    if (this != &other) {
      CowVec tmp(other);
      std::swap(table_, tmp.table_);
    }
    return *this;
  }
  CowVec& operator=(CowVec&& other) noexcept {
    if (this != &other) {
      release();
      table_ = other.table_;
      other.table_ = nullptr;
    }
    return *this;
  }
  ~CowVec() { release(); }

  [[nodiscard]] CowVec fork() const { return CowVec(*this); }

  std::size_t size() const { return table_ ? table_->size : 0; }
  bool empty() const { return size() == 0; }
  // Logical payload bytes (matches the flat-vector accounting it replaced).
  std::size_t bytes() const { return size() * sizeof(T); }

  // Discard current contents and hold `n` copies of `value`. Reuses the
  // allocation in place when this handle is the sole owner of a
  // same-sized table (privatizing any chunks a fork still shares);
  // otherwise detaches onto fresh storage and leaves forks untouched.
  void assign(std::size_t n, const T& value) {
    if (table_ && table_->size == n &&
        table_->refs.load(std::memory_order_acquire) == 1) {
      for (std::size_t ci = 0; ci < table_->chunks.size(); ++ci) {
        privatize_chunk(ci);
        fill_chunk(table_->chunks[ci], value);
      }
      return;
    }
    release();
    if (n == 0) return;
    table_ = new Table;
    table_->size = n;
    table_->chunks.resize((n + kMask) >> kShift, nullptr);
    for (Chunk*& c : table_->chunks) {
      c = new Chunk;
      fill_chunk(c, value);
    }
  }

  // Discard current contents and hold `n` slots left unwritten: the
  // caller writes every slot (copy_from, fill_range, write_range) before
  // reading one, so no slot is written twice. No chunk exists until a
  // write reaches it, so a chunk copy_from shares is never allocated.
  void assign_for_overwrite(std::size_t n) {
    release();
    if (n == 0) return;
    table_ = new Table;
    table_->size = n;
    table_->chunks.assign((n + kMask) >> kShift, nullptr);
  }

  // Copy `src` slots [from, from + len) into slots [to, to + len).
  // Writer-side. A chunk the copy covers whole, read from a source chunk at
  // the same offset, is shared with `src` (a fork of that chunk) instead of
  // copied.
  void copy_from(const CowVec& src, std::size_t from, std::size_t to,
                 std::size_t len) {
    if (len == 0) return;
    ensure_unique_table();
    const std::size_t end = to + len;
    std::size_t at = to;
    while (at < end) {
      const std::size_t ci = at >> kShift;
      const std::size_t chunk_end = std::min(end, (ci + 1) << kShift);
      const std::size_t chunk_live =
          std::min(table_->size, (ci + 1) << kShift) - (ci << kShift);
      if ((at & kMask) == 0 && ((from + (at - to)) & kMask) == 0 &&
          chunk_end - at == chunk_live) {
        Chunk* shared = src.table_->chunks[(from + (at - to)) >> kShift];
        shared->refs.fetch_add(1, std::memory_order_relaxed);
        if (table_->chunks[ci] != nullptr) release_chunk(table_->chunks[ci]);
        table_->chunks[ci] = shared;
        at = chunk_end;
        continue;
      }
      privatize_chunk(ci);
      Chunk* c = table_->chunks[ci];
      while (at < chunk_end) {
        const std::size_t s = from + (at - to);
        const std::size_t n =
            std::min(chunk_end - at, kChunkElems - (s & kMask));
        std::memcpy(c->data + (at & kMask),
                    src.table_->chunks[s >> kShift]->data + (s & kMask),
                    n * sizeof(T));
        at += n;
      }
    }
  }

  const T& operator[](std::size_t i) const {
    return table_->chunks[i >> kShift]->data[i & kMask];
  }

  // Mutable access to a slot the caller has already privatized. Never
  // clones: cloning here would race when pool workers write disjoint
  // slots of a chunk concurrently, so privatization is hoisted to the
  // coordinating thread (see Timer's choke points).
  T& mut(std::size_t i) {
    Chunk* c = table_->chunks[i >> kShift];
    assert(table_->refs.load(std::memory_order_relaxed) == 1 &&
           c->refs.load(std::memory_order_relaxed) == 1 &&
           "CowVec::mut on a shared chunk; privatize first");
    return c->data[i & kMask];
  }

  // Ensure the chunk holding slot `i` is exclusively owned. Writer-side.
  void privatize(std::size_t i) {
    ensure_unique_table();
    privatize_chunk(i >> kShift);
  }

  void privatize_all() {
    if (!table_) return;
    ensure_unique_table();
    for (std::size_t ci = 0; ci < table_->chunks.size(); ++ci)
      privatize_chunk(ci);
  }

  // fill [begin, end) with `value`, privatizing as needed. Writer-side.
  void fill_range(std::size_t begin, std::size_t end, const T& value) {
    if (begin >= end) return;
    ensure_unique_table();
    const std::size_t last = (end - 1) >> kShift;
    for (std::size_t ci = begin >> kShift; ci <= last; ++ci) {
      privatize_chunk(ci);
      Chunk* c = table_->chunks[ci];
      const std::size_t lo = std::max(begin, ci << kShift) & kMask;
      const std::size_t hi_abs = std::min(end, (ci + 1) << kShift);
      const std::size_t hi = ((hi_abs - 1) & kMask) + 1;
      for (std::size_t k = lo; k < hi; ++k) c->data[k] = value;
    }
  }

  // Bulk copy src[0..n) into slots [begin, begin + n), privatizing the
  // chunks it touches. Writer-side (coordinating thread only): the full
  // timing sweeps compute into flat scratch and publish through this choke
  // point, so pool workers never touch COW state.
  void write_range(std::size_t begin, const T* src, std::size_t n) {
    if (n == 0) return;
    ensure_unique_table();
    const std::size_t end = begin + n;
    const std::size_t last = (end - 1) >> kShift;
    for (std::size_t ci = begin >> kShift; ci <= last; ++ci) {
      const std::size_t lo_abs = std::max(begin, ci << kShift);
      const std::size_t hi_abs = std::min(end, (ci + 1) << kShift);
      const std::size_t chunk_live =
          std::min(table_->size, (ci + 1) << kShift) - (ci << kShift);
      Chunk* c = table_->chunks[ci];
      if (hi_abs - lo_abs == chunk_live && c != nullptr &&
          c->refs.load(std::memory_order_acquire) > 1) {
        // The write covers the chunk's whole live span: take a fresh
        // chunk instead of cloning bytes we are about to overwrite.
        Chunk* fresh = new Chunk;
        table_->chunks[ci] = fresh;
        release_chunk(c);
        c = fresh;
      } else {
        privatize_chunk(ci);
        c = table_->chunks[ci];
      }
      std::memcpy(c->data + (lo_abs & kMask), src + (lo_abs - begin),
                  (hi_abs - lo_abs) * sizeof(T));
    }
  }

  // Bulk copy slots [begin, begin + n) into dst. Safe concurrently with
  // other readers; not concurrently with writer mutation of these slots.
  void read_range(std::size_t begin, T* dst, std::size_t n) const {
    if (n == 0) return;
    const std::size_t end = begin + n;
    const std::size_t last = (end - 1) >> kShift;
    for (std::size_t ci = begin >> kShift; ci <= last; ++ci) {
      const std::size_t lo_abs = std::max(begin, ci << kShift);
      const std::size_t hi_abs = std::min(end, (ci + 1) << kShift);
      std::memcpy(dst + (lo_abs - begin),
                  table_->chunks[ci]->data + (lo_abs & kMask),
                  (hi_abs - lo_abs) * sizeof(T));
    }
  }

  struct Stats {
    std::size_t chunks = 0;         // total chunks reachable from this handle
    std::size_t shared_chunks = 0;  // chunks some other handle also holds
    std::size_t chunk_bytes = 0;    // allocated payload (incl. tail slack)
  };
  Stats stats() const {
    Stats s;
    if (!table_) return s;
    s.chunks = table_->chunks.size();
    s.chunk_bytes = s.chunks * sizeof(Chunk);
    const bool table_shared =
        table_->refs.load(std::memory_order_relaxed) > 1;
    for (const Chunk* c : table_->chunks) {
      if (table_shared || c->refs.load(std::memory_order_relaxed) > 1)
        ++s.shared_chunks;
    }
    return s;
  }

  // Bytes of chunks this handle holds that `other` does not share —
  // i.e. what this fork retains beyond the head it forked from.
  std::size_t diverged_bytes(const CowVec& other) const {
    if (!table_) return 0;
    if (table_ == other.table_) return 0;
    std::size_t n = 0;
    const std::size_t common =
        other.table_ ? std::min(table_->chunks.size(),
                                other.table_->chunks.size())
                     : 0;
    for (std::size_t ci = 0; ci < table_->chunks.size(); ++ci) {
      if (ci >= common || table_->chunks[ci] != other.table_->chunks[ci])
        n += sizeof(Chunk);
    }
    return n;
  }

  // Invoke fn(begin, end) for each maximal index range whose backing
  // chunk differs (by pointer) from `other`'s. Equal chunk pointers are
  // guaranteed bit-identical if the two handles share fork ancestry,
  // because a chunk is never written after its refcount exceeds one.
  template <typename Fn>
  void for_each_diverged_range(const CowVec& other, Fn&& fn) const {
    const std::size_t n = size();
    if (n == 0) return;
    if (table_ == other.table_) return;
    if (!other.table_ || other.size() != n) {
      fn(std::size_t{0}, n);
      return;
    }
    for (std::size_t ci = 0; ci < table_->chunks.size(); ++ci) {
      if (table_->chunks[ci] == other.table_->chunks[ci]) continue;
      fn(ci << kShift, std::min(n, (ci + 1) << kShift));
    }
  }

  bool bytes_equal(const CowVec& other) const {
    const std::size_t n = size();
    if (other.size() != n) return false;
    if (n == 0 || table_ == other.table_) return true;
    for (std::size_t ci = 0; ci < table_->chunks.size(); ++ci) {
      const Chunk* a = table_->chunks[ci];
      const Chunk* b = other.table_->chunks[ci];
      if (a == b) continue;
      const std::size_t span = std::min(n - (ci << kShift), kChunkElems);
      if (std::memcmp(a->data, b->data, span * sizeof(T)) != 0) return false;
    }
    return true;
  }

  // Append the logical element bytes to `out` (arena dump helper).
  void append_raw(std::vector<std::uint8_t>& out) const {
    const std::size_t n = size();
    for (std::size_t ci = 0; ci < (table_ ? table_->chunks.size() : 0); ++ci) {
      const std::size_t span = std::min(n - (ci << kShift), kChunkElems);
      const auto* p =
          reinterpret_cast<const std::uint8_t*>(table_->chunks[ci]->data);
      out.insert(out.end(), p, p + span * sizeof(T));
    }
  }

 private:
  struct Chunk {
    std::atomic<std::uint32_t> refs{1};
    T data[kChunkElems];
  };
  struct Table {
    std::atomic<std::uint32_t> refs{1};
    std::size_t size = 0;
    std::vector<Chunk*> chunks;
  };

  static void fill_chunk(Chunk* c, const T& value) {
    for (std::size_t k = 0; k < kChunkElems; ++k) c->data[k] = value;
  }

  static void release_chunk(Chunk* c) {
    if (c->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete c;
  }

  void release() {
    if (!table_) return;
    if (table_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      for (Chunk* c : table_->chunks) {
        if (c != nullptr) release_chunk(c);
      }
      delete table_;
    }
    table_ = nullptr;
  }

  // Split off a private table if forks share ours. Chunk refs are bumped
  // before our table ref is dropped, so a fork releasing concurrently can
  // never free a chunk we are about to own.
  void ensure_unique_table() {
    if (!table_ || table_->refs.load(std::memory_order_acquire) == 1) return;
    Table* fresh = new Table;
    fresh->size = table_->size;
    fresh->chunks = table_->chunks;
    for (Chunk* c : fresh->chunks) {
      if (c != nullptr) c->refs.fetch_add(1, std::memory_order_relaxed);
    }
    release();
    table_ = fresh;
  }

  // Requires a unique table. Clone the chunk if a fork still shares it;
  // allocate it if assign_for_overwrite left it unwritten.
  void privatize_chunk(std::size_t ci) {
    Chunk* c = table_->chunks[ci];
    if (c == nullptr) {
      table_->chunks[ci] = new Chunk;
      return;
    }
    if (c->refs.load(std::memory_order_acquire) == 1) return;
    Chunk* fresh = new Chunk;
    std::memcpy(fresh->data, c->data, sizeof(fresh->data));
    table_->chunks[ci] = fresh;
    release_chunk(c);
  }

  Table* table_ = nullptr;
};

}  // namespace mgba
