// Fixed-capacity single-producer / single-consumer ring.
//
// The ingest fast path (pdns/sharded_store) keeps one of these per shard:
// the decode/route thread pushes routed observations while each shard's
// owner thread pops and folds them, so decoding, routing, and shard ingest
// run concurrently instead of one after another.
//
// Contract: exactly one producer thread and exactly one consumer thread.
// The producer owns `tail_`, the consumer owns `head_`; each side reads the
// other's index with acquire ordering and publishes its own with release
// ordering (classic Lamport queue).  Both sides keep a cached copy of the
// remote index so the common case touches one shared cache line only when
// the cached view says the ring might be full/empty.
//
// close() is the producer's end-of-stream signal: after the consumer sees
// the ring empty *and* closed, no further element can arrive, so
// `pop_wait` returning false is a proof of complete drain (the shutdown
// test in tests/ingest_fastpath_test pins that no element is lost).
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace nxd::util {

template <typename T>
class SpscRing {
 public:
  /// Holds up to `capacity` elements (capacity >= 1).
  explicit SpscRing(std::size_t capacity)
      : slots_(capacity < 1 ? 2 : capacity + 1), buf_(slots_) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return slots_ - 1; }

  /// Producer side.  False when the ring is full.
  bool try_push(const T& v) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t next = advance(tail);
    if (next == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (next == cached_head_) return false;
    }
    buf_[tail] = v;
    tail_.store(next, std::memory_order_release);
    return true;
  }

  /// Producer side: spin (yielding) until the element fits.  Only safe while
  /// a consumer is draining the ring — with no consumer this never returns.
  void push(const T& v) {
    while (!try_push(v)) std::this_thread::yield();
  }

  /// Consumer side.  False when the ring is currently empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    out = buf_[head];
    head_.store(advance(head), std::memory_order_release);
    return true;
  }

  /// Consumer side: block (spin + yield) until an element arrives or the
  /// producer has closed the ring and every element has been drained.
  /// Returns false only on the latter — a complete-drain proof.
  bool pop_wait(T& out) {
    for (;;) {
      if (try_pop(out)) return true;
      if (closed_.load(std::memory_order_acquire)) {
        // Re-check: the producer may have pushed between the failed pop and
        // the close flag being set.
        if (try_pop(out)) return true;
        return false;
      }
      std::this_thread::yield();
    }
  }

  /// Producer side: no further pushes will happen.
  void close() noexcept { closed_.store(true, std::memory_order_release); }
  bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  /// Approximate (racy) element count; exact when called from a quiescent
  /// ring.
  std::size_t size() const noexcept {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : slots_ - (head - tail);
  }

  bool empty() const noexcept { return size() == 0; }

 private:
  std::size_t advance(std::size_t i) const noexcept {
    return i + 1 == slots_ ? 0 : i + 1;
  }

  const std::size_t slots_;  // capacity + 1 (one slot kept empty = full mark)
  std::vector<T> buf_;

  alignas(64) std::atomic<std::size_t> head_{0};  // consumer-owned
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer-owned
  alignas(64) std::atomic<bool> closed_{false};

  // Single-side caches of the remote index (not shared, so not atomic).
  alignas(64) std::size_t cached_head_ = 0;  // producer's view of head_
  alignas(64) std::size_t cached_tail_ = 0;  // consumer's view of tail_
};

}  // namespace nxd::util
