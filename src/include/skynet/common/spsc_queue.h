// Bounded single-producer / single-consumer command queue.
//
// Backs the sharded engine's per-shard command stream: the caller thread
// pushes ingest batches and tick barriers, exactly one worker pops.
// Lock-free power-of-two ring buffer. Both endpoints use bounded
// spin-then-park waiting (C++20 atomic wait/notify): a consumer facing a
// dropped producer, or a producer facing a stalled shard, sleeps on a
// futex after a short yield phase instead of burning a core — the
// degradation semantics the fault-injection suite exercises. try_push
// never blocks, which is what the sharded engine's supervised push
// (watchdog) polls with.
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace skynet {

template <typename T>
class spsc_queue {
public:
    explicit spsc_queue(std::size_t capacity) {
        std::size_t cap = 1;
        while (cap < capacity) cap <<= 1;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    /// Producer only; non-blocking. False when the ring is full.
    bool try_push(T& value) {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        if (tail - head_.load(std::memory_order_acquire) > mask_) return false;
        slots_[tail & mask_] = std::move(value);
        tail_.store(tail + 1, std::memory_order_release);
        tail_.notify_one();
        return true;
    }

    /// Producer only. Blocks while the ring is full — a short yield spin,
    /// then parks until the consumer frees a slot, so a stalled shard
    /// cannot make the caller burn a core. Returns how many times it had
    /// to wait (backpressure, surfaced as a metric).
    std::size_t push(T value) {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        std::size_t waits = 0;
        std::size_t spins = 0;
        for (;;) {
            const std::size_t head = head_.load(std::memory_order_acquire);
            if (tail - head <= mask_) break;
            ++waits;
            if (++spins <= spin_limit) {
                std::this_thread::yield();
            } else {
                // Park until head_ moves past the value we saw; the wait
                // rechecks the value, so a pop between our load and the
                // sleep just returns immediately.
                head_.wait(head, std::memory_order_acquire);
            }
        }
        slots_[tail & mask_] = std::move(value);
        tail_.store(tail + 1, std::memory_order_release);
        tail_.notify_one();
        return waits;
    }

    /// Consumer only; non-blocking. False when the queue is empty.
    bool try_pop(T& out) {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        if (head == tail_.load(std::memory_order_acquire)) return false;
        out = std::move(slots_[head & mask_]);
        head_.store(head + 1, std::memory_order_release);
        head_.notify_one();
        return true;
    }

    /// Consumer only; sleeps until an item is available — bounded yield
    /// spin first (the common fast path under load), then a futex park,
    /// so a dropped producer cannot make an idle worker burn a core.
    /// Shutdown is a queue message, not a flag, so wakeups cannot be
    /// missed.
    void pop_blocking(T& out) {
        std::size_t spins = 0;
        for (;;) {
            if (try_pop(out)) return;
            if (++spins <= spin_limit) {
                std::this_thread::yield();
                continue;
            }
            // Empty: park until tail_ moves past the value we saw.
            tail_.wait(head_.load(std::memory_order_relaxed), std::memory_order_acquire);
        }
    }

    /// Approximate occupancy (exact from either endpoint's own thread).
    [[nodiscard]] std::size_t size() const noexcept {
        return tail_.load(std::memory_order_acquire) - head_.load(std::memory_order_acquire);
    }
    [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

private:
    /// Yields tolerated before parking. Short: a healthy peer responds in
    /// far fewer; past this the peer is presumed stalled or gone.
    static constexpr std::size_t spin_limit = 64;

    std::vector<T> slots_;
    std::size_t mask_{0};
    // Separate cache lines so producer stores do not thrash consumer loads.
    alignas(64) std::atomic<std::size_t> head_{0};
    alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace skynet
