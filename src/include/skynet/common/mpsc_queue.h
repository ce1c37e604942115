// Bounded multi-producer / single-consumer batch-handoff queue.
//
// Generalizes spsc_queue to many producers: thief workers that finish
// preparing a stolen ingest batch hand the result back to the owning
// shard through one of these, so the owner never polls per-thief state.
// Classic Vyukov bounded-queue layout — each slot carries a sequence
// number that tickets producers (who CAS the tail) and tells the single
// consumer when a slot's value is fully published. Per-slot release /
// acquire ordering means a popped value happens-after everything the
// producer did before pushing.
//
// Waiting mirrors spsc_queue: bounded yield spin, then a futex park on a
// progress counter (pushes_ for the consumer, pops_ for producers), so
// neither side burns a core waiting on a stalled peer. Each waiter loads
// the counter *before* its failed try and parks on that value: a peer
// that makes progress in between has already moved the counter, so the
// park returns at once instead of sleeping through the wakeup.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace skynet {

template <typename T>
class mpsc_queue {
public:
    explicit mpsc_queue(std::size_t capacity) {
        std::size_t cap = 1;
        while (cap < capacity) cap <<= 1;
        cells_ = std::vector<cell>(cap);
        mask_ = cap - 1;
        for (std::size_t i = 0; i < cap; ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
    }

    /// Any thread; non-blocking. False when the ring is full.
    bool try_push(T& value) {
        std::size_t pos = tail_.load(std::memory_order_relaxed);
        for (;;) {
            cell& c = cells_[pos & mask_];
            const std::size_t seq = c.seq.load(std::memory_order_acquire);
            const auto dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
            if (dif == 0) {
                // Slot free at our ticket: claim it by advancing the tail.
                if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed))
                    break;
            } else if (dif < 0) {
                return false;  // full: consumer has not recycled this slot
            } else {
                pos = tail_.load(std::memory_order_relaxed);  // lost a race
            }
        }
        cell& c = cells_[pos & mask_];
        c.value = std::move(value);
        c.seq.store(pos + 1, std::memory_order_release);
        pushes_.fetch_add(1, std::memory_order_release);
        pushes_.notify_one();
        return true;
    }

    /// Any thread. Blocks while full: yield spin, then park until the
    /// consumer makes progress. Returns how many waits it took.
    std::size_t push(T value) {
        std::size_t waits = 0;
        std::size_t spins = 0;
        for (;;) {
            const std::size_t seen = pops_.load(std::memory_order_acquire);
            if (try_push(value)) return waits;
            ++waits;
            if (++spins <= spin_limit) {
                std::this_thread::yield();
            } else {
                pops_.wait(seen, std::memory_order_acquire);
            }
        }
    }

    /// Consumer only; non-blocking. False when the queue is empty.
    bool try_pop(T& out) {
        const std::size_t pos = head_.load(std::memory_order_relaxed);
        cell& c = cells_[pos & mask_];
        const std::size_t seq = c.seq.load(std::memory_order_acquire);
        const auto dif =
            static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1);
        if (dif < 0) return false;  // slot not yet published
        out = std::move(c.value);
        c.seq.store(pos + mask_ + 1, std::memory_order_release);  // recycle
        head_.store(pos + 1, std::memory_order_relaxed);
        pops_.fetch_add(1, std::memory_order_release);
        pops_.notify_all();
        return true;
    }

    /// Consumer only; yield spin, then park until a producer pushes.
    void pop_blocking(T& out) {
        std::size_t spins = 0;
        for (;;) {
            const std::size_t seen = pushes_.load(std::memory_order_acquire);
            if (try_pop(out)) return;
            if (++spins <= spin_limit) {
                std::this_thread::yield();
                continue;
            }
            pushes_.wait(seen, std::memory_order_acquire);
        }
    }

    /// Approximate occupancy (exact only from the consumer thread).
    [[nodiscard]] std::size_t size() const noexcept {
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        const std::size_t head = head_.load(std::memory_order_relaxed);
        return tail >= head ? tail - head : 0;
    }
    [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

private:
    static constexpr std::size_t spin_limit = 64;

    struct cell {
        std::atomic<std::size_t> seq{0};
        T value{};
    };

    std::vector<cell> cells_;
    std::size_t mask_{0};
    alignas(64) std::atomic<std::size_t> tail_{0};
    /// Single consumer: only the consumer thread advances it (relaxed).
    alignas(64) std::atomic<std::size_t> head_{0};
    // Progress counters backing the futex parks.
    alignas(64) std::atomic<std::size_t> pushes_{0};
    alignas(64) std::atomic<std::size_t> pops_{0};
};

}  // namespace skynet
