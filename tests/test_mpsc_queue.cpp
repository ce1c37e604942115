// Bounded MPSC batch-handoff queue: the thief-to-owner return channel.
//
// Correctness bar: per-producer FIFO (a producer's pushes are popped in
// push order), nothing lost, nothing duplicated, and a popped value
// happens-after everything its producer wrote before pushing — the
// property the stealing protocol leans on when an owner receives a
// thief-prepared batch. Run under the tsan preset these tests are the
// data-race proof for the Vyukov slot-sequence protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "skynet/common/mpsc_queue.h"

namespace skynet {
namespace {

/// xorshift64: a cheap per-thread random delay source.
std::uint64_t next_random(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/// Busy-waits a random short while: half the rounds a few hundred
/// iterations, half up to tens of microseconds — past the waiter's
/// yield-spin phase, so the peer's progress lands around its park.
void random_spin(std::uint64_t& x) {
    const std::uint64_t r = next_random(x);
    const std::uint64_t n = (r & 1) != 0 ? (r >> 1) % 256 : (r >> 1) % 32768;
    std::atomic<std::uint64_t> sink{0};
    for (std::uint64_t i = 0; i < n; ++i) sink.store(i, std::memory_order_relaxed);
}

constexpr std::uint64_t kWakeupRounds = 100000;

TEST(MpscQueueTest, SingleThreadFifoRoundTrip) {
    mpsc_queue<int> q(4);
    EXPECT_EQ(q.capacity(), 4u);
    for (int i = 0; i < 4; ++i) {
        int v = i;
        EXPECT_TRUE(q.try_push(v));
    }
    int overflow = 99;
    EXPECT_FALSE(q.try_push(overflow));  // full
    for (int i = 0; i < 4; ++i) {
        int out = -1;
        ASSERT_TRUE(q.try_pop(out));
        EXPECT_EQ(out, i);
    }
    int empty = -1;
    EXPECT_FALSE(q.try_pop(empty));
}

TEST(MpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
    EXPECT_EQ(mpsc_queue<int>(1).capacity(), 1u);
    EXPECT_EQ(mpsc_queue<int>(3).capacity(), 4u);
    EXPECT_EQ(mpsc_queue<int>(9).capacity(), 16u);
}

TEST(MpscQueueTest, ManyProducersNothingLostPerProducerFifo) {
    constexpr std::uint64_t kProducers = 6;
    constexpr std::uint64_t kPerProducer = 2000;
    // Tight ring: producers hit the full-queue park path constantly.
    mpsc_queue<std::uint64_t> q(8);

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (std::uint64_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                q.push(p * kPerProducer + i);  // blocking push
            }
        });
    }

    std::vector<std::uint64_t> next(kProducers, 0);
    for (std::uint64_t received = 0; received < kProducers * kPerProducer; ++received) {
        std::uint64_t v = 0;
        q.pop_blocking(v);
        const std::uint64_t p = v / kPerProducer;
        const std::uint64_t seq = v % kPerProducer;
        ASSERT_LT(p, kProducers);
        // Per-producer FIFO and exactly-once delivery in one check.
        ASSERT_EQ(seq, next[p]) << "producer " << p;
        next[p] = seq + 1;
    }
    for (std::uint64_t p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPerProducer);
    for (std::thread& t : producers) t.join();

    std::uint64_t leftover = 0;
    EXPECT_FALSE(q.try_pop(leftover));
}

TEST(MpscQueueTest, PushHappensBeforePop) {
    // The handoff guarantee: every write the producer made before push()
    // is visible to the consumer after pop. A vector payload makes tsan
    // check the non-atomic bytes, not just the slot sequence word.
    struct payload {
        std::vector<std::uint64_t> data;
    };
    constexpr std::uint64_t kItems = 500;
    mpsc_queue<payload> q(4);
    std::thread producer([&q] {
        for (std::uint64_t i = 0; i < kItems; ++i) {
            payload p;
            p.data.assign(8, i);
            q.push(std::move(p));
        }
    });
    for (std::uint64_t i = 0; i < kItems; ++i) {
        payload out;
        q.pop_blocking(out);
        ASSERT_EQ(out.data.size(), 8u);
        for (const std::uint64_t v : out.data) ASSERT_EQ(v, i);
    }
    producer.join();
}

// The lost-wakeup race, consumer side: the round's only push lands while
// the consumer is between its failed try_pop and its park. A consumer
// that reads the push counter after the failed try parks on the new
// value and sleeps forever (the producer pushes nothing more until the
// round completes), which the ctest TIMEOUT turns into a failure.
TEST(MpscQueueTest, PopBlockingNeverMissesAPushRacingItsPark) {
    mpsc_queue<std::uint64_t> q(4);
    std::atomic<std::uint64_t> waiting{0};  // the round the consumer waits in
    std::thread producer([&q, &waiting] {
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint64_t r = 1; r <= kWakeupRounds; ++r) {
            while (waiting.load(std::memory_order_acquire) != r) std::this_thread::yield();
            random_spin(x);
            q.push(r);
        }
    });
    std::uint64_t mismatches = 0;
    for (std::uint64_t r = 1; r <= kWakeupRounds; ++r) {
        waiting.store(r, std::memory_order_release);
        std::uint64_t out = 0;
        q.pop_blocking(out);
        if (out != r) ++mismatches;
    }
    producer.join();
    EXPECT_EQ(mismatches, 0u);
}

// The same race, producer side: a push blocked on a full ring must see
// the pop that frees a slot while it is between its failed try_push and
// its park.
TEST(MpscQueueTest, BlockedPushNeverMissesAPopRacingItsPark) {
    mpsc_queue<std::uint64_t> q(2);
    for (std::uint64_t v = 0; v < 2; ++v) ASSERT_TRUE(q.try_push(v));  // full from the start
    std::atomic<std::uint64_t> waiting{0};  // the round the producer waits in
    std::atomic<std::uint64_t> mismatches{0};
    std::thread consumer([&q, &waiting, &mismatches] {
        std::uint64_t x = 0xc2b2ae3d27d4eb4full;
        for (std::uint64_t r = 1; r <= kWakeupRounds; ++r) {
            while (waiting.load(std::memory_order_acquire) != r) std::this_thread::yield();
            random_spin(x);
            std::uint64_t out = 0;
            if (!q.try_pop(out) || out != r - 1) mismatches.fetch_add(1);
        }
    });
    for (std::uint64_t r = 1; r <= kWakeupRounds; ++r) {
        waiting.store(r, std::memory_order_release);
        q.push(r + 1);  // the ring is full: blocks until this round's pop
    }
    consumer.join();
    EXPECT_EQ(mismatches.load(), 0u);
    for (std::uint64_t v = kWakeupRounds; v <= kWakeupRounds + 1; ++v) {
        std::uint64_t out = 0;
        ASSERT_TRUE(q.try_pop(out));
        EXPECT_EQ(out, v);
    }
}

}  // namespace
}  // namespace skynet
