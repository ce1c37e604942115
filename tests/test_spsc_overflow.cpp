// SPSC queue overflow and backoff tests: the full-ring boundary and the
// blocking push that gives the sharded engine its lossless backpressure.
// Runs under the `tsan` ctest label: the park/wake paths (push waiting
// on a slow consumer, pop_blocking waiting on a slow producer) are
// exactly where a lost notify or a data race would hide.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "skynet/common/spsc_queue.h"

namespace skynet {
namespace {

// ------------------------------------------------------------- queue

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
    EXPECT_EQ(spsc_queue<int>(1).capacity(), 1u);
    EXPECT_EQ(spsc_queue<int>(2).capacity(), 2u);
    EXPECT_EQ(spsc_queue<int>(3).capacity(), 4u);
    EXPECT_EQ(spsc_queue<int>(5).capacity(), 8u);
    EXPECT_EQ(spsc_queue<int>(256).capacity(), 256u);
}

TEST(SpscQueueTest, TryPushFailsExactlyAtCapacityBoundary) {
    spsc_queue<int> q(4);
    ASSERT_EQ(q.capacity(), 4u);
    for (int i = 0; i < 4; ++i) {
        int v = i;
        EXPECT_TRUE(q.try_push(v)) << "push " << i << " of capacity";
    }
    // Slot cap+1: must fail and leave the value untouched.
    int overflow = 99;
    EXPECT_FALSE(q.try_push(overflow));
    EXPECT_EQ(overflow, 99);
    EXPECT_EQ(q.size(), 4u);

    // One pop frees exactly one slot.
    int out = -1;
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, 0);
    EXPECT_TRUE(q.try_push(overflow));
    EXPECT_FALSE(q.try_push(overflow));

    // FIFO order survives the wrap.
    for (const int want : {1, 2, 3, 99}) {
        ASSERT_TRUE(q.try_pop(out));
        EXPECT_EQ(out, want);
    }
    EXPECT_FALSE(q.try_pop(out));
}

TEST(SpscQueueTest, PushCountsWaitsAgainstSlowConsumer) {
    spsc_queue<int> q(2);
    std::size_t total_waits = 0;
    std::thread producer([&] {
        for (int i = 0; i < 1000; ++i) total_waits += q.push(i);
    });
    std::thread consumer([&] {
        int out = -1;
        for (int i = 0; i < 1000; ++i) {
            q.pop_blocking(out);
            ASSERT_EQ(out, i);
            if (i % 64 == 0) std::this_thread::yield();
        }
    });
    producer.join();
    consumer.join();
    // 1000 items through a 2-slot ring: the producer must have waited.
    EXPECT_GT(total_waits, 0u);
    EXPECT_EQ(q.size(), 0u);
}

TEST(SpscQueueTest, PopBlockingParksAndWakes) {
    // The consumer exhausts its spin budget and parks on the futex; the
    // delayed producer's notify must wake it. A lost wakeup hangs the
    // test (and the suite's timeout catches it).
    spsc_queue<int> q(4);
    std::atomic<bool> got{false};
    std::thread consumer([&] {
        int out = -1;
        q.pop_blocking(out);
        EXPECT_EQ(out, 42);
        got.store(true, std::memory_order_release);
    });
    // Long enough for spin_limit yields to elapse and the park to start.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(got.load(std::memory_order_acquire));
    int v = 42;
    ASSERT_TRUE(q.try_push(v));
    consumer.join();
    EXPECT_TRUE(got.load(std::memory_order_acquire));
}

TEST(SpscQueueTest, PushParksAgainstFullRingThenWakes) {
    spsc_queue<int> q(1);
    int seed_value = 0;
    ASSERT_TRUE(q.try_push(seed_value));  // ring now full
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        (void)q.push(1);  // must park: ring stays full for 50ms
        pushed.store(true, std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(pushed.load(std::memory_order_acquire));
    int out = -1;
    ASSERT_TRUE(q.try_pop(out));  // frees the slot, notifies the producer
    producer.join();
    EXPECT_TRUE(pushed.load(std::memory_order_acquire));
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, 1);
}

}  // namespace
}  // namespace skynet
