#include <gtest/gtest.h>

#include "base/ring_buffer.hh"

using klebsim::RingBuffer;

TEST(RingBuffer, StartsEmpty)
{
    RingBuffer<int> rb(4);
    EXPECT_TRUE(rb.empty());
    EXPECT_FALSE(rb.full());
    EXPECT_EQ(rb.size(), 0u);
    EXPECT_EQ(rb.capacity(), 4u);
    EXPECT_EQ(rb.freeSlots(), 4u);
}

TEST(RingBuffer, PushPopFifo)
{
    RingBuffer<int> rb(4);
    EXPECT_TRUE(rb.push(1));
    EXPECT_TRUE(rb.push(2));
    EXPECT_TRUE(rb.push(3));
    int v = 0;
    EXPECT_TRUE(rb.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(rb.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_TRUE(rb.pop(v));
    EXPECT_EQ(v, 3);
    EXPECT_FALSE(rb.pop(v));
}

TEST(RingBuffer, RejectsWhenFull)
{
    RingBuffer<int> rb(2);
    EXPECT_TRUE(rb.push(1));
    EXPECT_TRUE(rb.push(2));
    EXPECT_TRUE(rb.full());
    EXPECT_FALSE(rb.push(3));
    EXPECT_EQ(rb.size(), 2u);
}

TEST(RingBuffer, WrapAround)
{
    RingBuffer<int> rb(3);
    int v = 0;
    for (int round = 0; round < 10; ++round) {
        EXPECT_TRUE(rb.push(round * 2));
        EXPECT_TRUE(rb.push(round * 2 + 1));
        EXPECT_TRUE(rb.pop(v));
        EXPECT_EQ(v, round * 2);
        EXPECT_TRUE(rb.pop(v));
        EXPECT_EQ(v, round * 2 + 1);
    }
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, DrainAll)
{
    RingBuffer<int> rb(8);
    for (int i = 0; i < 5; ++i)
        rb.push(i);
    auto out = rb.drain();
    ASSERT_EQ(out.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, DrainBounded)
{
    RingBuffer<int> rb(8);
    for (int i = 0; i < 6; ++i)
        rb.push(i);
    auto out = rb.drain(4);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[3], 3);
    EXPECT_EQ(rb.size(), 2u);
    int v;
    EXPECT_TRUE(rb.pop(v));
    EXPECT_EQ(v, 4);
}

TEST(RingBuffer, DrainAcrossWrap)
{
    RingBuffer<int> rb(4);
    rb.push(0);
    rb.push(1);
    int v;
    rb.pop(v);
    rb.pop(v);
    // head is now at index 2; push 4 elements to wrap.
    for (int i = 10; i < 14; ++i)
        EXPECT_TRUE(rb.push(i));
    auto out = rb.drain();
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out.front(), 10);
    EXPECT_EQ(out.back(), 13);
}

TEST(RingBuffer, Clear)
{
    RingBuffer<int> rb(4);
    rb.push(1);
    rb.push(2);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    EXPECT_TRUE(rb.push(9));
    int v;
    EXPECT_TRUE(rb.pop(v));
    EXPECT_EQ(v, 9);
}

TEST(RingBuffer, CapacityOne)
{
    RingBuffer<int> rb(1);
    EXPECT_TRUE(rb.push(7));
    EXPECT_TRUE(rb.full());
    EXPECT_FALSE(rb.push(8));
    int v;
    EXPECT_TRUE(rb.pop(v));
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(rb.push(8));
}

TEST(RingBuffer, PushBulkFifo)
{
    RingBuffer<int> rb(8);
    const int src[] = {1, 2, 3, 4, 5};
    EXPECT_EQ(rb.pushBulk(src, 5), 5u);
    EXPECT_EQ(rb.size(), 5u);
    int v = 0;
    for (int want = 1; want <= 5; ++want) {
        EXPECT_TRUE(rb.pop(v));
        EXPECT_EQ(v, want);
    }
}

TEST(RingBuffer, PushBulkPartialAcceptAtCapacity)
{
    RingBuffer<int> rb(4);
    rb.push(0);
    rb.push(1);
    const int src[] = {2, 3, 4, 5};
    // Only two free slots: the first two are accepted in order,
    // the rest dropped — same drop-on-full contract as push().
    EXPECT_EQ(rb.pushBulk(src, 4), 2u);
    EXPECT_TRUE(rb.full());
    int v = 0;
    for (int want = 0; want <= 3; ++want) {
        EXPECT_TRUE(rb.pop(v));
        EXPECT_EQ(v, want);
    }
}

TEST(RingBuffer, PushBulkAcrossWrap)
{
    RingBuffer<int> rb(4);
    int v = 0;
    rb.push(-1);
    rb.push(-2);
    rb.pop(v);
    rb.pop(v);
    // tail is at index 2: a 4-element bulk push must split into a
    // 2-element tail segment and a 2-element wrapped segment.
    const int src[] = {10, 11, 12, 13};
    EXPECT_EQ(rb.pushBulk(src, 4), 4u);
    EXPECT_TRUE(rb.full());
    for (int want = 10; want <= 13; ++want) {
        EXPECT_TRUE(rb.pop(v));
        EXPECT_EQ(v, want);
    }
}

TEST(RingBuffer, DrainIntoBoundedFifo)
{
    RingBuffer<int> rb(8);
    for (int i = 0; i < 6; ++i)
        rb.push(i);
    int out[8] = {};
    EXPECT_EQ(rb.drainInto(out, 4), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(out[i], i);
    EXPECT_EQ(rb.size(), 2u);
    EXPECT_EQ(rb.drainInto(out), 2u);
    EXPECT_EQ(out[0], 4);
    EXPECT_EQ(out[1], 5);
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, DrainIntoAcrossWrap)
{
    RingBuffer<int> rb(4);
    int v = 0;
    rb.push(0);
    rb.push(1);
    rb.pop(v);
    rb.pop(v);
    for (int i = 10; i < 14; ++i)
        EXPECT_TRUE(rb.push(i));
    // head at index 2: the drain must stitch the two segments back
    // into FIFO order.
    int out[4] = {};
    EXPECT_EQ(rb.drainInto(out), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(out[i], 10 + i);
}

TEST(RingBuffer, BulkOpsMatchScalarReference)
{
    // Drive a bulk ring and a scalar push/pop ring through the same
    // deterministic op sequence; every observable must agree at
    // every step, across many wrap positions.
    RingBuffer<int> bulk(5);
    RingBuffer<int> scalar(5);
    std::uint32_t rng = 12345;
    int next_val = 0;
    for (int step = 0; step < 2000; ++step) {
        rng = rng * 1664525u + 1013904223u;
        std::size_t n = (rng >> 16) % 4 + 1;
        if ((rng >> 24) & 1) {
            int vals[4];
            for (std::size_t i = 0; i < n; ++i)
                vals[i] = next_val++;
            std::size_t accepted = bulk.pushBulk(vals, n);
            std::size_t ref_accepted = 0;
            for (std::size_t i = 0; i < n; ++i)
                ref_accepted +=
                    scalar.push(vals[i]) ? 1u : 0u;
            ASSERT_EQ(accepted, ref_accepted) << "step " << step;
        } else {
            int got[4] = {};
            std::size_t drained = bulk.drainInto(got, n);
            for (std::size_t i = 0; i < drained; ++i) {
                int ref = 0;
                ASSERT_TRUE(scalar.pop(ref)) << "step " << step;
                ASSERT_EQ(got[i], ref) << "step " << step;
            }
            int spare = 0;
            if (drained < n) {
                ASSERT_FALSE(scalar.pop(spare))
                    << "step " << step;
            }
        }
        ASSERT_EQ(bulk.size(), scalar.size()) << "step " << step;
    }
}
