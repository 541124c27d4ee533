// Unit tests: sim::EventQueue ordering semantics.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "sim/event_queue.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sps::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), InvariantError);
  EXPECT_THROW((void)q.nextTime(), InvariantError);
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.push(30, EventType::Timer, 3);
  q.push(10, EventType::Timer, 1);
  q.push(20, EventType::Timer, 2);
  EXPECT_EQ(q.nextTime(), 10);
  EXPECT_EQ(q.pop().payload, 1u);
  EXPECT_EQ(q.pop().payload, 2u);
  EXPECT_EQ(q.pop().payload, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 50; ++i) q.push(42, EventType::Timer, i);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const Event e = q.pop();
    EXPECT_EQ(e.time, 42);
    EXPECT_EQ(e.payload, i);
  }
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  q.push(5, EventType::JobArrival, 0);
  q.push(1, EventType::JobArrival, 1);
  EXPECT_EQ(q.pop().payload, 1u);
  q.push(2, EventType::JobCompletion, 2);
  q.push(4, EventType::SuspendDrained, 3);
  EXPECT_EQ(q.pop().payload, 2u);
  EXPECT_EQ(q.pop().payload, 3u);
  EXPECT_EQ(q.pop().payload, 0u);
}

TEST(EventQueue, CarriesTypeAndGeneration) {
  EventQueue q;
  q.push(7, EventType::JobCompletion, 99, 5);
  const Event e = q.pop();
  EXPECT_EQ(e.type, EventType::JobCompletion);
  EXPECT_EQ(e.payload, 99u);
  EXPECT_EQ(e.generation, 5u);
  EXPECT_EQ(e.time, 7);
}

TEST(EventQueue, RandomizedOrderIsNonDecreasing) {
  EventQueue q;
  Rng rng(99);
  for (int i = 0; i < 1000; ++i)
    q.push(rng.uniformInt(0, 500), EventType::Timer,
           static_cast<std::uint64_t>(i));
  Time prev = -1;
  std::uint64_t prevSeq = 0;
  bool first = true;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_GE(e.time, prev);
    if (!first && e.time == prev) {
      EXPECT_GT(e.seq, prevSeq);
    }
    prev = e.time;
    prevSeq = e.seq;
    first = false;
  }
}

// ---------------------------------------------------------------------------
// Property suite: the queue pops the total order (time, then insertion
// sequence). Every test below drives the queue and a sorted reference
// through an identical operation sequence and requires identical pop
// streams — the contract that lets simulations replay bit-identically.

/// Drive the queue and a sorted (time, seq) reference through one scripted
/// load and compare every pop.
class QueuePair {
 public:
  void push(Time t, EventType type, std::uint64_t payload,
            std::uint64_t gen = 0) {
    queue_.push(t, type, payload, gen);
    Event e;
    e.time = t;
    e.seq = pushed_++;
    e.type = type;
    e.payload = payload;
    e.generation = gen;
    reference_.emplace(std::make_pair(t, e.seq), e);
  }

  /// Pop one event from each and assert full equality (including seq, which
  /// the queue assigns in push order like the reference).
  Event popBoth() {
    EXPECT_EQ(queue_.empty(), reference_.empty());
    EXPECT_EQ(queue_.size(), reference_.size());
    const Event q = queue_.pop();
    const Event r = reference_.begin()->second;
    reference_.erase(reference_.begin());
    EXPECT_EQ(q.time, r.time);
    EXPECT_EQ(q.seq, r.seq);
    EXPECT_EQ(q.type, r.type);
    EXPECT_EQ(q.payload, r.payload);
    EXPECT_EQ(q.generation, r.generation);
    if (reference_.empty()) {
      EXPECT_TRUE(queue_.empty());
    } else {
      EXPECT_EQ(queue_.nextTime(), reference_.begin()->first.first);
    }
    return q;
  }

  void drainBoth() {
    while (!queue_.empty() || !reference_.empty()) popBoth();
  }

  [[nodiscard]] bool empty() const {
    return queue_.empty() && reference_.empty();
  }

 private:
  EventQueue queue_;
  std::map<std::pair<Time, std::uint64_t>, Event> reference_;
  std::uint64_t pushed_ = 0;
};

TEST(EventQueueProperty, RandomLoadPopsIdentically) {
  for (const std::uint64_t seed : {1u, 7u, 1234u, 987654u}) {
    QueuePair q;
    Rng rng(seed);
    for (int i = 0; i < 5000; ++i)
      q.push(rng.uniformInt(0, 200000), EventType::Timer,
             static_cast<std::uint64_t>(i));
    Time prev = -1;
    std::uint64_t prevSeq = 0;
    while (!q.empty()) {
      const Event e = q.popBoth();
      // Non-decreasing time; strictly increasing seq within a timestamp.
      EXPECT_GE(e.time, prev);
      if (e.time == prev) {
        EXPECT_GT(e.seq, prevSeq);
      }
      prev = e.time;
      prevSeq = e.seq;
    }
  }
}

TEST(EventQueueProperty, InterleavedPushPopIdentical) {
  // The simulator's actual shape: pop the earliest event, then push a
  // handful of follow-ups at or after "now" (same-instant cascades
  // included). Time never runs backwards relative to the last pop.
  QueuePair q;
  Rng rng(4242);
  q.push(0, EventType::Timer, 0);
  Time now = 0;
  std::uint64_t payload = 1;
  for (int step = 0; step < 4000 && !q.empty(); ++step) {
    const Event e = q.popBoth();
    now = e.time;
    const std::int64_t follow = rng.uniformInt(0, 3);
    for (std::int64_t f = 0; f < follow; ++f) {
      const Time at = now + rng.uniformInt(0, 300);
      const auto type = static_cast<EventType>(rng.uniformInt(0, 3));
      q.push(at, type, payload++,
             static_cast<std::uint64_t>(rng.uniformInt(0, 2)));
    }
  }
  q.drainBoth();
}

TEST(EventQueueProperty, SameInstantBurstIsFifo) {
  // A tick cascade: many events at one instant must fire in push order.
  QueuePair q;
  for (std::uint64_t i = 0; i < 200; ++i)
    q.push(777, EventType::JobArrival, i);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Event e = q.popBoth();
    EXPECT_EQ(e.time, 777);
    EXPECT_EQ(e.payload, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueProperty, FarFutureEventsSurviveRebase) {
  // Events spread over a horizon thousands of times wider than their
  // near-term spacing (the shape a far-off reservation or long job gives)
  // must all come back, in order, with the pop stream matching the
  // reference throughout.
  QueuePair q;
  Rng rng(55);
  const Time window = 2048 * 64;
  for (int i = 0; i < 2000; ++i)
    q.push(rng.uniformInt(0, 40) * window + rng.uniformInt(0, 131071),
           EventType::JobCompletion, static_cast<std::uint64_t>(i),
           static_cast<std::uint64_t>(i % 3));
  Time prev = -1;
  while (!q.empty()) {
    const Event e = q.popBoth();
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
}

TEST(EventQueueProperty, DrainThenPushBeforeOldCursor) {
  // Drain the queue completely, then push an event far earlier than the
  // last one popped: the queue keeps no position from before the drain.
  QueuePair q;
  q.push(100000, EventType::Timer, 1);
  EXPECT_EQ(q.popBoth().payload, 1u);
  EXPECT_TRUE(q.empty());
  q.push(3, EventType::Timer, 2);  // far before the drained cursor
  q.push(100001, EventType::Timer, 3);
  EXPECT_EQ(q.popBoth().payload, 2u);
  EXPECT_EQ(q.popBoth().payload, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueProperty, RepeatedDrainRefillCycles) {
  // Alternate full drains with refills at ever-later times; the streams
  // must stay identical through every cycle.
  QueuePair q;
  Rng rng(321);
  Time base = 0;
  for (int cycle = 0; cycle < 30; ++cycle) {
    const std::int64_t n = rng.uniformInt(1, 40);
    for (std::int64_t i = 0; i < n; ++i)
      q.push(base + rng.uniformInt(0, 5000), EventType::SuspendDrained,
             static_cast<std::uint64_t>(cycle * 1000 + i));
    q.drainBoth();
    base += rng.uniformInt(0, 200000);
  }
}

}  // namespace
}  // namespace sps::sim
