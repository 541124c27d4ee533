// EventQueue — the discrete-event core's pending-event set.
//
// A binary min-heap (std::priority_queue) over (time, sequence). It holds
// only the events the run itself creates: completions, suspend-drains and
// policy timers, so its size is O(running jobs), not O(trace). Arrivals
// never enter it: the Simulator reads them from its sorted trace through an
// arrival cursor and dispatches the cursor's job ahead of the queue's head
// at the same instant (see sim/simulator.hpp).
//
// The sequence number makes the order total and deterministic: two events
// at the same instant fire in the order they were scheduled.
//
// Completions cancelled by preemption are handled by the *simulator* with
// generation counters (stale events are popped and ignored), so the queue
// itself needs no removal support.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace sps::sim {

enum class EventType : std::uint8_t {
  JobArrival,     ///< job submitted; payload = JobId
  JobCompletion,  ///< running job finished; payload = JobId, gen = counter
  SuspendDrained, ///< suspension overhead (memory write-out) done; payload = JobId
  Timer,          ///< policy timer; payload = opaque tag
};

struct Event {
  Time time = 0;
  std::uint64_t seq = 0;  ///< tie-breaker; assigned by the queue
  EventType type = EventType::Timer;
  std::uint64_t payload = 0;  ///< JobId or timer tag
  std::uint64_t generation = 0;  ///< completion-validity counter
};

class EventQueue {
 public:
  void push(Time time, EventType type, std::uint64_t payload,
            std::uint64_t generation = 0) {
    heap_.push(Event{time, nextSeq_++, type, payload, generation});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Earliest event's time; requires non-empty.
  [[nodiscard]] Time nextTime() const {
    SPS_CHECK_MSG(!empty(), "nextTime() on empty queue");
    return heap_.top().time;
  }

  /// Remove and return the earliest event; requires non-empty.
  Event pop() {
    SPS_CHECK_MSG(!empty(), "pop() on empty queue");
    Event e = heap_.top();
    heap_.pop();
    return e;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t nextSeq_ = 0;
};

}  // namespace sps::sim
