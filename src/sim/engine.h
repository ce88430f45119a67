// Discrete-event engine: a clock plus the event queue plus a dispatch loop.
//
// The engine is policy-free; the Simulation facade (src/api) registers a
// handler and owns all domain state. Time never moves backwards; scheduling
// an event in the past is a programming error and asserts.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>

#include "sim/event.h"
#include "sim/event_queue.h"

namespace sdsched {

class Engine {
 public:
  using Handler = std::function<void(const EventQueue::Fired&)>;

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  EventHandle schedule_at(SimTime time, Event event) {
    assert(time >= now_ && "cannot schedule events in the past");
    return queue_.schedule(time, event);
  }
  bool cancel(EventHandle handle) { return queue_.cancel(handle); }

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.live_count(); }

  /// Time / payload of the next live event. Require !idle().
  [[nodiscard]] SimTime next_time() const { return queue_.next_time(); }
  [[nodiscard]] Event next_event() const { return queue_.next_event(); }

  /// Run until the queue drains (or `max_events` fire). Returns events fired.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Fire exactly one event if any is pending. Returns true if one fired.
  bool step();

 private:
  EventQueue queue_;
  Handler handler_;
  SimTime now_ = 0;
};

}  // namespace sdsched
