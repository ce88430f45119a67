#include "sim/engine.h"

#include <gtest/gtest.h>

#include <vector>

namespace sdsched {
namespace {

TEST(Engine, ClockAdvancesWithEvents) {
  Engine engine;
  std::vector<SimTime> seen;
  engine.set_handler([&](const EventQueue::Fired& fired) { seen.push_back(fired.time); });
  engine.schedule_at(10, Event{EventKind::JobSubmit, 0});
  engine.schedule_at(5, Event{EventKind::JobSubmit, 1});
  EXPECT_EQ(engine.run(), 2u);
  EXPECT_EQ(seen, (std::vector<SimTime>{5, 10}));
  EXPECT_EQ(engine.now(), 10);
}

TEST(Engine, HandlerCanScheduleMoreEvents) {
  Engine engine;
  int fired = 0;
  engine.set_handler([&](const EventQueue::Fired& f) {
    ++fired;
    if (f.time < 5) {
      engine.schedule_at(f.time + 1, Event{EventKind::SchedulerTick, kInvalidJob});
    }
  });
  engine.schedule_at(0, Event{EventKind::SchedulerTick, kInvalidJob});
  engine.run();
  EXPECT_EQ(fired, 6);  // t = 0..5
  EXPECT_EQ(engine.now(), 5);
}

TEST(Engine, MaxEventsBudget) {
  Engine engine;
  engine.set_handler([&](const EventQueue::Fired& f) {
    engine.schedule_at(f.time + 1, Event{EventKind::SchedulerTick, kInvalidJob});
  });
  engine.schedule_at(0, Event{EventKind::SchedulerTick, kInvalidJob});
  EXPECT_EQ(engine.run(100), 100u);
  EXPECT_FALSE(engine.idle());
}

TEST(Engine, ScheduleAfterUsesNow) {
  Engine engine;
  SimTime seen = -1;
  engine.set_handler([&](const EventQueue::Fired& f) {
    if (f.event.kind == EventKind::JobSubmit) {
      engine.schedule_at(engine.now() + 7, Event{EventKind::SchedulerTick, kInvalidJob});
    } else {
      seen = f.time;
    }
  });
  engine.schedule_at(3, Event{EventKind::JobSubmit, 0});
  engine.run();
  EXPECT_EQ(seen, 10);
}

TEST(Engine, CancelPreventsDelivery) {
  Engine engine;
  int fired = 0;
  engine.set_handler([&](const EventQueue::Fired&) { ++fired; });
  const auto handle = engine.schedule_at(5, Event{EventKind::JobFinish, 1});
  engine.cancel(handle);
  engine.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.now(), 0);  // nothing fired, clock untouched
}

TEST(Engine, StepFiresExactlyOne) {
  Engine engine;
  int fired = 0;
  engine.set_handler([&](const EventQueue::Fired&) { ++fired; });
  engine.schedule_at(1, Event{EventKind::JobSubmit, 0});
  engine.schedule_at(2, Event{EventKind::JobSubmit, 1});
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace sdsched
