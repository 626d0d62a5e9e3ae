// Discrete-event scheduler. All experiments run on a single scheduler; time
// is virtual, so a 10-minute meeting simulates in well under a second.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "util/time.hpp"

namespace scallop::sim {

using EventFn = std::function<void()>;

// One heap of 32-byte entries ordered by (when, seq), where seq is a global
// counter, so events with equal times fire in submission order. An At event
// is an entry whose closure waits in a generation-stamped slot; an
// EventSource event is an entry that names its source, which keeps the
// payload itself (a Link keeps its in-flight packets), so no per-event
// closure exists.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  util::TimeUs now() const { return now_; }

  // Schedules `fn` at absolute time `when` (clamped to now).
  // Returns an id usable with Cancel().
  uint64_t At(util::TimeUs when, EventFn fn);
  uint64_t After(util::DurationUs delay, EventFn fn) {
    return At(now_ + delay, std::move(fn));
  }

  // Cancels a pending event in O(1). Cancelling an already-fired (or
  // already-cancelled) id is a no-op: ids are generation-stamped slot
  // handles, so a stale id can never hit a later event reusing the slot.
  // The closure is destroyed when its entry reaches the top of the heap.
  void Cancel(uint64_t id);

  // An EventSource owns a stream of uncancellable one-shot events. It
  // reserves each event's sequence number with ReserveSeq at the moment
  // the event is submitted (that fixes its place among equal times), and
  // arms it with Arm no later than when it becomes the source's earliest
  // pending event. Contract: every reserved event is armed exactly once
  // with its own key, `when` is not earlier than now(), and the source
  // outlives its armed events.
  class EventSource {
   public:
    // Runs the event armed with `tag`: always the source's earliest
    // pending event.
    virtual void OnEvent(uint32_t tag) = 0;

   protected:
    ~EventSource() = default;
  };
  uint64_t ReserveSeq() {
    ++reserved_;
    return next_seq_++;
  }
  void Arm(util::TimeUs when, uint64_t seq, EventSource* source,
           uint32_t tag = 0) {
    --reserved_;
    queue_.push(Entry{when, seq, source, tag});
  }

  // Runs events until the queue is empty or `until` is passed, then
  // advances the clock to `until`. Returns the number of events executed.
  size_t RunUntil(util::TimeUs until);
  // Runs every event; the clock stops at the last one.
  size_t RunAll() { return Run(util::kTimeNever); }

  bool empty() const { return pending() == 0; }
  // Live entries plus reserved events not armed yet.
  size_t pending() const {
    return queue_.size() - cancelled_in_queue_ + reserved_;
  }

 private:
  struct Entry {
    util::TimeUs when;
    uint64_t seq;
    EventSource* source;  // nullptr: an At event in slots_[tag]
    uint32_t tag;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  // One queued At entry per slot. `gen` stamps the slot's current
  // occupancy: Cancel ids carry the generation they were issued under and
  // miss once the slot is released (event fired or cancelled-and-popped).
  struct Slot {
    uint32_t gen = 1;
    bool armed = false;
    EventFn fn;
  };

  size_t Run(util::TimeUs until);

  util::TimeUs now_ = 0;
  uint64_t next_seq_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t cancelled_in_queue_ = 0;
  size_t reserved_ = 0;
};

// Helper: schedules `fn` every `period` starting at now+period until it
// returns false or Cancel() is called on the handle. Safe to Cancel() or
// destroy from inside its own callback (including callbacks that return
// true): the running event holds the shared state alive through the call
// and re-checks cancellation after `fn` returns, so a Cancel issued
// anywhere inside the callback's call graph sticks. The armed event holds
// only a raw pointer to the state (small enough for std::function's
// inline buffer); that is safe because destroying the task cancels the
// armed event, so an event that fires always finds its state alive.
class PeriodicTask {
 public:
  PeriodicTask(Scheduler& sched, util::DurationUs period,
               std::function<bool()> fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Cancel();

 private:
  struct State : std::enable_shared_from_this<State> {
    Scheduler* sched = nullptr;
    util::DurationUs period = 0;
    std::function<bool()> fn;
    uint64_t pending_id = 0;
    bool cancelled = false;
  };
  static void Arm(State* state);

  std::shared_ptr<State> state_;
};

}  // namespace scallop::sim
