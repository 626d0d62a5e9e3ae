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
  void Cancel(uint64_t id);

  // Batched one-shot events — the packet-delivery fast path. A batched
  // event is semantically identical to an At event (same FIFO-among-
  // equal-times order, interleaved exactly with At events by the shared
  // sequence counter) but not cancellable. Staged entries wait in a side
  // heap that keeps only ONE main-queue event armed — carrying the
  // earliest entry's (when, seq); when it fires, every staged entry that
  // would have been the immediately-next event anyway runs inline, so a
  // burst of N deliveries costs one main-heap push+pop instead of N.
  //
  // A BatchSource owns a stream of such events and stages them itself:
  // it reserves each event's sequence number with ReserveBatchSeq at the
  // moment the event is submitted (that fixes its place among equal
  // times), and arms it with ArmBatch no later than when it becomes the
  // source's earliest pending event. The side heap then merges the
  // sources' streams in global (when, seq) order — a k-way merge — while
  // the payloads stay with the source, so no per-event closure exists.
  // Contract: every reserved event is armed exactly once with its own
  // key, `when` is not earlier than now(), and the source outlives its
  // armed events.
  class BatchSource {
   public:
    // Runs the staged event armed with `tag`: always the source's
    // earliest pending event.
    virtual void OnBatch(uint32_t tag) = 0;

   protected:
    ~BatchSource() = default;
  };
  uint64_t ReserveBatchSeq() {
    ++batch_staged_;
    return next_seq_++;
  }
  void ArmBatch(util::TimeUs when, uint64_t seq, BatchSource* source,
                uint32_t tag = 0);

  // One-off batched closure; `when` is clamped to now.
  void BatchAt(util::TimeUs when, EventFn fn);
  void BatchAfter(util::DurationUs delay, EventFn fn) {
    BatchAt(now_ + delay, std::move(fn));
  }

  // Runs events until the queue is empty or `until` is passed.
  // Returns the number of events executed.
  size_t RunUntil(util::TimeUs until);
  size_t RunAll();

  bool empty() const { return pending() == 0; }
  size_t pending() const {
    // The armed batch wake stands in for the front staged entry; count the
    // staged events themselves (armed or not) instead of double-counting it.
    return queue_.size() - cancelled_in_queue_ + batch_staged_ -
           (batch_wake_id_ != 0 ? 1 : 0);
  }

 private:
  struct Event {
    util::TimeUs when;
    uint64_t seq;   // global FIFO order among equal times
    uint32_t slot;  // cancellation slot (slots_[slot])
    EventFn fn;
  };
  struct Later {
    // Earliest time first; FIFO among equal times via seq. Shared by the
    // main queue (Event) and the batch staging heap (BatchEntry).
    template <typename E>
    bool operator()(const E& a, const E& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  // One live queue entry per slot. `gen` stamps the slot's current
  // occupancy: Cancel ids carry the generation they were issued under and
  // miss once the slot is released (event fired or cancelled-and-popped).
  struct Slot {
    uint32_t gen = 1;
    bool armed = false;
  };

  // Armed batched events: the heap sifts 32-byte PODs; payloads stay with
  // their source.
  struct BatchEntry {
    util::TimeUs when;
    uint64_t seq;
    BatchSource* source;
    uint32_t tag;
  };
  // The source behind BatchAt: closures in a slab, tag = slab index.
  class ClosureBatch final : public BatchSource {
   public:
    uint32_t Add(EventFn fn);
    void OnBatch(uint32_t tag) override;

   private:
    std::vector<EventFn> fns_;
    std::vector<uint32_t> free_;
  };

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);
  // Pops the top event; returns false (and releases the slot) when it was
  // cancelled while queued.
  bool PopLive(Event& ev);
  // Like At with a caller-supplied (already reserved) sequence number.
  uint64_t AtSequenced(util::TimeUs when, uint64_t seq, EventFn fn);
  // True iff an event keyed (when, seq) would be the very next event the
  // running loop pops AND lies within the loop's horizon; on success
  // advances now() so the caller may run it inline.
  bool TryRunInline(util::TimeUs when, uint64_t seq);
  // Keeps the armed wake's key equal to the staged front's key.
  void SyncBatchWake();
  // Delivers the staged front, then drains every staged entry that still
  // sorts before the whole main queue.
  void BatchWake();

  util::TimeUs now_ = 0;
  // Upper time bound of the innermost running RunUntil/RunAll (saved and
  // restored across nesting); TryRunInline refuses events beyond it.
  util::TimeUs horizon_ = 0;
  uint64_t next_seq_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t cancelled_in_queue_ = 0;
  // Staging heap of armed batched events. Invariant outside BatchWake:
  // batch_ non-empty => batch_wake_id_ armed with key == batch_.top()'s
  // key. Every reserved, unfired batched event is counted in
  // batch_staged_, whether or not its source has armed it yet.
  std::priority_queue<BatchEntry, std::vector<BatchEntry>, Later> batch_;
  size_t batch_staged_ = 0;
  ClosureBatch closures_;
  uint64_t batch_wake_id_ = 0;
  util::TimeUs batch_wake_when_ = 0;
  uint64_t batch_wake_seq_ = 0;
  bool in_batch_wake_ = false;
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
