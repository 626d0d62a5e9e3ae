#include "sim/scheduler.hpp"

namespace scallop::sim {
namespace {

// Ids pack (slot, generation); gen starts at 1 and only increments, so no
// valid id is ever 0 (callers use 0 as a "nothing armed" sentinel).
constexpr uint64_t MakeId(uint32_t slot, uint32_t gen) {
  return (static_cast<uint64_t>(slot) << 32) | gen;
}

}  // namespace

uint32_t Scheduler::AcquireSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.push_back(Slot{});
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Scheduler::ReleaseSlot(uint32_t slot) {
  ++slots_[slot].gen;  // invalidates every id issued for this occupancy
  free_slots_.push_back(slot);
}

uint64_t Scheduler::At(util::TimeUs when, EventFn fn) {
  return AtSequenced(when, next_seq_++, std::move(fn));
}

uint64_t Scheduler::AtSequenced(util::TimeUs when, uint64_t seq, EventFn fn) {
  if (when < now_) when = now_;
  uint32_t slot = AcquireSlot();
  slots_[slot].armed = true;
  queue_.push(Event{when, seq, slot, std::move(fn)});
  return MakeId(slot, slots_[slot].gen);
}

bool Scheduler::TryRunInline(util::TimeUs when, uint64_t seq) {
  if (when > horizon_) return false;
  if (!queue_.empty()) {
    const Event& top = queue_.top();
    // A queued event (even a cancelled tombstone — conservative but cheap)
    // sorting before (when, seq) must fire first.
    if (top.when < when || (top.when == when && top.seq < seq)) return false;
  }
  if (now_ < when) now_ = when;
  return true;
}

uint32_t Scheduler::ClosureBatch::Add(EventFn fn) {
  if (!free_.empty()) {
    uint32_t idx = free_.back();
    free_.pop_back();
    fns_[idx] = std::move(fn);
    return idx;
  }
  fns_.push_back(std::move(fn));
  return static_cast<uint32_t>(fns_.size() - 1);
}

void Scheduler::ClosureBatch::OnBatch(uint32_t tag) {
  EventFn fn = std::move(fns_[tag]);
  free_.push_back(tag);
  fn();
}

void Scheduler::BatchAt(util::TimeUs when, EventFn fn) {
  if (when < now_) when = now_;
  ArmBatch(when, ReserveBatchSeq(), &closures_, closures_.Add(std::move(fn)));
}

void Scheduler::ArmBatch(util::TimeUs when, uint64_t seq, BatchSource* source,
                         uint32_t tag) {
  batch_.push(BatchEntry{when, seq, source, tag});
  // Inside BatchWake the drain loop re-syncs on exit; re-arming here would
  // race it and double-fire.
  if (!in_batch_wake_) SyncBatchWake();
}

void Scheduler::SyncBatchWake() {
  if (batch_.empty()) return;
  const BatchEntry& front = batch_.top();
  if (batch_wake_id_ != 0) {
    if (batch_wake_when_ == front.when && batch_wake_seq_ == front.seq) {
      return;
    }
    Cancel(batch_wake_id_);
  }
  batch_wake_when_ = front.when;
  batch_wake_seq_ = front.seq;
  // Carrying the front's own (when, seq) makes the wake fire at exactly
  // the moment the front would have, had it been queued with At.
  batch_wake_id_ = AtSequenced(front.when, front.seq, [this] { BatchWake(); });
}

void Scheduler::BatchWake() {
  batch_wake_id_ = 0;
  in_batch_wake_ = true;
  // The loop just popped our key off the main queue, so the first
  // TryRunInline always succeeds; later iterations drain every staged
  // entry that would have been the immediately-next event anyway.
  while (!batch_.empty()) {
    const BatchEntry front = batch_.top();
    if (!TryRunInline(front.when, front.seq)) break;
    batch_.pop();
    --batch_staged_;
    front.source->OnBatch(front.tag);
  }
  in_batch_wake_ = false;
  SyncBatchWake();
}

void Scheduler::Cancel(uint64_t id) {
  uint32_t slot = static_cast<uint32_t>(id >> 32);
  uint32_t gen = static_cast<uint32_t>(id);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.armed) return;  // fired or already cancelled
  s.armed = false;
  ++cancelled_in_queue_;
}

bool Scheduler::PopLive(Event& ev) {
  Event& top = const_cast<Event&>(queue_.top());
  ev.when = top.when;
  ev.seq = top.seq;
  ev.slot = top.slot;
  ev.fn = std::move(top.fn);
  queue_.pop();
  Slot& s = slots_[ev.slot];
  if (!s.armed) {  // cancelled while queued
    --cancelled_in_queue_;
    ReleaseSlot(ev.slot);
    return false;
  }
  // Release before running: `fn` may Cancel its own (now stale) id or
  // schedule a new event that reuses the slot under a fresh generation.
  s.armed = false;
  ReleaseSlot(ev.slot);
  return true;
}

size_t Scheduler::RunUntil(util::TimeUs until) {
  util::TimeUs saved_horizon = horizon_;
  horizon_ = until;
  size_t executed = 0;
  while (!queue_.empty()) {
    if (queue_.top().when > until) break;
    Event ev;
    if (!PopLive(ev)) continue;
    now_ = ev.when;
    ev.fn();
    ++executed;
  }
  horizon_ = saved_horizon;
  if (now_ < until) now_ = until;
  return executed;
}

size_t Scheduler::RunAll() {
  util::TimeUs saved_horizon = horizon_;
  horizon_ = util::kTimeNever;
  size_t executed = 0;
  while (!queue_.empty()) {
    Event ev;
    if (!PopLive(ev)) continue;
    now_ = ev.when;
    ev.fn();
    ++executed;
  }
  horizon_ = saved_horizon;
  return executed;
}

PeriodicTask::PeriodicTask(Scheduler& sched, util::DurationUs period,
                           std::function<bool()> fn)
    : state_(std::make_shared<State>()) {
  state_->sched = &sched;
  state_->period = period;
  state_->fn = std::move(fn);
  Arm(state_.get());
}

PeriodicTask::~PeriodicTask() { Cancel(); }

void PeriodicTask::Cancel() {
  state_->cancelled = true;
  if (state_->pending_id != 0) {
    state_->sched->Cancel(state_->pending_id);
    state_->pending_id = 0;
  }
}

void PeriodicTask::Arm(State* state) {
  state->pending_id = state->sched->After(state->period, [state] {
    std::shared_ptr<State> s = state->shared_from_this();
    if (s->cancelled) return;
    s->pending_id = 0;
    // `fn` may Cancel() this task or destroy it outright: `s` keeps the
    // state alive through the call, and the re-check catches a Cancel
    // issued anywhere inside fn's call graph (including nested RunUntil
    // callbacks) after the entry check already passed.
    if (s->fn() && !s->cancelled) Arm(s.get());
  });
}

}  // namespace scallop::sim
