#include "sim/scheduler.hpp"

namespace scallop::sim {
namespace {

// Ids pack (slot, generation); gen starts at 1 and only increments, so no
// valid id is ever 0 (callers use 0 as a "nothing armed" sentinel).
constexpr uint64_t MakeId(uint32_t slot, uint32_t gen) {
  return (static_cast<uint64_t>(slot) << 32) | gen;
}

}  // namespace

uint64_t Scheduler::At(util::TimeUs when, EventFn fn) {
  if (when < now_) when = now_;
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.armed = true;
  s.fn = std::move(fn);
  queue_.push(Entry{when, next_seq_++, nullptr, slot});
  return MakeId(slot, s.gen);
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

size_t Scheduler::Run(util::TimeUs until) {
  size_t executed = 0;
  while (!queue_.empty() && queue_.top().when <= until) {
    const Entry top = queue_.top();
    queue_.pop();
    if (top.source != nullptr) {
      now_ = top.when;
      top.source->OnEvent(top.tag);
    } else {
      // Release the slot before running: `fn` may Cancel its own (now
      // stale) id or schedule a new event that reuses the slot under a
      // fresh generation.
      Slot& s = slots_[top.tag];
      EventFn fn = std::move(s.fn);
      const bool live = s.armed;
      s.armed = false;
      ++s.gen;  // invalidates every id issued for this occupancy
      free_slots_.push_back(top.tag);
      if (!live) {  // cancelled while queued
        --cancelled_in_queue_;
        continue;
      }
      now_ = top.when;
      fn();
    }
    ++executed;
  }
  return executed;
}

size_t Scheduler::RunUntil(util::TimeUs until) {
  size_t executed = Run(until);
  if (now_ < until) now_ = until;
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
