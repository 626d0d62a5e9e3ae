#include "observe.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>

namespace confbench {

namespace su = scallop::util;

namespace {

constexpr double kMinMs = 0.001;
constexpr double kGrowth = 1.005;
const double kLogGrowth = std::log(kGrowth);

// Bucket 0 is [0, kMinMs); bucket i >= 1 is [kMinMs*g^(i-1), kMinMs*g^i).
double LowerEdge(size_t i) {
  return i == 0 ? 0.0 : kMinMs * std::pow(kGrowth, static_cast<double>(i - 1));
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Histogram::Add(double ms) {
  size_t i = 0;
  if (ms >= kMinMs) {  // false for negative and NaN
    i = static_cast<size_t>(std::log(ms / kMinMs) / kLogGrowth) + 1;
  }
  if (i >= kBuckets) {
    ++overflow_;
    return;
  }
  ++counts_[i];
  ++total_;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  overflow_ += other.overflow_;
}

double Histogram::Quantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  const double target = q * static_cast<double>(n);
  if (target > static_cast<double>(total_)) {
    return std::numeric_limits<double>::infinity();
  }
  double cum = 0.0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    const double c = static_cast<double>(counts_[i]);
    if (cum + c >= target) {
      const double frac = std::clamp((target - cum) / c, 0.0, 1.0);
      const double lo = LowerEdge(i);
      return lo + frac * (LowerEdge(i + 1) - lo);
    }
    cum += c;
  }
  return std::numeric_limits<double>::infinity();
}

void Modeled::Merge(const Modeled& o) {
  latency_ms.Merge(o.latency_ms);
  join_ms.Merge(o.join_ms);
  legs_judged += o.legs_judged;
  legs_failed += o.legs_failed;
  zero_frame_legs += o.zero_frame_legs;
  rewrite_violation_legs += o.rewrite_violation_legs;
  starved_peers += o.starved_peers;
  legs_unjudged += o.legs_unjudged;
  joins += o.joins;
  frames_in_window += o.frames_in_window;
  window_sim_s += o.window_sim_s;
  freeze_ms_in_window += o.freeze_ms_in_window;
  stream_ms_in_window += o.stream_ms_in_window;
  nacks_sent += o.nacks_sent;
  nacked_packets += o.nacked_packets;
  recovered_packets += o.recovered_packets;
}

std::string Modeled::Describe() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "legs judged=%llu failed=%llu (zero_frame=%llu "
                "rewrite_violation=%llu starved_peers=%llu) unjudged=%llu "
                "latency_samples=%llu join_samples=%llu",
                static_cast<unsigned long long>(legs_judged),
                static_cast<unsigned long long>(legs_failed),
                static_cast<unsigned long long>(zero_frame_legs),
                static_cast<unsigned long long>(rewrite_violation_legs),
                static_cast<unsigned long long>(starved_peers),
                static_cast<unsigned long long>(legs_unjudged),
                static_cast<unsigned long long>(latency_ms.count()),
                static_cast<unsigned long long>(join_ms.count()));
  return buf;
}

LatencyTap::LatencyTap(double window_start_s)
    : window_start_(su::Seconds(window_start_s)),
      hist_(std::make_shared<Histogram>()) {}

std::function<void(uint32_t, su::TimeUs, su::TimeUs)> LatencyTap::Fn() {
  return [hist = hist_, start = window_start_](uint32_t, su::TimeUs send,
                                               su::TimeUs arrival) {
    if (arrival >= start) {
      hist->Add(static_cast<double>(arrival - send) / 1000.0);
    }
  };
}

namespace {

// A leg younger than this when it ends is not judged: it may not have had
// time to receive its first key frame.
constexpr su::DurationUs kJudgeAfter = su::Seconds(2);

// The receiver keeps the decode times of its last 256 frames and exposes
// them through RecentFps' trailing-window count. The smallest window that
// still counts every decode since `since` ends exactly at the first one.
su::TimeUs FirstDecodeTime(const scallop::media::VideoReceiver& rx,
                           su::TimeUs now, su::TimeUs since) {
  auto count = [&](su::DurationUs w) {
    return std::llround(rx.RecentFps(now, w) * su::ToSeconds(w));
  };
  su::DurationUs hi = std::max<su::DurationUs>(1, now - since + 1);
  const long long all = count(hi);
  su::DurationUs lo = 1;
  while (lo < hi) {
    const su::DurationUs mid = lo + (hi - lo) / 2;
    if (count(mid) >= all) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return now - lo;
}

}  // namespace

struct LegTracker::State {
  struct Slot {
    int meeting = 0;
    int index = 0;
    scallop::core::MeetingId meeting_id = 0;
    std::vector<su::TimeUs> scheduled_joins;  // sorted
    bool present = false;
    scallop::core::ParticipantId id = 0;
    su::TimeUs joined = 0;
    // Alias lookup cache (cascaded placements), refreshed once per poll.
    uint64_t alias_poll = 0;
    std::vector<scallop::core::ParticipantId> aliases;
  };
  struct Leg {
    int r = 0;
    int s = 0;
    su::TimeUs epoch = 0;
    su::TimeUs first_decode = -1;
    su::TimeUs last_seen = 0;
    uint64_t last_poll = 0;
    scallop::media::VideoReceiverStats at_window;
    scallop::media::VideoReceiverStats last;
    double stream_ms_in_window = 0.0;
  };

  scallop::harness::ScenarioRunner& runner;
  su::TimeUs window_start;
  std::vector<Slot> slots;
  std::vector<std::vector<int>> by_meeting;
  std::unordered_map<uint64_t, Leg> open;
  std::vector<int> starved;  // per receiver slot: has a zero-frame leg
  Modeled acc;
  su::TimeUs prev_poll = -1;
  uint64_t poll_no = 0;

  State(scallop::harness::ScenarioRunner& r, double window_start_s)
      : runner(r), window_start(su::Seconds(window_start_s)) {}

  su::TimeUs JoinTime(const Slot& slot, su::TimeUs now) const {
    auto it = std::upper_bound(slot.scheduled_joins.begin(),
                               slot.scheduled_joins.end(), now);
    if (it != slot.scheduled_joins.begin() && *(it - 1) > prev_poll) {
      return *(it - 1);
    }
    return prev_poll + (now - prev_poll) / 2;
  }

  const scallop::media::VideoReceiver* Find(scallop::client::Peer& receiver,
                                            Slot& sender) {
    if (const auto* rx = receiver.video_receiver(sender.id)) return rx;
    if (sender.alias_poll != poll_no) {
      sender.aliases = runner.backend().SenderAliasesOf(sender.meeting_id,
                                                        sender.id);
      sender.alias_poll = poll_no;
    }
    for (scallop::core::ParticipantId alias : sender.aliases) {
      if (const auto* rx = receiver.video_receiver(alias)) return rx;
    }
    return nullptr;
  }

  void Close(const Leg& leg) {
    const bool judged = leg.last_seen - leg.epoch >= kJudgeAfter;
    if (leg.first_decode >= 0) {
      acc.join_ms.Add(static_cast<double>(leg.first_decode - leg.epoch) /
                      1000.0);
    }
    acc.freeze_ms_in_window +=
        leg.last.total_freeze_ms - leg.at_window.total_freeze_ms;
    acc.stream_ms_in_window += leg.stream_ms_in_window;
    acc.nacks_sent += leg.last.nacks_sent - leg.at_window.nacks_sent;
    acc.nacked_packets +=
        leg.last.nacked_packets - leg.at_window.nacked_packets;
    acc.recovered_packets +=
        leg.last.recovered_packets - leg.at_window.recovered_packets;
    if (!judged) {
      ++acc.legs_unjudged;
      return;
    }
    ++acc.legs_judged;
    const bool zero = leg.first_decode < 0;
    const bool violation = leg.last.decoder_breaks > 0 ||
                           leg.last.conflicting_duplicates > 0;
    if (zero) {
      ++acc.zero_frame_legs;
      starved[static_cast<size_t>(leg.r)] = 1;
    }
    if (violation) ++acc.rewrite_violation_legs;
    if (zero || violation) ++acc.legs_failed;
  }
};

LegTracker::LegTracker(scallop::harness::ScenarioRunner& runner,
                       double window_start_s)
    : st_(std::make_unique<State>(runner, window_start_s)) {
  const auto& spec = runner.spec();
  const su::TimeUs resignal =
      su::Seconds(std::max(0.0, spec.rebalance_resignal_s));
  st_->by_meeting.resize(spec.meetings.size());
  for (size_t m = 0; m < spec.meetings.size(); ++m) {
    for (size_t i = 0; i < spec.meetings[m].participants.size(); ++i) {
      const auto& ps = spec.meetings[m].participants[i];
      State::Slot slot;
      slot.meeting = static_cast<int>(m);
      slot.index = static_cast<int>(i);
      slot.meeting_id = runner.meeting_id(static_cast<int>(m));
      slot.scheduled_joins.push_back(su::Seconds(ps.join_at_s));
      if (ps.rejoin_at_s >= 0.0) {
        slot.scheduled_joins.push_back(su::Seconds(ps.rejoin_at_s));
      }
      for (const auto& roam : spec.roams) {
        if (roam.meeting == slot.meeting && roam.participant == slot.index) {
          slot.scheduled_joins.push_back(su::Seconds(roam.at_s) + resignal);
        }
      }
      std::sort(slot.scheduled_joins.begin(), slot.scheduled_joins.end());
      st_->by_meeting[m].push_back(static_cast<int>(st_->slots.size()));
      st_->slots.push_back(std::move(slot));
    }
  }
  st_->starved.assign(st_->slots.size(), 0);
}

LegTracker::~LegTracker() = default;

void LegTracker::Poll() {
  State& st = *st_;
  auto& runner = st.runner;
  const su::TimeUs now = runner.backend().sched().now();
  ++st.poll_no;

  for (State::Slot& slot : st.slots) {
    const bool present = runner.present(slot.meeting, slot.index);
    const scallop::core::ParticipantId id =
        present ? runner.peer(slot.meeting, slot.index).id() : 0;
    if (present && (!slot.present || id != slot.id)) {
      slot.joined = st.JoinTime(slot, now);
      ++st.acc.joins;
    }
    slot.present = present;
    slot.id = id;
  }

  const uint64_t n = st.slots.size();
  const double step_ms = static_cast<double>(now - st.prev_poll) / 1000.0;
  for (const std::vector<int>& members : st.by_meeting) {
    for (int r : members) {
      State::Slot& rs = st.slots[static_cast<size_t>(r)];
      if (!rs.present) continue;
      scallop::client::Peer& rp = runner.peer(rs.meeting, rs.index);
      for (int s : members) {
        State::Slot& ss = st.slots[static_cast<size_t>(s)];
        if (s == r || !ss.present) continue;
        const su::TimeUs epoch = std::max(rs.joined, ss.joined);
        const uint64_t key = static_cast<uint64_t>(r) * n +
                             static_cast<uint64_t>(s);
        auto it = st.open.find(key);
        if (it != st.open.end() && it->second.epoch != epoch) {
          st.Close(it->second);
          st.open.erase(it);
          it = st.open.end();
        }
        if (it == st.open.end()) {
          State::Leg leg;
          leg.r = r;
          leg.s = s;
          leg.epoch = epoch;
          it = st.open.emplace(key, leg).first;
        }
        State::Leg& leg = it->second;
        leg.last_poll = st.poll_no;
        leg.last_seen = now;
        const scallop::media::VideoReceiver* rx = st.Find(rp, ss);
        if (rx == nullptr) continue;
        leg.last = rx->stats();
        if (now <= st.window_start) leg.at_window = leg.last;
        if (now > st.window_start) leg.stream_ms_in_window += step_ms;
        if (leg.first_decode < 0 && leg.last.frames_decoded > 0) {
          leg.first_decode = FirstDecodeTime(*rx, now, leg.epoch);
        }
      }
    }
  }

  for (auto it = st.open.begin(); it != st.open.end();) {
    if (it->second.last_poll != st.poll_no) {
      st.Close(it->second);
      it = st.open.erase(it);
    } else {
      ++it;
    }
  }
  st.prev_poll = now;
}

Modeled LegTracker::Finish() {
  State& st = *st_;
  // Close in key order so the pooled sums never depend on hash-table
  // iteration order.
  std::vector<std::pair<uint64_t, const State::Leg*>> rest;
  rest.reserve(st.open.size());
  for (const auto& [key, leg] : st.open) rest.emplace_back(key, &leg);
  std::sort(rest.begin(), rest.end());
  for (const auto& [key, leg] : rest) st.Close(*leg);
  st.open.clear();
  for (int s : st.starved) st.acc.starved_peers += static_cast<uint64_t>(s);
  return st.acc;
}

}  // namespace confbench
