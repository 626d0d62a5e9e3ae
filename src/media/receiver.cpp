#include "media/receiver.hpp"

#include <algorithm>

namespace scallop::media {
namespace {

// The receiver's sorted flat vectors are keyed by an int64 that `key`
// extracts from an entry.
constexpr auto kFirst = [](const auto& e) { return e.first; };
constexpr auto kSeqOf = [](const auto& e) { return e.seq; };
constexpr auto kSelf = [](int64_t e) { return e; };

// First entry whose key is >= `k`.
template <typename T, typename Key>
typename std::vector<T>::iterator LowerBound(std::vector<T>& v, int64_t k,
                                             Key key) {
  return std::lower_bound(
      v.begin(), v.end(), k,
      [&key](const T& e, int64_t x) { return key(e) < x; });
}

template <typename T, typename Key>
bool Contains(std::vector<T>& v, int64_t k, Key key) {
  auto it = LowerBound(v, k, key);
  return it != v.end() && key(*it) == k;
}

// The entry keyed `k`, inserted as `fresh` when absent. A key past the
// back appends without a search: the in-order common case.
template <typename T, typename Key>
T& FindOrInsert(std::vector<T>& v, int64_t k, Key key, T fresh) {
  if (v.empty() || key(v.back()) < k) return v.emplace_back(std::move(fresh));
  auto it = LowerBound(v, k, key);
  if (key(*it) != k) it = v.insert(it, std::move(fresh));
  return *it;
}

}  // namespace

// Out-of-order sample (does not happen in simulation, where time is
// monotone, but keep the container sorted regardless).
void PerSecondSeries::AddOutOfOrder(int64_t second, double value) {
  auto it = std::lower_bound(
      by_second_.begin(), by_second_.end(), second,
      [](const auto& e, int64_t s) { return e.first < s; });
  if (it != by_second_.end() && it->first == second) {
    it->second += value;
  } else {
    by_second_.insert(it, {second, value});
  }
}

std::vector<std::pair<int64_t, double>> PerSecondSeries::Series() const {
  if (by_second_.empty()) return {};
  std::vector<std::pair<int64_t, double>> out;
  int64_t next = by_second_.front().first;
  for (const auto& [second, sum] : by_second_) {
    for (; next < second; ++next) out.emplace_back(next, 0.0);
    out.emplace_back(second, sum);
    next = second + 1;
  }
  return out;
}

double PerSecondSeries::SumInSecond(int64_t second) const {
  auto it = std::lower_bound(
      by_second_.begin(), by_second_.end(), second,
      [](const auto& e, int64_t s) { return e.first < s; });
  return (it != by_second_.end() && it->first == second) ? it->second : 0.0;
}

VideoReceiver::VideoReceiver(const VideoReceiverConfig& cfg,
                             SendNackFn send_nack, SendPliFn send_pli)
    : cfg_(cfg),
      send_nack_(std::move(send_nack)),
      send_pli_(std::move(send_pli)),
      jitter_(cfg.clock_rate) {}

const PerSecondSeries& VideoReceiver::template_bytes_series(
    uint8_t template_id) const {
  static const PerSecondSeries kEmpty;
  return template_id < template_bytes_.size() ? template_bytes_[template_id]
                                              : kEmpty;
}

void VideoReceiver::OnPacket(const rtp::RtpPacket& pkt, util::TimeUs arrival) {
  const rtp::RtpExtension* ext = pkt.FindExtension(cfg_.dd_extension_id);
  auto dd = ext ? av1::PeekMandatory(ext->data) : std::nullopt;
  if (!dd.has_value()) return;  // video without a DD is not decodable here

  ++stats_.packets_received;
  if (first_packet_time_ < 0) first_packet_time_ = arrival;
  stats_.bytes_received += pkt.payload.size();
  jitter_.OnPacket(pkt.timestamp, arrival);
  bytes_series_.Add(arrival, static_cast<double>(pkt.payload.size()));
  template_bytes_[dd->template_id & 63].Add(
      arrival, static_cast<double>(pkt.payload.size()));

  int64_t seq = seq_unwrap_.Unwrap(pkt.sequence_number);
  int64_t frame = frame_unwrap_.Unwrap(dd->frame_number);
  max_seen_frame_ = std::max(max_seen_frame_, frame);

  // Template 0 is used exclusively by key frames in the L1T3 scheme (the
  // extended structure rides only on the first one, so it cannot serve as
  // the key-frame marker).
  bool key = dd->template_id == 0;

  if (const SeenSlot* existing = FindSeen(seq)) {
    ++stats_.duplicate_packets;
    // Same sequence number, different frame content: this is the broken
    // rewrite the paper warns about — the decoder state is corrupted.
    if (existing->frame != static_cast<uint32_t>(frame) ||
        existing->template_id != dd->template_id) {
      ++stats_.conflicting_duplicates;
      if (!decoder_broken_) {
        decoder_broken_ = true;
        waiting_for_key_frame_ = true;
        ++stats_.decoder_breaks;
      }
    }
    return;
  }
  RememberSeen(seq, frame, dd->template_id);

  BufferedPacket info{frame,
                      dd->template_id,
                      dd->start_of_frame,
                      dd->end_of_frame,
                      key,
                      pkt.payload.size()};
  // A seq still buffered from beyond the duplicate window keeps its first
  // entry.
  FindOrInsert(buffer_, seq, kSeqOf, BufferedSeq{seq, frame});

  if (missing_.erase(seq) > 0) {
    ++stats_.recovered_packets;
  } else if (abandoned_.erase(seq) > 0) {
    // Arrived after we gave up; frame was already failed.
    ++stats_.recovered_packets;
  }

  DetectGaps(seq, arrival);
  AssembleFrame(seq, info);
  TryDecode(arrival);
}

const VideoReceiver::SeenSlot* VideoReceiver::FindSeen(int64_t seq) const {
  // Live keys lie in [seen_lo_, seen_max_]: the common in-order case
  // (seq beyond seen_max_) skips the probe.
  if (seq > seen_max_ || seq < seen_lo_ || seen_.empty()) return nullptr;
  const SeenSlot& slot = seen_[static_cast<size_t>(seq) & (seen_.size() - 1)];
  return slot.template_id != kFreeSlot && slot.seq == static_cast<uint32_t>(seq)
             ? &slot
             : nullptr;
}

void VideoReceiver::RememberSeen(int64_t seq, int64_t frame,
                                 uint8_t template_id) {
  // Age out every key below seq - kSeenWindow. The window never spans the
  // capacity, so the walk visits at most one slot per live key, and
  // clearing a slot unconditionally cannot hit another live key.
  const int64_t cutoff = seq - kSeenWindow;
  if (!seen_.empty() && cutoff > seen_lo_) {
    const int64_t end = std::min(cutoff, seen_max_ + 1);
    const size_t mask = seen_.size() - 1;
    for (int64_t k = seen_lo_; k < end; ++k) {
      seen_[static_cast<size_t>(k) & mask].template_id = kFreeSlot;
    }
    seen_lo_ = cutoff;
  }
  const int64_t lo = seen_.empty() ? seq : std::min(seen_lo_, seq);
  const int64_t hi = seen_.empty() ? seq : std::max(seen_max_, seq);
  if (hi - lo + 1 > static_cast<int64_t>(seen_.size())) GrowSeen(lo, hi);
  seen_[static_cast<size_t>(seq) & (seen_.size() - 1)] =
      SeenSlot{static_cast<uint32_t>(seq), static_cast<uint32_t>(frame),
               template_id};
  seen_lo_ = lo;
  seen_max_ = hi;
}

void VideoReceiver::GrowSeen(int64_t lo, int64_t hi) {
  size_t capacity = 64;
  while (static_cast<int64_t>(capacity) < hi - lo + 1) capacity *= 2;
  std::vector<SeenSlot> grown(capacity);
  for (const SeenSlot& slot : seen_) {
    if (slot.template_id == kFreeSlot) continue;
    // Rebuild the full key from its low bits: it lies in [seen_lo_, hi].
    const int64_t key =
        seen_lo_ + static_cast<uint32_t>(slot.seq -
                                         static_cast<uint32_t>(seen_lo_));
    grown[static_cast<size_t>(key) & (capacity - 1)] = slot;
  }
  seen_ = std::move(grown);
}

void VideoReceiver::DetectGaps(int64_t seq, util::TimeUs now) {
  if (highest_seq_ < 0) {
    highest_seq_ = seq;
    return;
  }
  if (seq > highest_seq_ + 1) {
    // Record the gap; the first NACK goes out from OnTick once the packet
    // has been missing longer than the reorder tolerance.
    for (int64_t s = highest_seq_ + 1; s < seq; ++s) {
      if (Contains(buffer_, s, kSeqOf) || abandoned_.count(s)) continue;
      missing_.emplace(s, MissingPacket{now, 0, 0});
    }
  }
  highest_seq_ = std::max(highest_seq_, seq);
}

void VideoReceiver::AssembleFrame(int64_t seq, const BufferedPacket& info) {
  PendingFrame& f =
      FindOrInsert(pending_frames_, info.frame_number, kFirst,
                   std::pair{info.frame_number, PendingFrame{}})
          .second;
  if (info.start_of_frame) f.start_seq = seq;
  if (info.end_of_frame) f.end_seq = seq;
  f.template_id = info.template_id;
  f.key_frame = f.key_frame || info.key_frame;
  ++f.packets_have;
  f.bytes += info.size;
}

bool VideoReceiver::FrameComplete(const PendingFrame& f) const {
  if (f.start_seq < 0 || f.end_seq < 0 || f.failed) return false;
  return static_cast<int64_t>(f.packets_have) == f.end_seq - f.start_seq + 1;
}

void VideoReceiver::TryDecode(util::TimeUs now) {
  // Decode pending frames in frame-number order. Stop at the first frame
  // that is incomplete but still recoverable (waiting on retransmission).
  bool progress = true;
  while (progress && !pending_frames_.empty()) {
    progress = false;
    const int64_t frame_number = pending_frames_.front().first;
    const PendingFrame& f = pending_frames_.front().second;

    if (f.failed) {
      ++stats_.frames_undecodable;
      waiting_for_key_frame_ = true;
      pending_frames_.erase(pending_frames_.begin());
      progress = true;
      continue;
    }
    if (!FrameComplete(f)) {
      // Frame might still complete via retransmission; but if a newer key
      // frame is already complete, skip ahead to it (decoder resync).
      auto key_it = std::find_if(
          pending_frames_.begin(), pending_frames_.end(),
          [this](const auto& kv) {
            return kv.second.key_frame && FrameComplete(kv.second);
          });
      if (key_it != pending_frames_.end() && key_it->first > frame_number) {
        // Drop everything before the key frame, in one erase.
        stats_.frames_undecodable +=
            static_cast<uint64_t>(key_it - pending_frames_.begin());
        pending_frames_.erase(pending_frames_.begin(), key_it);
        progress = true;
        continue;
      }
      break;
    }

    ++stats_.frames_completed;

    if (f.key_frame) {
      decoder_broken_ = false;
      waiting_for_key_frame_ = false;
      DecodeFrame(frame_number, f, now);
      ++stats_.key_frames_decoded;
      pending_frames_.erase(pending_frames_.begin());
      progress = true;
      continue;
    }
    if (decoder_broken_ || waiting_for_key_frame_) {
      ++stats_.frames_undecodable;
      pending_frames_.erase(pending_frames_.begin());
      progress = true;
      continue;
    }

    int dist = av1::L1T3Pattern::DependencyDistance(f.template_id, false);
    int64_t dep = frame_number - dist;
    bool dep_ok = dep <= 0 || Contains(decoded_frames_, dep, kSelf);
    if (dep_ok) {
      DecodeFrame(frame_number, f, now);
      pending_frames_.erase(pending_frames_.begin());
      progress = true;
      continue;
    }
    // Dependency not decoded. If it can still arrive (newer than anything
    // assembled), wait; otherwise the frame is permanently undecodable.
    if (Contains(pending_frames_, dep, kFirst)) break;
    ++stats_.frames_undecodable;
    waiting_for_key_frame_ = true;
    pending_frames_.erase(pending_frames_.begin());
    progress = true;
  }
}

void VideoReceiver::DecodeFrame(int64_t frame_number, const PendingFrame& f,
                                util::TimeUs now) {
  FindOrInsert(decoded_frames_, frame_number, kSelf, frame_number);
  last_decoded_frame_ = std::max(last_decoded_frame_, frame_number);
  decoded_frames_.erase(decoded_frames_.begin(),
                        LowerBound(decoded_frames_, frame_number - 64, kSelf));
  ++stats_.frames_decoded;
  last_decode_time_ = now;
  fps_series_.Add(now, 1.0);
  FindOrInsert(decode_times_, frame_number, kFirst,
               std::pair{frame_number, now})
      .second = now;
  if (decode_times_.size() > 256) {
    decode_times_.erase(decode_times_.begin(),
                        decode_times_.end() - 256);
  }
  // Drop packet buffer entries for this frame.
  if (f.start_seq >= 0 && f.end_seq >= f.start_seq) {
    buffer_.erase(LowerBound(buffer_, f.start_seq, kSeqOf),
                  LowerBound(buffer_, f.end_seq + 1, kSeqOf));
  }
}

void VideoReceiver::OnTick(util::TimeUs now) {
  // NACK retries / abandonment.
  std::vector<uint16_t> renacks;
  for (auto it = missing_.begin(); it != missing_.end();) {
    MissingPacket& m = it->second;
    if (now - m.first_detected > cfg_.loss_abandon_timeout ||
        m.retries > cfg_.max_nack_retries) {
      // Give up: mark the owning frame(s) failed. The lost packet's frame
      // boundaries may themselves be missing, so bound the affected frame
      // range by the frames of the nearest buffered neighbors.
      int64_t seq = it->first;
      abandoned_.insert(seq);
      ++stats_.abandoned_packets;
      int64_t frame_lo = 0;
      int64_t frame_hi = max_seen_frame_;
      auto above = LowerBound(buffer_, seq + 1, kSeqOf);
      if (above != buffer_.end()) frame_hi = above->frame_number;
      if (above != buffer_.begin()) frame_lo = std::prev(above)->frame_number;
      for (auto& [fn, f] : pending_frames_) {
        if (fn >= frame_lo && fn <= frame_hi && !FrameComplete(f)) {
          f.failed = true;
        }
      }
      it = missing_.erase(it);
      continue;
    }
    bool due = m.retries == 0
                   ? now - m.first_detected >= cfg_.nack_initial_delay
                   : now - m.last_nack >= cfg_.nack_retry_interval;
    if (due) {
      m.last_nack = now;
      ++m.retries;
      renacks.push_back(static_cast<uint16_t>(it->first & 0xffff));
    }
    ++it;
  }
  if (!renacks.empty() && send_nack_) {
    ++stats_.nacks_sent;
    stats_.nacked_packets += renacks.size();
    send_nack_(renacks);
  }

  // Bound buffer growth for abandoned/failed state.
  while (abandoned_.size() > 4096) abandoned_.erase(abandoned_.begin());

  // Freeze detection -> PLI.
  if (stats_.frames_decoded > 0 &&
      now - last_decode_time_ > cfg_.freeze_pli_threshold) {
    util::TimeUs freeze_start =
        std::max(last_decode_time_, freeze_accounted_until_);
    if (now > freeze_start) {
      stats_.total_freeze_ms += util::ToMillis(now - freeze_start);
      freeze_accounted_until_ = now;
    }
    if (send_pli_ && now - last_pli_time_ >= cfg_.pli_min_interval) {
      last_pli_time_ = now;
      ++stats_.plis_sent;
      send_pli_();
    }
    // Resync: throw away stalled pending frames older than the newest key
    // frame candidate; handled in TryDecode on the next packet.
  } else if (stats_.frames_decoded == 0 && first_packet_time_ >= 0 &&
             now - first_packet_time_ > cfg_.freeze_pli_threshold) {
    // Cold start mid-stream: packets are arriving but nothing is
    // decodable until the next key frame. A PLI short-circuits the wait
    // for the sender's periodic refresh (late joiners would otherwise
    // stall for up to a full key-frame interval).
    if (send_pli_ && now - last_pli_time_ >= cfg_.pli_min_interval) {
      last_pli_time_ = now;
      ++stats_.plis_sent;
      send_pli_();
    }
  }

  TryDecode(now);
}

bool VideoReceiver::frozen(util::TimeUs now) const {
  return stats_.frames_decoded > 0 &&
         now - last_decode_time_ > cfg_.freeze_pli_threshold;
}

double VideoReceiver::RecentFps(util::TimeUs now,
                                util::DurationUs window) const {
  int64_t count = 0;
  for (const auto& [frame, t] : decode_times_) {
    if (now - t <= window) ++count;
  }
  return static_cast<double>(count) / util::ToSeconds(window);
}

void AudioReceiver::OnPacket(const rtp::RtpPacket& pkt, util::TimeUs arrival) {
  ++packets_;
  bytes_ += pkt.payload.size();
  jitter_.OnPacket(pkt.timestamp, arrival);
  int64_t seq = unwrap_.Unwrap(pkt.sequence_number);
  if (highest_seq_ >= 0 && seq > highest_seq_ + 1) {
    gaps_ += static_cast<uint64_t>(seq - highest_seq_ - 1);
  }
  highest_seq_ = std::max(highest_seq_, seq);
}

}  // namespace scallop::media
