#include "harness/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "obs/stats_registry.hpp"

namespace scallop::harness {

namespace {

// All doubles are rendered with fixed precision so the byte-stability
// guarantee does not depend on locale or shortest-round-trip formatting.
void Row(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

// Renders one single-row section from the registry entries keyed
// "<section>.<column>": a header line plus a value line, or (`pairs`) one
// inline "section,k,v,k,v" line. Nothing when the section registered no
// keys.
void Section(std::string& out, const obs::StatsRegistry& stats,
             const std::string& section, bool pairs = false) {
  const std::string prefix = section + ".";
  std::string header = section;
  std::string row = section;
  for (const auto& [name, value] : stats.entries()) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string column = name.substr(prefix.size());
    (pairs ? row : header) += "," + column;
    row.append(",") += std::to_string(value);
  }
  if (row == section) return;
  if (!pairs) out += header + "\n";
  out += row + "\n";
}

}  // namespace

std::string ScenarioMetrics::ToCsv() const {
  obs::StatsRegistry stats;
  RegisterInto(stats);
  std::string out;
  Row(out, "scenario,%s,seed,%" PRIu64 ",duration_s,%.2f\n", scenario.c_str(),
      seed, duration_s);

  Section(out, stats, "aggregate");

  // Multi-switch backends add a fleet section: per-switch state and the
  // meeting -> switch placement map. Single-switch runs leave `switches`
  // empty so their CSV stays byte-identical to the pre-backend-seam pin.
  if (!switches.empty()) {
    Row(out, "fleet,backend,%s,placements_rebalanced,%" PRIu64 "\n",
        backend.c_str(), counters.placements_rebalanced);
    Row(out,
        "switch,index,alive,meetings,participants,packets_in,packets_out,"
        "replicas\n");
    for (const auto& s : switches) {
      Row(out, "switch,%d,%d,%d,%d,%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
          s.index, s.alive ? 1 : 0, s.meetings, s.participants, s.packets_in,
          s.packets_out, s.replicas);
    }
    Row(out, "placement,meeting_index,switch,spans\n");
    for (const auto& m : meetings) {
      Row(out, "placement,%d,%d,%d\n", m.index, m.placement, m.spans);
    }
  }
  Section(out, stats, "cascade");

  // Backbone topology section: rendered only when the spec declared
  // inter-switch links, so default full-mesh fleet CSVs keep their
  // byte-identical golden pins.
  if (topology.configured) {
    Row(out,
        "topology,links,%zu,max_utilization,%.4f,max_depth,%zu,replans,"
        "%" PRIu64 "\n",
        topology.links.size(), topology.max_utilization, topology.max_depth,
        topology.relay_replans);
    Row(out,
        "toplink,a,b,latency_ms,capacity_bps,load_bps,utilization,"
        "relay_packets,relay_bytes\n");
    for (const auto& l : topology.links) {
      Row(out,
          "toplink,%zu,%zu,%.2f,%.0f,%.0f,%.4f,%" PRIu64 ",%" PRIu64 "\n",
          l.a, l.b, l.latency_s * 1e3, l.capacity_bps, l.load_bps,
          l.utilization, l.relay_packets, l.relay_bytes);
    }
    Row(out, "treedepth,depth,meetings\n");
    for (size_t d = 0; d < topology.depth_histogram.size(); ++d) {
      Row(out, "treedepth,%zu,%d\n", d, topology.depth_histogram[d]);
    }
  }

  Section(out, stats, "control");
  Section(out, stats, "federation");
  Section(out, stats, "workload", /*pairs=*/true);
  Section(out, stats, "redundancy");
  Section(out, stats, "obs", /*pairs=*/true);

  Row(out, "meeting,index,id,final_design,participants_at_end\n");
  for (const auto& m : meetings) {
    Row(out, "meeting,%d,%u,%s,%d\n", m.index, m.id, m.final_design.c_str(),
        m.participants_at_end);
  }

  Row(out,
      "peer,meeting,index,id,profile,present,seconds,frames_sent,"
      "audio_rx,min_frames,max_frames,streams,breaks,conflicts\n");
  for (const auto& p : peers) {
    Row(out,
        "peer,%d,%d,%u,%s,%d,%.2f,%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%d,%" PRIu64 ",%" PRIu64 "\n",
        p.meeting, p.index, p.id, p.profile.c_str(), p.present_at_end ? 1 : 0,
        p.seconds_in_meeting, p.frames_sent, p.audio_packets_received,
        p.min_frames_decoded, p.max_frames_decoded, p.active_streams,
        p.total_decoder_breaks, p.total_conflicting_duplicates);
  }

  Row(out,
      "stream,meeting,receiver,receiver_id,sender_id,packets,bytes,"
      "decoded,undecodable,breaks,conflicts,nacks,recovered,freeze_ms,"
      "fps\n");
  for (const auto& s : streams) {
    Row(out,
        "stream,%d,%d,%u,%u,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%.2f,%.2f\n",
        s.meeting, s.receiver, s.receiver_id, s.sender_id, s.packets_received,
        s.bytes_received, s.frames_decoded, s.frames_undecodable,
        s.decoder_breaks, s.conflicting_duplicates, s.nacks_sent,
        s.recovered_packets, s.freeze_ms, s.recent_fps);
  }

  Row(out, "sample,t_s,frames_decoded,seq_rewritten,dt_changes,migrations\n");
  for (const auto& t : timeline) {
    Row(out,
        "sample,%.2f,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
        t.t_s, t.frames_decoded_total, t.seq_rewritten, t.dt_changes,
        t.tree_migrations);
  }
  return out;
}

std::string ScenarioMetrics::Summary() const {
  std::string out;
  uint64_t decoded = 0;
  double freeze = 0.0;
  for (const auto& s : streams) {
    decoded += s.frames_decoded;
    freeze += s.freeze_ms;
  }
  // Spec label, backend and seed lead the digest: a fingerprint mismatch
  // in CI must be attributable to its exact (spec, backend, seed) point
  // from the log alone.
  Row(out,
      "[%s @ %s] seed=%" PRIu64 " %.0fs: %zu peers, %zu streams, %" PRIu64
      " frames decoded, floor=%" PRIu64 " frames, %" PRIu64
      " rewrite violations, %.0f ms total freeze\n",
      scenario.c_str(), backend.empty() ? "?" : backend.c_str(), seed,
      duration_s, peers.size(), streams.size(), decoded, WorstDeliveryFloor(),
      RewriteViolations(), freeze);
  obs::StatsRegistry stats;
  RegisterInto(stats);
  std::string prefix;
  for (const auto& [name, value] : stats.entries()) {
    const size_t dot = name.find('.');
    if (name.substr(0, dot) != prefix) {
      if (!prefix.empty()) out += "\n";
      prefix = name.substr(0, dot);
      out += "    " + prefix + ":";
    }
    out.append(" ").append(name, dot + 1).append("=") +=
        std::to_string(value);
  }
  if (!prefix.empty()) out += "\n";
  return out;
}

void ScenarioMetrics::RegisterInto(obs::StatsRegistry& registry) const {
  const auto set = [&registry](const char* section, const char* column,
                               uint64_t value) {
    registry.Set(std::string(section) + "." + column, value);
  };
  const testbed::BackendCounters& c = counters;
  set("aggregate", "switch_in", c.switch_packets_in);
  set("aggregate", "switch_out", c.switch_packets_out);
  set("aggregate", "replicas", c.switch_replicas);
  set("aggregate", "seq_rewritten", c.seq_rewritten);
  set("aggregate", "seq_dropped", c.seq_dropped);
  set("aggregate", "svc_suppressed", c.svc_suppressed);
  set("aggregate", "remb_filtered", c.remb_filtered);
  set("aggregate", "remb_forwarded", c.remb_forwarded);
  set("aggregate", "dt_changes", c.dt_changes);
  set("aggregate", "filter_flips", c.filter_flips);
  set("aggregate", "trees_built", c.trees_built);
  set("aggregate", "migrations", c.tree_migrations);
  set("aggregate", "cpu_packets", c.agent_cpu_packets);
  set("aggregate", "blackholed", blackholed);

  // Multi-switch backends only; single-switch runs keep `switches` empty.
  if (!switches.empty()) {
    set("fleet", "switches", switches.size());
    set("fleet", "placements_rebalanced", c.placements_rebalanced);
    set("cascade", "spans_installed", cascade.spans_installed);
    set("cascade", "spans_removed", cascade.spans_removed);
    set("cascade", "relay_packets", cascade.relay_packets);
    set("cascade", "relay_bytes", cascade.relay_bytes);
    set("cascade", "relay_dt_changes", cascade.relay_dt_changes);
  }
  // Only when the spec declared inter-switch links.
  if (topology.configured) {
    uint64_t backbone_bytes = 0;
    for (const auto& l : topology.links) backbone_bytes += l.relay_bytes;
    set("topology", "links", topology.links.size());
    set("topology", "backbone_relay_bytes", backbone_bytes);
    set("topology", "max_depth", topology.max_depth);
    set("topology", "relay_replans", topology.relay_replans);
  }
  // Southbound commands, northbound telemetry, failure detection and
  // rebalancer activity; on multi-switch backends and whenever the spec
  // armed the control plane. The retransmission column appears only once
  // a reliable command was actually resent, so lossless runs keep the
  // pre-ack bytes.
  if (control_plane) {
    set("control", "commands_sent", control.commands_sent);
    set("control", "commands_applied", control.commands_applied);
    set("control", "commands_dropped", control.commands_dropped);
    set("control", "events_sent", control.events_sent);
    set("control", "events_delivered", control.events_delivered);
    set("control", "events_dropped", control.events_dropped);
    set("control", "heartbeats_seen", control.heartbeats_seen);
    set("control", "heartbeats_missed", control.heartbeats_missed);
    set("control", "load_reports", control.load_reports_seen);
    set("control", "switches_failed", control.switches_failed);
    set("control", "rebalance_migrations", control.rebalance_migrations);
    if (control.commands_retransmitted > 0) {
      set("control", "commands_retransmitted", control.commands_retransmitted);
    }
  }
  // The east-west controller plane of a federated fleet{N,R>1}.
  if (federation.configured) {
    const testbed::FederationCounters& f = federation;
    set("federation", "regions", static_cast<uint64_t>(f.regions));
    set("federation", "east_west_sent", f.messages_sent);
    set("federation", "east_west_delivered", f.messages_delivered);
    set("federation", "east_west_dropped", f.messages_dropped);
    set("federation", "east_west_retransmitted", f.messages_retransmitted);
    set("federation", "directory_lookups", f.directory_lookups);
    set("federation", "remote_lookups", f.directory_lookups_remote);
    set("federation", "announcements", f.directory_announcements);
    set("federation", "border_spans", f.border_spans);
    set("federation", "controller_heartbeats", f.controller_heartbeats_seen);
    set("federation", "controller_misses", f.controller_heartbeats_missed);
    set("federation", "controllers_failed", f.controllers_failed);
    set("federation", "shards_adopted", f.shards_adopted);
    set("federation", "meetings_adopted", f.meetings_adopted);
  }
  // Only when the spec roamed anyone.
  if (workload) {
    set("workload", "roams_executed", roams_executed);
    set("workload", "roam_rehomings", roam_rehomings);
  }
  // Only when the spec configured dual trees or hitless migration.
  if (redundancy.configured) {
    const testbed::RedundancyCounters& r = redundancy;
    set("redundancy", "secondary_trees_installed", r.secondary_trees_installed);
    set("redundancy", "secondary_trees_removed", r.secondary_trees_removed);
    set("redundancy", "tree_flips", r.tree_flips);
    set("redundancy", "relay_sources", r.relay_sources);
    set("redundancy", "relay_promotions", r.relay_promotions);
    set("redundancy", "redundant_relayed", r.redundant_relayed);
    set("redundancy", "duplicates_eliminated", r.duplicates_eliminated);
    set("redundancy", "hitless_migrations", r.hitless_migrations);
    set("redundancy", "hitless_moves_measured", hitless_moves_measured);
    set("redundancy", "hitless_frames_lost", hitless_frames_lost);
  }
  // Only when the spec enabled WithTrace.
  if (trace_configured) {
    set("obs", "trace_events", trace_events);
    set("obs", "trace_evicted", trace_evicted);
  }
  set("invariant", "rewrite_violations", RewriteViolations());
  set("invariant", "delivery_floor", WorstDeliveryFloor());
}

uint64_t ScenarioMetrics::WorstDeliveryFloor() const {
  uint64_t floor = UINT64_MAX;
  for (const auto& p : peers) {
    if (!p.present_at_end || p.active_streams == 0) continue;
    floor = std::min(floor, p.min_frames_decoded);
  }
  return floor == UINT64_MAX ? 0 : floor;
}

uint64_t ScenarioMetrics::RewriteViolations() const {
  uint64_t v = 0;
  for (const auto& s : streams) {
    v += s.decoder_breaks + s.conflicting_duplicates;
  }
  return v;
}

}  // namespace scallop::harness
