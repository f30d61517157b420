#include "honeypot/overload.hpp"

#include <algorithm>

namespace nxd::honeypot {

void ConnectionGate::bind_metrics(obs::MetricsRegistry& registry) {
  counters_.bind(registry);
  active_ = registry.gauge("nxd_honeypot_active_connections",
                           "Connections currently in flight");
  active_.add(static_cast<std::int64_t>(conns_.size()));
}

bool ConnectionGate::rate_admit(net::IPv4 source, util::SimTime now) {
  if (config_.per_ip_rate <= 0) return true;
  auto it = buckets_.find(source);
  if (it == buckets_.end()) {
    if (config_.max_tracked_ips != 0 &&
        buckets_.size() >= config_.max_tracked_ips) {
      // Sweep buckets that have fully refilled (idle long enough to hold no
      // state worth keeping).  A spoofed flood of fresh sources therefore
      // recycles table slots instead of growing memory.
      for (auto victim = buckets_.begin(); victim != buckets_.end();) {
        if (victim->second.tokens_at(now) >= victim->second.capacity()) {
          victim = buckets_.erase(victim);
          counters_.inc<&OverloadStats::rate_sources_evicted>();
        } else {
          ++victim;
        }
      }
    }
    if (config_.max_tracked_ips != 0 &&
        buckets_.size() >= config_.max_tracked_ips) {
      // Every tracked source is actively metered and the table is full:
      // fail open for the newcomer (admitting one request is cheaper than
      // letting an attacker evict real limiter state), but count it.
      counters_.inc<&OverloadStats::rate_table_overflow>();
      return true;
    }
    it = buckets_
             .emplace(source, util::TokenBucket(config_.per_ip_burst,
                                                config_.per_ip_rate))
             .first;
  }
  return it->second.try_acquire(now);
}

ConnectionGate::Admission ConnectionGate::open(net::IPv4 source,
                                               util::SimTime now) {
  counters_.inc<&OverloadStats::opened>();
  if (draining_) {
    counters_.inc<&OverloadStats::shed_draining>();
    return Admission{0, AdmitDecision::ShedDraining};
  }
  if (config_.max_connections != 0 &&
      conns_.size() >= config_.max_connections) {
    counters_.inc<&OverloadStats::shed_capacity>();
    return Admission{0, AdmitDecision::ShedCapacity};
  }
  if (pressure_ != nullptr && config_.max_connections != 0) {
    // Degradation ladder: the effective cap shrinks with the pressure
    // level, shedding *before* the hard cap is reached.
    const auto cap = static_cast<std::size_t>(obs::PressureSignal::scale_capacity(
        static_cast<std::int64_t>(config_.max_connections),
        pressure_->level_index()));
    if (conns_.size() >= cap) {
      counters_.inc<&OverloadStats::shed_pressure>();
      return Admission{0, AdmitDecision::ShedPressure};
    }
  }
  if (!rate_admit(source, now)) {
    counters_.inc<&OverloadStats::shed_rate>();
    return Admission{0, AdmitDecision::ShedRate};
  }
  counters_.inc<&OverloadStats::accepted>();
  const std::uint64_t id = next_id_++;
  Conn conn;
  conn.source = source;
  conn.opened = now;
  conn.last_activity = now;
  conns_.emplace(id, conn);
  active_.add(1);
  arm(id, conn);
  return Admission{id, AdmitDecision::Accept};
}

std::optional<util::SimTime> ConnectionGate::effective_deadline(
    const Conn& conn) const {
  std::optional<util::SimTime> deadline;
  const auto consider = [&deadline](util::SimTime candidate) {
    if (!deadline || candidate < *deadline) deadline = candidate;
  };
  if (config_.idle_deadline > 0) {
    consider(conn.last_activity + config_.idle_deadline);
  }
  const util::SimTime phase =
      conn.headers_done ? config_.request_deadline : config_.header_deadline;
  if (phase > 0) consider(conn.opened + phase);
  if (draining_) consider(drain_started_ + config_.drain_deadline);
  return deadline;
}

void ConnectionGate::arm(std::uint64_t id, const Conn& conn) {
  if (const auto deadline = effective_deadline(conn)) {
    deadlines_.set(id, *deadline);
  } else {
    deadlines_.erase(id);
  }
}

ExpireReason ConnectionGate::classify(const Conn& conn) const {
  const util::SimTime phase_limit =
      conn.headers_done ? config_.request_deadline : config_.header_deadline;
  const std::optional<util::SimTime> idle =
      config_.idle_deadline > 0
          ? std::optional(conn.last_activity + config_.idle_deadline)
          : std::nullopt;
  const std::optional<util::SimTime> phase =
      phase_limit > 0 ? std::optional(conn.opened + phase_limit) : std::nullopt;
  const std::optional<util::SimTime> drain =
      draining_ ? std::optional(drain_started_ + config_.drain_deadline)
                : std::nullopt;
  // Priority on ties: the drain cap is the most specific event, then the
  // phase (header/body) budget, then idleness.
  const auto le = [](const std::optional<util::SimTime>& a,
                     const std::optional<util::SimTime>& b) {
    return a && (!b || *a <= *b);
  };
  if (drain && le(drain, phase) && le(drain, idle)) {
    return ExpireReason::DrainForced;
  }
  if (le(phase, idle)) {
    return conn.headers_done ? ExpireReason::Body : ExpireReason::Header;
  }
  return ExpireReason::Idle;
}

void ConnectionGate::activity(std::uint64_t id, util::SimTime now,
                              bool headers_complete) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  it->second.last_activity = now;
  if (headers_complete) it->second.headers_done = true;
  arm(id, it->second);
}

std::vector<ConnectionGate::Expired> ConnectionGate::reap(util::SimTime now) {
  std::vector<Expired> out;
  for (const std::uint64_t id : deadlines_.pop_expired(now)) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    const ExpireReason reason = classify(it->second);
    switch (reason) {
      case ExpireReason::Header:
        counters_.inc<&OverloadStats::expired_header>();
        break;
      case ExpireReason::Body:
        counters_.inc<&OverloadStats::expired_body>();
        break;
      case ExpireReason::Idle:
        counters_.inc<&OverloadStats::expired_idle>();
        break;
      case ExpireReason::DrainForced:
        counters_.inc<&OverloadStats::drain_forced_closes>();
        break;
    }
    conns_.erase(it);
    active_.sub(1);
    out.push_back(Expired{id, reason});
  }
  return out;
}

void ConnectionGate::close(std::uint64_t id, bool completed) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  conns_.erase(it);
  deadlines_.erase(id);
  active_.sub(1);
  if (completed) {
    counters_.inc<&OverloadStats::completed>();
    if (draining_) counters_.inc<&OverloadStats::drained_completed>();
  } else {
    counters_.inc<&OverloadStats::aborted>();
  }
}

void ConnectionGate::begin_drain(util::SimTime now) {
  if (draining_) return;
  draining_ = true;
  drain_started_ = now;
  // Cap every in-flight deadline at the drain cutoff.  Re-arm in ascending
  // id order so the queue's tie order — and therefore the reap order — does
  // not depend on hash-map iteration.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const std::uint64_t id : ids) arm(id, conns_.at(id));
}

}  // namespace nxd::honeypot
