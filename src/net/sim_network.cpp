#include "net/sim_network.hpp"

namespace nxd::net {

void SimNetwork::attach(const Endpoint& ep, Protocol proto, Service service) {
  services_[ServiceKey{ep, proto}] = std::move(service);
}

void SimNetwork::detach(const Endpoint& ep, Protocol proto) {
  services_.erase(ServiceKey{ep, proto});
}

void SimNetwork::bind_metrics(obs::MetricsRegistry& registry) {
  counters_.bind(registry);
  const std::string help = "Injected faults by kind";
  m_.fault_drops = registry.counter("nxd_net_faults_total", help,
                                    {{"kind", "drop"}});
  m_.fault_duplicates = registry.counter("nxd_net_faults_total", help,
                                         {{"kind", "duplicate"}});
  m_.fault_corruptions = registry.counter("nxd_net_faults_total", help,
                                          {{"kind", "corrupt"}});
  m_.fault_truncations = registry.counter("nxd_net_faults_total", help,
                                          {{"kind", "truncate"}});
  m_.fault_delays = registry.counter("nxd_net_faults_total", help,
                                     {{"kind", "delay"}});
  m_.outage_drops = registry.counter("nxd_net_faults_total", help,
                                     {{"kind", "outage"}});
  m_.fault_delay_seconds =
      registry.counter("nxd_net_fault_delay_seconds_total",
                       "Total simulated transit delay injected");
  // Carry what the plan already counted.
  mirror_faults(FaultStats{}, fault_plan_.stats());
  metrics_bound_ = true;
}

void SimNetwork::mirror_faults(const FaultStats& before,
                               const FaultStats& after) {
  const util::SimTime now = clock_ != nullptr ? clock_->now() : 0;
  const auto mirror = [&](std::uint64_t b, std::uint64_t a, obs::Counter& c,
                          const char* kind) {
    if (a <= b) return;  // no new faults (or the plan was reset/swapped)
    c.inc(a - b);
    if (spans_ != nullptr) {
      const obs::SpanId s =
          spans_->trace_root(++fault_seq_, "fault", now, kind, span_instance_);
      spans_->end(s, now, static_cast<std::int64_t>(a - b));
    }
  };
  mirror(before.injected_drops, after.injected_drops, m_.fault_drops, "drop");
  mirror(before.injected_duplicates, after.injected_duplicates,
         m_.fault_duplicates, "duplicate");
  mirror(before.injected_corruptions, after.injected_corruptions,
         m_.fault_corruptions, "corrupt");
  mirror(before.injected_truncations, after.injected_truncations,
         m_.fault_truncations, "truncate");
  mirror(before.injected_delays, after.injected_delays, m_.fault_delays,
         "delay");
  mirror(before.outage_drops, after.outage_drops, m_.outage_drops, "outage");
  if (after.total_delay > before.total_delay) {
    m_.fault_delay_seconds.inc(
        static_cast<std::uint64_t>(after.total_delay - before.total_delay));
  }
}

std::optional<std::vector<std::uint8_t>> SimNetwork::send(const SimPacket& packet) {
  last_delay_ = 0;
  if (!fault_plan_.empty()) {
    SimPacket shaped = packet;
    const bool observed = metrics_bound_ || spans_ != nullptr;
    const FaultStats before = observed ? fault_plan_.stats() : FaultStats{};
    const FaultVerdict verdict = fault_plan_.apply(
        packet.dst, shaped.payload, clock_ != nullptr ? clock_->now() : 0);
    if (observed) mirror_faults(before, fault_plan_.stats());
    if (verdict.drop) return std::nullopt;
    last_delay_ = verdict.delay;
    const auto it = services_.find(ServiceKey{packet.dst, packet.protocol});
    if (it == services_.end()) {
      counters_.inc<&Counts::dropped>();
      return std::nullopt;
    }
    counters_.inc<&Counts::delivered>();
    auto reply = it->second(shaped);
    if (verdict.duplicate) {
      // The duplicate reaches the service too; its reply is discarded (the
      // client already has the first one — classic UDP retransmit noise).
      counters_.inc<&Counts::delivered>();
      it->second(shaped);
    }
    return reply;
  }

  const auto it = services_.find(ServiceKey{packet.dst, packet.protocol});
  if (it == services_.end()) {
    counters_.inc<&Counts::dropped>();
    return std::nullopt;
  }
  counters_.inc<&Counts::delivered>();
  return it->second(packet);
}

}  // namespace nxd::net
