#include "honeypot/recorder.hpp"

#include <algorithm>
#include <unordered_set>

namespace nxd::honeypot {

std::string to_string(HostingPlatform p) {
  return p == HostingPlatform::Aws ? "aws" : "gcp";
}

void TrafficRecorder::bind_metrics(obs::MetricsRegistry& registry) {
  counters_.bind(registry);
  payload_bytes_ = registry.histogram("nxd_honeypot_payload_bytes",
                                      "Captured payload sizes in bytes");
}

void TrafficRecorder::record(TrafficRecord record) {
  if (max_payload_bytes_ != 0 && record.payload.size() > max_payload_bytes_) {
    record.payload.resize(max_payload_bytes_);
    counters_.inc<&Counts::oversize_payloads>();
  }
  bool duplicate = false;
  if (fault_plan_ != nullptr && !fault_plan_->empty()) {
    // Key faults on the destination port (the sensor's listening socket);
    // the wildcard IP means per-endpoint plans match on port alone.
    std::vector<std::uint8_t> payload(record.payload.begin(),
                                      record.payload.end());
    const auto verdict = fault_plan_->apply(
        net::Endpoint{dns::IPv4{}, record.dst_port}, payload, record.when);
    if (verdict.drop) {
      counters_.inc<&Counts::capture_drops>();
      if (spans_ != nullptr) {
        const obs::SpanId s = spans_->trace_root(
            counts().capture_drops, "capture_drop", record.when,
            std::to_string(record.dst_port), span_instance_);
        spans_->end(s, record.when,
                    static_cast<std::int64_t>(record.payload.size()));
      }
      return;
    }
    record.payload.assign(payload.begin(), payload.end());
    record.when += verdict.delay;
    duplicate = verdict.duplicate;
  }
  port_counts_.add(std::to_string(record.dst_port));
  payload_bytes_.observe(record.payload.size());
  counters_.inc<&Counts::records>();
  if (duplicate) {
    port_counts_.add(std::to_string(record.dst_port));
    payload_bytes_.observe(record.payload.size());
    counters_.inc<&Counts::records>();
    records_.push_back(record);
  }
  records_.push_back(std::move(record));
}

std::vector<net::IPv4> TrafficRecorder::distinct_sources() const {
  std::unordered_set<net::IPv4, dns::IPv4Hash> seen;
  for (const auto& r : records_) seen.insert(r.source.ip);
  std::vector<net::IPv4> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<const TrafficRecord*> TrafficRecorder::http_records() const {
  std::vector<const TrafficRecord*> out;
  for (const auto& r : records_) {
    if (r.is_http_port() && parse_http_request(r.payload)) {
      out.push_back(&r);
    }
  }
  return out;
}

void TrafficRecorder::clear() {
  records_.clear();
  port_counts_ = util::Counter{};
}

}  // namespace nxd::honeypot
