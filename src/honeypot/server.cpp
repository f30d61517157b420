#include "honeypot/server.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <thread>

#include "obs/prometheus.hpp"
#include "util/strings.hpp"

namespace nxd::honeypot {

std::string landing_page(const std::string& domain,
                         const std::string& contact_email) {
  return "<!doctype html><html><head><title>Research study: " + domain +
         "</title></head><body>"
         "<h1>This domain is part of an academic measurement study</h1>"
         "<p>The domain <b>" + domain + "</b> was previously unregistered "
         "(in NXDomain status for at least six months) and has been "
         "re-registered by a university research group to measure residual "
         "traffic to non-existent domains.</p>"
         "<p>This server passively records incoming requests for analysis. "
         "No interaction is initiated with visitors, and collected personal "
         "data is anonymized before storage.</p>"
         "<p>Questions or concerns: <a href=\"mailto:" + contact_email +
         "\">" + contact_email + "</a></p>"
         "</body></html>";
}

void NxdHoneypot::set_route(std::string path, HttpResponse response) {
  routes_[std::move(path)] = std::move(response);
}

void NxdHoneypot::expose_metrics(const obs::MetricsRegistry* registry,
                                 std::string admin_token) {
  metrics_ = registry;
  admin_token_ = std::move(admin_token);
}

void NxdHoneypot::expose_slo(std::function<std::string()> provider) {
  slo_provider_ = std::move(provider);
}

namespace {

const char* expire_reason_name(ExpireReason reason) {
  switch (reason) {
    case ExpireReason::Header: return "expire_header";
    case ExpireReason::Body: return "expire_body";
    case ExpireReason::Idle: return "expire_idle";
    case ExpireReason::DrainForced: return "drain_forced";
  }
  return "expire";
}

const char* shed_reason_name(AdmitDecision decision) {
  switch (decision) {
    case AdmitDecision::ShedCapacity: return "capacity";
    case AdmitDecision::ShedRate: return "rate";
    case AdmitDecision::ShedDraining: return "draining";
    case AdmitDecision::ShedPressure: return "pressure";
    case AdmitDecision::Accept: break;
  }
  return "accept";
}

std::vector<std::uint8_t> wire_bytes(const HttpResponse& response) {
  const std::string wire = response.serialize();
  return std::vector<std::uint8_t>(wire.begin(), wire.end());
}

/// Offset one past the header terminator, or npos when the block is open.
std::size_t header_block_end(std::string_view raw) {
  if (const auto pos = raw.find("\r\n\r\n"); pos != std::string_view::npos) {
    return pos + 4;
  }
  if (const auto pos = raw.find("\n\n"); pos != std::string_view::npos) {
    return pos + 2;
  }
  return std::string_view::npos;
}

std::optional<std::size_t> content_length_of(std::string_view head) {
  // Skip the request line, then scan header lines for Content-Length.
  auto line_start = head.find('\n');
  while (line_start != std::string_view::npos && line_start + 1 < head.size()) {
    const std::string_view rest = head.substr(line_start + 1);
    const auto line_end = rest.find('\n');
    const std::string_view line =
        line_end == std::string_view::npos ? rest : rest.substr(0, line_end);
    const auto colon = line.find(':');
    if (colon != std::string_view::npos &&
        util::to_lower(std::string(util::trim(line.substr(0, colon)))) ==
            "content-length") {
      const std::string_view digits = util::trim(line.substr(colon + 1));
      std::size_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(digits.data(), digits.data() + digits.size(), value);
      if (ec == std::errc{} && ptr == digits.data() + digits.size()) {
        return value;
      }
      return std::nullopt;  // unparseable length: treat as no body
    }
    line_start = line_end == std::string_view::npos
                     ? std::string_view::npos
                     : line_start + 1 + line_end;
  }
  return std::nullopt;
}

}  // namespace

bool NxdHoneypot::headers_done(std::string_view raw) {
  return header_block_end(raw) != std::string_view::npos;
}

bool NxdHoneypot::request_complete(std::string_view raw) {
  const auto body_start = header_block_end(raw);
  if (body_start == std::string_view::npos) return false;
  if (const auto length = content_length_of(raw.substr(0, body_start))) {
    return raw.size() - body_start >= *length;
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> NxdHoneypot::handle_packet(
    const net::SimPacket& packet, util::SimTime when) {
  // One-shot admission: a whole request in one packet is a connection that
  // opens and closes within this call, so only the rate/drain terms of the
  // gate can shed it.  Shed requests are refused before any capture work —
  // that is the point of shedding — and only counted.
  if (gate_ != nullptr && packet.protocol == net::Protocol::TCP) {
    const auto admission = gate_->open(packet.src.ip, when);
    if (admission.decision != AdmitDecision::Accept) {
      return refuse(admission.decision, when);
    }
    const obs::SpanId span = open_span(admission.id, packet.src, when);
    auto reply = process_packet(packet, when);
    gate_->close(admission.id, /*completed=*/true);
    if (spans_ != nullptr) {
      spans_->end(span, when, static_cast<std::int64_t>(packet.payload.size()),
                  "complete");
    }
    return reply;
  }
  return process_packet(packet, when);
}

std::optional<std::vector<std::uint8_t>> NxdHoneypot::process_packet(
    const net::SimPacket& packet, util::SimTime when) {
  // Admin metrics scrape: answered before capture so telemetry never enters
  // the traffic corpus.  The cheap prefix check keeps the hot path free of
  // HTTP parsing; a wrong or missing token falls through and is treated —
  // and recorded — exactly like any other visitor request.
  if ((metrics_ != nullptr || slo_provider_) && !admin_token_.empty() &&
      packet.protocol == net::Protocol::TCP) {
    const std::string_view raw(
        reinterpret_cast<const char*>(packet.payload.data()),
        packet.payload.size());
    if (raw.starts_with("GET /metrics") || raw.starts_with("GET /slo")) {
      if (const auto request = parse_http_request(raw);
          request && request->header("x-nxd-admin") == admin_token_) {
        if (metrics_ != nullptr && request->path() == "/metrics") {
          HttpResponse response;
          response.headers["content-type"] =
              "text/plain; version=0.0.4; charset=utf-8";
          response.body = obs::render_prometheus(*metrics_);
          ++responses_;
          return wire_bytes(response);
        }
        if (slo_provider_ && request->path() == "/slo") {
          HttpResponse response;
          response.headers["content-type"] = "text/plain; charset=utf-8";
          response.body = slo_provider_();
          ++responses_;
          return wire_bytes(response);
        }
      }
    }
  }
  TrafficRecord record;
  record.protocol = packet.protocol;
  record.source = packet.src;
  record.dst_port = packet.dst.port;
  record.when = when;
  record.platform = config_.platform;
  record.domain = config_.domain;
  record.payload.assign(packet.payload.begin(), packet.payload.end());
  recorder_.record(std::move(record));

  // Any TCP payload that parses as an HTTP request gets the landing page
  // (the TCP front end binds ephemeral ports in tests/examples); junk on
  // any port is capture-only.
  if (packet.protocol != net::Protocol::TCP) return std::nullopt;
  std::string_view raw(reinterpret_cast<const char*>(packet.payload.data()),
                       packet.payload.size());
  if (config_.max_request_bytes != 0 && raw.size() > config_.max_request_bytes) {
    // Over the per-connection cap: answer from the capped prefix only.  431
    // when the cap was exhausted before the header block terminated (an
    // unbounded header stream), 413 when a well-formed head drags an
    // oversized body.
    raw = raw.substr(0, config_.max_request_bytes);
    const bool headers_complete = raw.find("\r\n\r\n") != std::string_view::npos ||
                                  raw.find("\n\n") != std::string_view::npos;
    const auto response = headers_complete
                              ? HttpResponse::payload_too_large()
                              : HttpResponse::header_fields_too_large();
    ++responses_;
    return wire_bytes(response);
  }
  const auto request = parse_http_request(raw);
  if (!request) return std::nullopt;

  const auto path = request->path();
  HttpResponse response;
  if (const auto route = routes_.find(std::string(path)); route != routes_.end()) {
    response = route->second;
  } else if (path == "/" || path == "/index.html") {
    response =
        HttpResponse::ok_html(landing_page(config_.domain, config_.contact_email));
  } else {
    response = HttpResponse::not_found();
  }
  ++responses_;
  return wire_bytes(response);
}

// --------------------------------------------------- streaming connections

obs::SpanId NxdHoneypot::open_span(std::uint64_t id, const net::Endpoint& src,
                                   util::SimTime now) {
  if (spans_ == nullptr) return {};
  return spans_->trace_root(id, "conn", now, src.to_string());
}

std::vector<std::uint8_t> NxdHoneypot::refuse(AdmitDecision decision,
                                              util::SimTime now) {
  recorder_.note_shed_connection();
  ++responses_;
  const bool rate = decision == AdmitDecision::ShedRate;
  if (spans_ != nullptr) {
    const obs::SpanId s = spans_->trace_root(++shed_seq_, "conn_shed", now,
                                             shed_reason_name(decision));
    spans_->end(s, now, rate ? 429 : 503);
  }
  return wire_bytes(
      rate ? HttpResponse::too_many_requests(gate_->config().retry_after)
           : HttpResponse::service_unavailable(gate_->config().retry_after));
}

void NxdHoneypot::enable_overload(OverloadConfig config) {
  gate_ = std::make_unique<ConnectionGate>(config);
}

void NxdHoneypot::begin_drain(util::SimTime now) {
  if (!gate_) gate_ = std::make_unique<ConnectionGate>(OverloadConfig{});
  gate_->begin_drain(now);
}

NxdHoneypot::ConnOpen NxdHoneypot::conn_open(const net::Endpoint& src,
                                             util::SimTime now,
                                             std::uint16_t dst_port) {
  if (!gate_) gate_ = std::make_unique<ConnectionGate>(OverloadConfig{});
  const auto admission = gate_->open(src.ip, now);
  ConnOpen out;
  if (admission.decision != AdmitDecision::Accept) {
    out.response = refuse(admission.decision, now);
    return out;
  }
  out.id = admission.id;
  out.accepted = true;
  StreamConn conn;
  conn.src = src;
  conn.dst_port = dst_port;
  conn.span = open_span(admission.id, src, now);
  streams_.emplace(admission.id, std::move(conn));
  return out;
}

std::optional<std::vector<std::uint8_t>> NxdHoneypot::conn_data(
    std::uint64_t id, std::span<const std::uint8_t> bytes, util::SimTime now) {
  const auto it = streams_.find(id);
  if (it == streams_.end()) return std::nullopt;
  StreamConn& conn = it->second;

  // Buffer at most one byte past the request cap — enough for the shared
  // process_packet logic to see the overflow and answer 413/431, so a
  // hostile writer can never grow this buffer beyond the cap.
  const std::size_t cap = config_.max_request_bytes;
  std::size_t take = bytes.size();
  if (cap != 0 && conn.buffer.size() + take > cap + 1) {
    take = cap + 1 - std::min(conn.buffer.size(), cap + 1);
  }
  conn.buffer.insert(conn.buffer.end(), bytes.begin(), bytes.begin() + take);

  const std::string_view raw(reinterpret_cast<const char*>(conn.buffer.data()),
                             conn.buffer.size());
  gate_->activity(id, now, headers_done(raw));

  const bool over_cap = cap != 0 && conn.buffer.size() > cap;
  if (!over_cap && !request_complete(raw)) return std::nullopt;

  // Complete (or over the cap): run the shared record-and-answer logic and
  // retire the connection.
  net::SimPacket packet;
  packet.protocol = net::Protocol::TCP;
  packet.src = conn.src;
  packet.dst = net::Endpoint{net::IPv4{}, conn.dst_port};
  packet.payload = std::move(conn.buffer);
  const obs::SpanId span = conn.span;
  streams_.erase(it);
  const bool was_draining = gate_->draining();
  auto reply = process_packet(packet, now);
  gate_->close(id, /*completed=*/true);
  if (was_draining) recorder_.note_drained_connection();
  if (spans_ != nullptr) {
    spans_->end(span, now, static_cast<std::int64_t>(packet.payload.size()),
                "complete");
  }
  return reply;
}

void NxdHoneypot::record_partial(const StreamConn& conn, util::SimTime when) {
  if (conn.buffer.empty()) return;
  TrafficRecord record;
  record.protocol = net::Protocol::TCP;
  record.source = conn.src;
  record.dst_port = conn.dst_port;
  record.when = when;
  record.platform = config_.platform;
  record.domain = config_.domain;
  record.payload.assign(conn.buffer.begin(), conn.buffer.end());
  recorder_.record(std::move(record));
}

std::vector<NxdHoneypot::ReapedConn> NxdHoneypot::reap_expired(
    util::SimTime now) {
  std::vector<ReapedConn> out;
  if (!gate_) return out;
  for (const auto& expired : gate_->reap(now)) {
    const auto it = streams_.find(expired.id);
    if (it == streams_.end()) continue;
    recorder_.note_expired_connection();
    record_partial(it->second, now);  // keep the half-sent bytes as evidence
    if (spans_ != nullptr) {
      spans_->end(it->second.span, now,
                  static_cast<std::int64_t>(it->second.buffer.size()),
                  expire_reason_name(expired.reason));
    }
    streams_.erase(it);
    ReapedConn reaped;
    reaped.id = expired.id;
    reaped.reason = expired.reason;
    if (expired.reason != ExpireReason::DrainForced) {
      ++responses_;
      reaped.response = wire_bytes(HttpResponse::request_timeout());
    }
    out.push_back(std::move(reaped));
  }
  return out;
}

void NxdHoneypot::conn_abort(std::uint64_t id, util::SimTime now) {
  const auto it = streams_.find(id);
  if (it == streams_.end()) return;
  record_partial(it->second, now);
  if (spans_ != nullptr) {
    spans_->end(it->second.span, now,
                static_cast<std::int64_t>(it->second.buffer.size()), "abort");
  }
  streams_.erase(it);
  gate_->close(id, /*completed=*/false);
}

void NxdHoneypot::attach_port(net::SimNetwork& network, net::IPv4 host_ip,
                              std::uint16_t port, net::Protocol proto,
                              const util::SimClock& clock) {
  network.attach(net::Endpoint{host_ip, port}, proto,
                 [this, &clock](const net::SimPacket& packet) {
                   return handle_packet(packet, clock.now());
                 });
}

void NxdHoneypot::attach(net::SimNetwork& network, net::IPv4 host_ip,
                         const util::SimClock& clock) {
  // "All well-known and standardized ports": we wire the ones the paper's
  // Fig 10 actually reports traffic on.
  for (const std::uint16_t port :
       {std::uint16_t{80}, std::uint16_t{443}, std::uint16_t{22},
        std::uint16_t{21}, std::uint16_t{25}, std::uint16_t{8080},
        std::uint16_t{8443}, std::uint16_t{3389}}) {
    attach_port(network, host_ip, port, net::Protocol::TCP, clock);
  }
  for (const std::uint16_t port : {std::uint16_t{53}, std::uint16_t{123}}) {
    attach_port(network, host_ip, port, net::Protocol::UDP, clock);
  }
}

std::unique_ptr<TcpHoneypotFrontend> TcpHoneypotFrontend::create(
    const net::Endpoint& local, NxdHoneypot& honeypot,
    const util::SimClock& clock) {
  auto listener = net::TcpListener::listen(local);
  if (!listener) return nullptr;
  return std::unique_ptr<TcpHoneypotFrontend>(
      new TcpHoneypotFrontend(std::move(*listener), honeypot, clock));
}

void TcpHoneypotFrontend::attach(net::EventLoop& loop) {
  loop.add_readable(listener_.fd(), [this] { on_acceptable(); });
}

void TcpHoneypotFrontend::on_acceptable() {
  while (auto stream = listener_.accept()) {
    // Admission first: a guarded honeypot may shed the connection with
    // 503/429 before any read work happens.
    std::optional<std::uint64_t> conn_id;
    if (honeypot_.gate() != nullptr) {
      auto opened =
          honeypot_.conn_open(stream->peer(), clock_.now(),
                              listener_.local().port);
      if (!opened.accepted) {
        if (opened.response) {
          stream->write(std::span<const std::uint8_t>(*opened.response));
        }
        continue;
      }
      conn_id = opened.id;
    }

    // One-shot request/response: read what is available (brief retry for
    // slow writers), answer, close.  The read loop is bounded at the
    // honeypot's request cap — one byte past it is enough for the shared
    // answer logic to see the overflow and reply 413/431 — and at 50
    // attempts, the real-socket slowloris cap.
    const std::size_t cap = honeypot_.config().max_request_bytes;
    std::vector<std::uint8_t> buffer;
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (cap != 0 && buffer.size() > cap) break;
      const std::size_t room =
          cap != 0 ? std::min<std::size_t>(cap + 1 - buffer.size(), 65536)
                   : 65536;
      const auto n = stream->read(buffer, room);
      if (n < 0 || stream->eof()) break;
      if (!buffer.empty() && n == 0) break;  // drained what was sent
      if (buffer.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    if (buffer.empty()) {
      if (conn_id) honeypot_.conn_abort(*conn_id, clock_.now());
      continue;
    }

    if (conn_id) {
      // Streaming path: the gate tracks the connection; a request that
      // never completes is aborted (its bytes still captured).
      const auto reply = honeypot_.conn_data(
          *conn_id, std::span<const std::uint8_t>(buffer), clock_.now());
      if (reply) {
        stream->write(std::span<const std::uint8_t>(*reply));
      } else if (honeypot_.open_connections() > 0) {
        honeypot_.conn_abort(*conn_id, clock_.now());
      }
      continue;
    }

    net::SimPacket packet;
    packet.protocol = net::Protocol::TCP;
    packet.src = stream->peer();
    packet.dst = listener_.local();
    packet.payload = buffer;
    if (const auto reply = honeypot_.handle_packet(packet, clock_.now())) {
      stream->write(std::span<const std::uint8_t>(*reply));
    }
  }
}

}  // namespace nxd::honeypot
