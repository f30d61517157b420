// NXD-Honeypot service: traffic recorder + barebone web server, attachable
// to either the deterministic SimNetwork (experiments, tests) or a real TCP
// listener on loopback (runnable example).
//
// Per the paper's ethics appendix, the web server only serves a static
// landing page describing the study and a contact address; it never
// interacts further with visitors.
//
// Two serving paths exist.  handle_packet() is the one-shot path (a whole
// request arrives as one SimNetwork packet).  The conn_* streaming path
// models real connection lifecycle — bytes trickle in over simulated time —
// and is what the overload guard (honeypot/overload.hpp) protects: shed at
// admission (503/429), reap at a slowloris deadline (408), finish in-flight
// work during graceful drain.  Both paths consult the same ConnectionGate
// once enable_overload() has been called; without it behaviour is exactly
// the historical unguarded server.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "honeypot/overload.hpp"
#include "honeypot/recorder.hpp"
#include "net/sim_network.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "net/socket.hpp"
#include "net/event_loop.hpp"

namespace nxd::honeypot {

/// The landing page served for every HTML request (Appendix A).
std::string landing_page(const std::string& domain,
                         const std::string& contact_email);

class NxdHoneypot {
 public:
  struct Config {
    std::string domain;          // hosted domain this instance serves
    std::string contact_email = "nxd-study@example.edu";
    HostingPlatform platform = HostingPlatform::Aws;
    /// Per-connection request cap.  Anything larger is truncated to this
    /// prefix for capture (the recorder counts it in oversize_payloads())
    /// and answered with 413 — or 431 when even the header block did not
    /// fit — instead of being buffered whole.  0 disables the bound.
    std::size_t max_request_bytes = 64 * 1024;
  };

  NxdHoneypot(Config config, TrafficRecorder& recorder)
      : config_(std::move(config)), recorder_(recorder) {
    recorder_.set_max_payload_bytes(config_.max_request_bytes);
  }

  /// Interactive-honeypot extension (paper §7 future work: "implementing
  /// the capability to interact with domain visitors"): serve a custom
  /// response on an exact path.  Routes are consulted before the default
  /// landing-page/404 logic, letting an operator feed automated visitors
  /// the artifact they poll for (e.g. an empty task list on /getTask.php)
  /// and observe the follow-up behaviour.
  void set_route(std::string path, HttpResponse response);
  std::size_t route_count() const noexcept { return routes_.size(); }

  /// Serve live Prometheus text on `GET /metrics` for requests carrying an
  /// `x-nxd-admin: <token>` header that matches `admin_token`.  Admin scrapes
  /// are answered before capture and never recorded — operator telemetry must
  /// not pollute the study's traffic corpus.  Requests without the matching
  /// token fall through to the ordinary record-and-404 path, so probing
  /// visitors cannot distinguish the sensor from an unadorned honeypot.
  /// nullptr disables (the default — wire output stays byte-identical).
  /// The registry must outlive the honeypot.
  void expose_metrics(const obs::MetricsRegistry* registry,
                      std::string admin_token);

  /// Serve an operator SLO / anomaly report on `GET /slo`, gated by the same
  /// `x-nxd-admin` token as expose_metrics (which must also be configured —
  /// the token lives there).  The provider runs per scrape, so the report is
  /// always current; like /metrics, admin scrapes are never recorded.
  /// An empty function disables.
  void expose_slo(std::function<std::string()> provider);

  /// Trace gated connections: one root span per admitted connection,
  /// streaming or one-shot (name "conn", keyed by connection id, detail =
  /// source endpoint), ended with detail "complete" / the expiry reason /
  /// "abort"; and one zero-duration "conn_shed" root per refused connection
  /// (value = HTTP status, detail = shed reason).  SimTime timestamps, so
  /// seeded runs export byte-stable spans.  nullptr stops.
  void trace_spans(obs::SpanTracer* spans) noexcept { spans_ = spans; }

  /// Handle one captured packet: record it, and if it parses as an HTTP
  /// request produce the landing-page (or 404) response bytes.  With an
  /// overload guard enabled, TCP packets pass admission first and may be
  /// answered 503/429 instead (shed requests are counted, not recorded).
  std::optional<std::vector<std::uint8_t>> handle_packet(
      const net::SimPacket& packet, util::SimTime when);

  // ----------------------------------------------------- overload guard

  /// Install the overload-resilience layer.  Idempotent reconfiguration:
  /// replaces any previous gate (and its stats).
  void enable_overload(OverloadConfig config);
  ConnectionGate* gate() noexcept { return gate_.get(); }
  const ConnectionGate* gate() const noexcept { return gate_.get(); }

  /// Stop admitting new connections (they shed 503) while in-flight
  /// streaming requests finish; reap_expired() force-closes stragglers once
  /// the configured drain deadline elapses.  Enables a default guard when
  /// none is configured.
  void begin_drain(util::SimTime now);
  bool draining() const noexcept { return gate_ && gate_->draining(); }
  /// True once draining and nothing is left in flight.
  bool drain_complete() const noexcept {
    return gate_ != nullptr && gate_->drain_complete();
  }

  // ------------------------------------------------ streaming connections

  struct ConnOpen {
    std::uint64_t id = 0;        // valid when accepted
    bool accepted = false;
    /// 503/429 wire bytes when the connection was shed at admission.
    std::optional<std::vector<std::uint8_t>> response;
  };

  /// Open a streaming connection from `src` (destination port `dst_port`).
  /// Enables a default overload guard when none is configured.
  ConnOpen conn_open(const net::Endpoint& src, util::SimTime now,
                     std::uint16_t dst_port = 80);

  /// Feed received bytes.  Returns the response wire bytes once the request
  /// is complete (landing page / 404 / 413 / 431), nullopt while the
  /// request is still in flight or when a complete payload was capture-only
  /// junk.  A completed connection is closed and its id retired.
  std::optional<std::vector<std::uint8_t>> conn_data(
      std::uint64_t id, std::span<const std::uint8_t> bytes,
      util::SimTime now);

  struct ReapedConn {
    std::uint64_t id = 0;
    ExpireReason reason = ExpireReason::Idle;
    /// 408 wire bytes for deadline reaps; empty for drain-forced closes
    /// (those connections are simply closed).
    std::vector<std::uint8_t> response;
  };

  /// Kill every streaming connection whose deadline has passed (slowloris
  /// defense) in deterministic order.  Partial request bytes are recorded
  /// capture-only before the connection is dropped.
  std::vector<ReapedConn> reap_expired(util::SimTime now);

  /// Peer went away before completing a request; partial bytes are
  /// recorded capture-only.
  void conn_abort(std::uint64_t id, util::SimTime now);

  std::size_t open_connections() const noexcept { return streams_.size(); }

  /// Attach to a simulated network on the standard ports (80/443 TCP plus a
  /// UDP capture on 53 — "accepts TCP and UDP packets from all well-known
  /// ports"; extra ports can be added with attach_port).
  void attach(net::SimNetwork& network, net::IPv4 host_ip,
              const util::SimClock& clock);
  void attach_port(net::SimNetwork& network, net::IPv4 host_ip,
                   std::uint16_t port, net::Protocol proto,
                   const util::SimClock& clock);

  const Config& config() const noexcept { return config_; }
  std::uint64_t http_responses_sent() const noexcept { return responses_; }

 private:
  struct StreamConn {
    net::Endpoint src;
    std::uint16_t dst_port = 80;
    std::vector<std::uint8_t> buffer;
    obs::SpanId span;  // null when the tracer skipped this connection
  };

  /// The original record-and-answer logic, shared by the one-shot and
  /// streaming paths (admission already settled by the caller).
  std::optional<std::vector<std::uint8_t>> process_packet(
      const net::SimPacket& packet, util::SimTime when);

  void record_partial(const StreamConn& conn, util::SimTime when);

  /// Root "conn" span for an admitted connection (null when untraced).
  obs::SpanId open_span(std::uint64_t id, const net::Endpoint& src,
                        util::SimTime now);
  /// Answer a connection the gate shed (429 rate, 503 otherwise): count it
  /// and record its "conn_shed" span.
  std::vector<std::uint8_t> refuse(AdmitDecision decision, util::SimTime now);

  static bool headers_done(std::string_view raw);
  /// Whether `raw` holds a complete request: terminated header block plus,
  /// when a Content-Length header is present, that many body bytes.
  static bool request_complete(std::string_view raw);

  Config config_;
  TrafficRecorder& recorder_;
  const obs::MetricsRegistry* metrics_ = nullptr;
  std::function<std::string()> slo_provider_;
  obs::SpanTracer* spans_ = nullptr;
  std::string admin_token_;
  std::map<std::string, HttpResponse> routes_;
  std::uint64_t responses_ = 0;
  std::uint64_t shed_seq_ = 0;  // span sampling key for conn_shed roots
  std::unique_ptr<ConnectionGate> gate_;
  std::unordered_map<std::uint64_t, StreamConn> streams_;
};

/// Real-socket front end: accepts TCP connections on a loopback port,
/// records each request into the recorder, and serves the landing page.
/// Single-threaded, event-loop driven; used by examples/honeypot_demo.
/// Connections run through the honeypot's streaming API, so the overload
/// guard (when enabled) sheds and meters real sockets too; the bounded
/// read loop is the real-socket slowloris cap.
class TcpHoneypotFrontend {
 public:
  static std::unique_ptr<TcpHoneypotFrontend> create(
      const net::Endpoint& local, NxdHoneypot& honeypot,
      const util::SimClock& clock);

  void attach(net::EventLoop& loop);
  net::Endpoint local() const noexcept { return listener_.local(); }

 private:
  TcpHoneypotFrontend(net::TcpListener listener, NxdHoneypot& honeypot,
                      const util::SimClock& clock)
      : listener_(std::move(listener)), honeypot_(honeypot), clock_(clock) {}

  void on_acceptable();

  net::TcpListener listener_;
  NxdHoneypot& honeypot_;
  const util::SimClock& clock_;
};

}  // namespace nxd::honeypot
