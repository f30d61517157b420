// Per-nameserver health model: EWMA SRTT/variance, success rate, circuit
// breakers, and hedge thresholds driving upstream server selection.
//
// BIND and unbound both keep a smoothed RTT per authoritative address and
// query the fastest; ZDNS (PAPERS.md) credits the same adaptive steering for
// sustaining internet-scale resolution.  This model is that idea made
// deterministic: every estimate advances only on explicit on_success /
// on_failure reports stamped with SimTime, so chaos suites can enumerate
// selection decisions exactly.
//
// Four outputs per server:
//   - a selection score (SRTT inflated by the failure rate) that orders the
//     candidate set best-first,
//   - an adaptive per-try timeout, RFC 6298-shaped (SRTT + k*RTTVAR) and
//     clamped into [min_try_timeout, RetryPolicy.try_timeout],
//   - a hedge delay: the tracked p95 latency, after which a second healthy
//     server is raced (see RecursiveResolver),
//   - a circuit-breaker verdict (util::CircuitBreaker) so a dead server is
//     skipped outright and probed once per cooldown.
//
// Failure can degrade a resolution to SERVFAIL — never to NXDomain; this
// model only reorders and short-circuits *attempts*, the soundness property
// that non-existence requires an answering server's proof is untouched.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/endpoint.hpp"
#include "obs/metrics.hpp"
#include "util/circuit_breaker.hpp"
#include "util/civil_time.hpp"

namespace nxd::resolver {

struct HealthConfig {
  /// EWMA gains, RFC 6298-shaped: srtt += alpha*(sample - srtt) on success,
  /// rttvar += beta*(|sample - srtt| - rttvar).
  double srtt_alpha = 0.125;
  double rttvar_beta = 0.25;
  /// Adaptive per-try timeout = srtt + var_multiplier*rttvar (rounded up to
  /// whole simulated seconds), clamped into [min_try_timeout, cap] where the
  /// cap is the RetryPolicy's fixed try_timeout.
  double var_multiplier = 4.0;
  util::SimTime min_try_timeout = 1;
  /// EWMA weight of the newest outcome in the success-rate estimate.
  double success_alpha = 0.2;
  /// Selection score = (srtt_us + 1) * (1 + failure_penalty*(1 - success)).
  double failure_penalty = 8.0;
  /// SRTT prior for never-tried servers, in microseconds.  Half a simulated
  /// second: unknown servers rank behind known-fast ones but ahead of
  /// known-slow or failing ones.
  double initial_srtt_us = 500'000.0;
  /// Per-server breaker configuration.
  util::CircuitBreakerConfig breaker{.failure_threshold = 4,
                                     .open_duration = 8,
                                     .open_backoff = 2.0,
                                     .max_open_duration = 120,
                                     .half_open_successes = 1};
  /// Hedged queries: once a try has been in flight for the server's tracked
  /// p95 latency (never less than min_hedge_delay), race the next-best
  /// breaker-closed server.  Requires hedge_min_samples observations first.
  bool hedge = true;
  double hedge_quantile = 0.95;
  int hedge_min_samples = 8;
  util::SimTime min_hedge_delay = 1;
};

/// Read-only per-server view for nxdtool/demos and tests.
struct UpstreamHealth {
  net::Endpoint server;
  double srtt_us = 0;
  double rttvar_us = 0;
  double success_rate = 1.0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  util::BreakerState breaker = util::BreakerState::Closed;
  util::CircuitBreakerStats breaker_stats;
  /// Tracked p95 latency in simulated seconds (0 until enough samples).
  util::SimTime p95 = 0;
};

/// Aggregate counters across every tracked server — reconciled exactly
/// against the bound obs registry by the fuzz suite.
struct HealthStats {
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::uint64_t breaker_opened = 0;
  std::uint64_t breaker_half_opened = 0;
  std::uint64_t breaker_reclosed = 0;
  std::uint64_t breaker_rejections = 0;
  std::uint64_t breaker_probes = 0;

  friend bool operator==(const HealthStats&, const HealthStats&) = default;
};

/// Every HealthStats counter and the registry series mirroring it.
inline constexpr obs::CounterSpec<HealthStats> kHealthCounters[] = {
    {&HealthStats::successes, "nxd_resolver_health_successes_total",
     "Tries reported healthy to the model"},
    {&HealthStats::failures, "nxd_resolver_health_failures_total",
     "Tries reported failed to the model"},
    {&HealthStats::breaker_opened, "nxd_resolver_breaker_transitions_total",
     "Circuit-breaker state transitions, by target state", "to", "open"},
    {&HealthStats::breaker_half_opened,
     "nxd_resolver_breaker_transitions_total",
     "Circuit-breaker state transitions, by target state", "to", "half_open"},
    {&HealthStats::breaker_reclosed, "nxd_resolver_breaker_transitions_total",
     "Circuit-breaker state transitions, by target state", "to", "closed"},
    {&HealthStats::breaker_rejections, "nxd_resolver_breaker_rejections_total",
     "Sends refused by an open breaker"},
    {&HealthStats::breaker_probes, "nxd_resolver_breaker_probes_total",
     "Half-open probe slots granted"},
};

class HealthModel {
 public:
  explicit HealthModel(HealthConfig config = {}) : config_(config) {}

  /// Report one completed try: `rtt` in simulated seconds.
  void on_success(const net::Endpoint& server, util::SimTime rtt,
                  util::SimTime now);
  void on_failure(const net::Endpoint& server, util::SimTime now);

  /// Breaker admission for `server`.  May consume the half-open probe slot;
  /// refusals are counted.
  bool allow(const net::Endpoint& server, util::SimTime now);

  /// Breaker is plain Closed (no probe semantics) — hedge-target predicate.
  bool closed(const net::Endpoint& server) const;

  /// Adaptive per-try timeout, clamped into [min_try_timeout, cap].
  util::SimTime adaptive_timeout(const net::Endpoint& server,
                                 util::SimTime cap) const;

  /// Seconds to wait before hedging a try at `server`; 0 = do not hedge
  /// (hedging off or not enough samples yet).
  util::SimTime hedge_delay(const net::Endpoint& server) const;

  /// Order candidates for a query at `now`: probe-ready servers first (one
  /// live query doubles as the recovery probe), then admissible servers by
  /// ascending score, then open-breaker servers (last resort — their allow()
  /// will typically refuse).  Deterministic: ties break on listed order.
  std::vector<net::Endpoint> rank(const std::vector<net::Endpoint>& candidates,
                                  util::SimTime now) const;

  /// Selection score (lower = better); the documented formula, exposed for
  /// tests.
  double score(const net::Endpoint& server) const;

  util::BreakerState breaker_state(const net::Endpoint& server) const;

  /// Per-server views sorted by endpoint text — deterministic dump order.
  std::vector<UpstreamHealth> snapshot() const;

  HealthStats stats() const noexcept { return counters_.stats(); }

  /// Mirror the model's counters and per-server SRTT gauges into a shared
  /// registry; current values carry over.  Servers first seen later get
  /// their gauge on first contact.
  void bind_metrics(obs::MetricsRegistry& registry);

  const HealthConfig& config() const noexcept { return config_; }

 private:
  /// Latency samples land in whole simulated seconds; 64 unit buckets cover
  /// every delay the fault stage can inject with exact p95 readout.
  static constexpr int kLatencyBuckets = 64;

  struct Server {
    bool seen = false;  ///< at least one RTT sample observed
    double srtt_us = 0;
    double rttvar_us = 0;
    double success_rate = 1.0;
    std::uint64_t successes = 0;
    std::uint64_t failures = 0;
    std::array<std::uint32_t, kLatencyBuckets> rtt_seconds{};
    std::uint64_t rtt_samples = 0;
    util::CircuitBreaker breaker;
    obs::Gauge srtt_gauge;  ///< nxd_resolver_upstream_srtt_us{server=...}
  };

  Server& entry(const net::Endpoint& server);
  const Server* find(const net::Endpoint& server) const;
  double score_of(const Server& s) const;
  void publish(const net::Endpoint& server, Server& s);

  HealthConfig config_;
  std::unordered_map<net::Endpoint, Server, net::EndpointHash> servers_;

  /// Aggregate transition counters (sum over servers).
  obs::StatsCounters<HealthStats, kHealthCounters> counters_;
  obs::MetricsRegistry* registry_ = nullptr;  // SRTT gauges land here
};

}  // namespace nxd::resolver
