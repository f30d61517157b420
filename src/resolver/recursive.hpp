// Recursive resolver: cache in front of the iterative hierarchy walk.
//
// This is the "Local DNS" box in the paper's Fig. 1 and the vantage point
// from which passive-DNS sensors observe traffic: every response it returns
// (cache hit or not) can be exported to a pdns::SieChannel.
//
// Two upstream paths exist.  The default calls the hierarchy directly
// (perfect wire, zero packets).  `use_network` routes every upstream query
// through a SimNetwork as real DNS packets — subject to the network's
// fault-injection plan — governed by an explicit RetryPolicy: per-try
// timeouts, exponential backoff with jitter, and graceful degradation to
// SERVFAIL (never a spurious NXDomain) when every upstream is exhausted.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/sim_network.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "resolver/cache.hpp"
#include "resolver/health.hpp"
#include "resolver/hierarchy.hpp"
#include "resolver/retry.hpp"
#include "util/civil_time.hpp"

namespace nxd::resolver {

struct ResolveOutcome {
  dns::Message response;
  bool from_cache = false;
  bool negative_cache_hit = false;
  /// Simulated seconds the upstream resolution took (timeouts + backoff +
  /// injected transit delay); 0 for cache hits and the direct path.
  util::SimTime elapsed = 0;
};

/// Toggles for the adversarial-workload defenses (see DESIGN.md §4g and
/// src/attack).  All default to the *undefended* posture so the baseline
/// resolver keeps its historical behavior; the bench flips them one at a
/// time to measure each defense's contribution.
struct ResolverDefenses {
  /// Consume NSEC range proofs from NXDomain responses and synthesize
  /// NXDomain for any later name in a proven-empty span (RFC 8198).
  bool aggressive_negative = false;
  /// Max NS targets fetched per received referral (0 = fetch all, the
  /// NXNSAttack-vulnerable posture; BIND's post-CVE-2020-8616 limit is 5).
  int max_fetch_per_delegation = 0;
  /// Max delegation fetches charged to one registered domain per
  /// `budget_window` simulated seconds (0 = unlimited).
  int zone_fetch_budget = 0;
  util::SimTime budget_window = 60;
  /// Send minimized qnames to root/TLD tiers (RFC 7816 style).
  bool qname_minimization = false;
  /// Ceiling on resolver-side CNAME chain chasing before SERVFAIL.  The
  /// default is a deliberately generous undefended posture; the defended
  /// configuration drops it to single digits.
  int max_cname_chase = 64;
};

struct RecursiveStats {
  std::uint64_t client_queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t upstream_resolutions = 0;
  std::uint64_t nxdomain_responses = 0;
  // Network-path robustness counters: how much of the observed stream is
  // failure noise rather than genuine NXDomain volume.
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t servfail_responses = 0;
  // Adversarial-workload counters (attack suite).  upstream_sends counts
  // every packet the resolver puts on the wire — the denominator of the
  // amplification factor; delegation_* and cname_* expose the NXNS and
  // CNAME-bomb hot paths; minimized_queries counts RFC 7816-style
  // minimized sub-queries sent upstream.
  std::uint64_t upstream_sends = 0;
  std::uint64_t delegation_fetches = 0;
  std::uint64_t delegation_capped = 0;
  std::uint64_t cname_chases = 0;
  std::uint64_t cname_capped = 0;
  std::uint64_t minimized_queries = 0;
  // Adaptive-health counters (HealthModel path).  hedged_queries counts
  // speculative duplicate sends; wins served the client, losses were wasted
  // (the primary answered first); hedges where *both* sides died count
  // neither.  breaker_skips counts servers bypassed by an open breaker.
  std::uint64_t hedged_queries = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedge_losses = 0;
  std::uint64_t breaker_skips = 0;

  /// Exact fold for per-worker resolver fleets: every field is a plain sum,
  /// so stats from N resolvers combine to what one resolver serving the
  /// union stream would have counted.
  RecursiveStats& operator+=(const RecursiveStats& other) noexcept;

  friend RecursiveStats operator+(RecursiveStats a,
                                  const RecursiveStats& b) noexcept {
    a += b;
    return a;
  }

  friend bool operator==(const RecursiveStats&, const RecursiveStats&) = default;
};

/// Every RecursiveStats counter and the registry series mirroring it.
inline constexpr obs::CounterSpec<RecursiveStats> kRecursiveCounters[] = {
    {&RecursiveStats::client_queries, "nxd_resolver_client_queries_total",
     "Queries received from clients"},
    {&RecursiveStats::cache_hits, "nxd_resolver_cache_hits_total",
     "Client queries answered from the resolver cache"},
    {&RecursiveStats::upstream_resolutions,
     "nxd_resolver_upstream_resolutions_total",
     "Queries that walked the hierarchy"},
    {&RecursiveStats::nxdomain_responses,
     "nxd_resolver_nxdomain_responses_total", "NXDomain answers returned"},
    {&RecursiveStats::retries, "nxd_resolver_retries_total",
     "Upstream attempts after the first"},
    {&RecursiveStats::timeouts, "nxd_resolver_timeouts_total",
     "Upstream attempts that timed out"},
    {&RecursiveStats::servfail_responses,
     "nxd_resolver_servfail_responses_total", "SERVFAIL answers returned"},
    {&RecursiveStats::upstream_sends, "nxd_resolver_upstream_sends_total",
     "Packets sent upstream (network path), including retries"},
    {&RecursiveStats::delegation_fetches,
     "nxd_resolver_delegation_fetches_total",
     "Glueless NS target fetches triggered by referrals"},
    {&RecursiveStats::delegation_capped, "nxd_resolver_delegation_capped_total",
     "NS target fetches suppressed by the per-referral cap or zone budget"},
    {&RecursiveStats::cname_chases, "nxd_resolver_cname_chases_total",
     "Alias-chain hops chased by the resolver"},
    {&RecursiveStats::cname_capped, "nxd_resolver_cname_capped_total",
     "Alias chains cut off at the chase ceiling"},
    {&RecursiveStats::minimized_queries, "nxd_resolver_minimized_queries_total",
     "Minimized (RFC 7816-style) sub-queries sent to root/TLD tiers"},
    {&RecursiveStats::hedged_queries, "nxd_resolver_hedged_queries_total",
     "Speculative duplicate sends raced against a slow primary try"},
    {&RecursiveStats::hedge_wins, "nxd_resolver_hedge_wins_total",
     "Hedged sends whose reply served the client"},
    {&RecursiveStats::hedge_losses, "nxd_resolver_hedge_losses_total",
     "Hedged sends wasted: the primary answered first"},
    {&RecursiveStats::breaker_skips, "nxd_resolver_breaker_skips_total",
     "Candidate servers bypassed because their breaker refused the send"},
};

inline RecursiveStats& RecursiveStats::operator+=(
    const RecursiveStats& other) noexcept {
  for (const auto& c : kRecursiveCounters) this->*c.field += other.*c.field;
  return *this;
}

class RecursiveResolver {
 public:
  /// Observer invoked for every response handed to a client; this is where
  /// a passive-DNS sensor taps the resolver.
  using ResponseObserver =
      std::function<void(const dns::Message& query, const dns::Message& response,
                         bool from_cache, util::SimTime when)>;

  RecursiveResolver(const DnsHierarchy& hierarchy, ResolverCache::Config cache_config = {});

  void set_observer(ResponseObserver observer) { observer_ = std::move(observer); }

  /// Route upstream resolution through `network`: the root/TLD/auth tiers
  /// are queried at `endpoints` as real packets (the hierarchy must already
  /// be attach()ed there), each governed by `policy`.  `jitter_seed` feeds
  /// the backoff-jitter Rng, keeping chaos runs reproducible.
  void use_network(net::SimNetwork& network, HierarchyEndpoints endpoints = {},
                   RetryPolicy policy = {}, std::uint64_t jitter_seed = 1);

  const RetryPolicy& retry_policy() const noexcept { return net_.policy; }

  /// Turn on adaptive upstream health: per-server SRTT/success tracking
  /// orders each tier's candidate set, per-try timeouts shrink toward the
  /// tracked SRTT (still capped by the RetryPolicy), circuit breakers skip
  /// dead servers, and slow tries are hedged to a healthy sibling.  Without
  /// this call the resolver keeps its historical fixed-order behavior
  /// bit-for-bit.  Replaces any previous model (estimates reset).
  void enable_health(HealthConfig config = {});
  void disable_health() noexcept { health_.reset(); }
  HealthModel* health() noexcept { return health_.get(); }
  const HealthModel* health() const noexcept { return health_.get(); }

  /// Install (or reset) the adversarial-workload defense posture.  Takes
  /// effect on the next query; flipping a defense never invalidates cached
  /// data.
  void set_defenses(ResolverDefenses defenses) noexcept {
    defenses_ = defenses;
  }
  const ResolverDefenses& defenses() const noexcept { return defenses_; }

  ResolveOutcome resolve(const dns::Message& query, util::SimTime now);

  /// Convenience: resolve (name, A) and report only the rcode.
  dns::RCode resolve_rcode(const dns::DomainName& name, util::SimTime now);

  /// Mirror the resolver's counters into a shared registry (current values
  /// carry over).  stats() stays this resolver's own count either way.
  void bind_metrics(obs::MetricsRegistry& registry);

  /// Start emitting causal spans: one sampled trace per client query (keyed
  /// by the query sequence number, so a fixed tracer seed samples the same
  /// queries every run) with child spans for cache hits, tier walks,
  /// per-upstream tries, hedge races, delegation fetches and CNAME hops.
  /// Every retry and timeout the counters see is also a zero-duration
  /// "retry" / "timeout" child of its try (a hedge's timeout, of the hedge).
  /// Sampled traces also tag the upstream latency histogram with an
  /// exemplar.  A second resolver on the same tracer gets its own trace
  /// ids.  Pass nullptr to stop.
  void trace_spans(obs::SpanTracer* spans) {
    if (spans != nullptr && spans != spans_) {
      span_instance_ = spans->attach("resolver");
    }
    spans_ = spans;
  }
  obs::SpanTracer* span_tracer() const noexcept { return spans_; }

  const RecursiveStats& stats() const noexcept { return counters_.stats(); }
  const ResolverCache& cache() const noexcept { return cache_; }
  void flush_cache() { cache_.clear(); }

 private:
  struct NetworkPath {
    net::SimNetwork* network = nullptr;
    HierarchyEndpoints endpoints;
    RetryPolicy policy;
    util::Rng rng{1};
  };

  /// Walk root -> TLD -> auth over the network with retries; returns the
  /// final response, or SERVFAIL when a tier never answered.  Advances
  /// `now` by the simulated time the walk consumed.
  dns::Message resolve_via_network(const dns::Message& query, util::SimTime& now);

  /// Start try `attempt` against `server`: backoff and count a retry when
  /// attempt > 0, then open the sampled try span with its "retry" child.
  obs::SpanId begin_try(const net::Endpoint& server, int attempt,
                        util::SimTime& now);
  /// Count one timeout and mark it as a "timeout" child of `parent`.
  void note_timeout(obs::SpanId parent, util::SimTime at, int attempt);

  /// Query one server endpoint under the retry policy.  Advances `now` per
  /// timeout/backoff; nullopt when every attempt was exhausted.
  std::optional<dns::Message> query_endpoint(const net::Endpoint& server,
                                             const dns::Message& query,
                                             util::SimTime& now);

  /// Query one tier's candidate servers.  Without a health model this is the
  /// historical path: fixed order, full retry budget per server.  With one,
  /// candidates are ranked by health, open breakers are skipped, and each
  /// admitted server runs the adaptive attempt loop.
  std::optional<dns::Message> query_tier(
      const std::vector<net::Endpoint>& servers, const dns::Message& query,
      util::SimTime& now);

  /// Health-model attempt loop for one admitted server: adaptive per-try
  /// timeouts, hedged sends to the next-best closed-breaker sibling in
  /// `ranked`, and early exit when the breaker trips mid-retries.
  std::optional<dns::Message> query_endpoint_adaptive(
      const net::Endpoint& server, const std::vector<net::Endpoint>& ranked,
      const dns::Message& query, util::SimTime& now);

  /// One upstream walk (network or direct), qname-minimized when the
  /// defense is on.  Does not touch the cache or client-facing stats.
  dns::Message upstream_walk(const dns::Message& query, util::SimTime& now);

  /// Cache-through resolution used for the resolver's *own* follow-up
  /// queries (delegation NS fetches, CNAME chase hops).  Checks the cache,
  /// walks upstream on a miss, and stores the outcome — but never counts
  /// client_queries, never fires the observer, and never chases referrals
  /// or aliases itself (the caller owns that loop).
  dns::Message internal_resolve(const dns::DomainName& name, dns::RRType type,
                                util::SimTime& now);

  /// Process a referral that reached the client path: fetch the glueless NS
  /// targets subject to the per-referral cap and per-zone budget.  Returns
  /// the response handed to the client (SERVFAIL — the child zone's servers
  /// are unreachable in this simulation, which is exactly the NXNS setup).
  dns::Message handle_referral(const dns::Message& query,
                               const dns::Message& referral,
                               util::SimTime& now);

  /// Chase a dangling CNAME tail in `response` (alias whose target is not
  /// answered in the same message), bounded by the chase cap.  Mutates the
  /// response in place: appends chased records, and rewrites the rcode when
  /// the chain ends in NXDomain or is cut off.
  void chase_cname_tail(const dns::Message& query, dns::Message& response,
                        util::SimTime& now);

  /// Store negative knowledge from an NXDomain response: the exact-name
  /// entry (RFC 2308) plus — when aggressive synthesis is on and the
  /// response carries an in-bailiwick NSEC — the proven-empty range.
  void cache_nxdomain(const dns::DomainName& qname,
                      const dns::Message& response, util::SimTime now);

  const DnsHierarchy& hierarchy_;
  ResolverCache cache_;
  ResponseObserver observer_;
  NetworkPath net_;
  ResolverDefenses defenses_;
  std::unique_ptr<HealthModel> health_;
  /// Shared registry remembered by bind_metrics so a later enable_health
  /// lands its counters in the same place.
  obs::MetricsRegistry* bound_registry_ = nullptr;
  /// Per-registered-domain delegation-fetch budget windows.
  struct ZoneBudget {
    util::SimTime window_start = 0;
    int spent = 0;
  };
  std::unordered_map<dns::DomainName, ZoneBudget, dns::DomainNameHash>
      zone_budgets_;
  std::uint16_t next_id_ = 1;

  obs::StatsCounters<RecursiveStats, kRecursiveCounters> counters_;
  obs::LatencyHistogram upstream_seconds_;  // null until bind_metrics()
  std::uint64_t query_seq_ = 0;  // span sampling key for the live query

  /// Span context for the live query.  The resolver is single-threaded per
  /// instance (like query_seq_), so plain members carry the causal chain:
  /// root_span_ is the client query's root, span_cursor_ the parent for the
  /// next tier walk (upstream / referral fetch / CNAME hop), tier_span_ the
  /// parent for per-try spans inside the current tier.
  obs::SpanTracer* spans_ = nullptr;
  std::uint64_t span_instance_ = 0;  // ordinal on spans_ (attach())
  obs::SpanId root_span_{};
  obs::SpanId span_cursor_{};
  obs::SpanId tier_span_{};
};

}  // namespace nxd::resolver
