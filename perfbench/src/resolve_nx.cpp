// resolve-nx: NX-heavy recursive resolution on the network path — every
// upstream query is a packet through SimNetwork, three replicas per tier,
// adaptive health, every ResolverDefenses defence on, NSEC range proofs on,
// and one authoritative replica flapping on a seeded outage schedule.
//
// The query mix uses the cache three ways:
//   ~60% registered names drawn Zipf (positive-cache hits once warm);
//   ~25% repeated NXDomains (typos of popular brands, expired-looking
//        names) drawn Zipf from a pool three times max_negative_entries
//        (negative-cache hits, misses and evictions);
//   ~15% unique random labels under registered zones (water-torture shape:
//        never repeated; answered upstream or by NSEC synthesis).
// Query i runs at simulated second i / kQueriesPerSimSecond, so TTL, breaker
// and hedge behaviour is identical on every run of a seed.
//
// Each query is encoded by the client, decoded on the server side,
// resolved, and the response encoded and decoded back — the dns layer at
// the client edge.  Closed-loop passes give throughput and per-query
// service time; an open-loop pass at kOpenRate queries per wall second
// gives latency from each query's due time.  query_s is the §5 origin
// screen (DGA classifier + squat detector) over the distinct names the
// resolver answered NXDOMAIN.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "dga/classifier.hpp"
#include "dns/message.hpp"
#include "net/fault.hpp"
#include "net/sim_network.hpp"
#include "resolver/health.hpp"
#include "resolver/hierarchy.hpp"
#include "resolver/recursive.hpp"
#include "squat/detector.hpp"
#include "squat/generators.hpp"
#include "squat/targets.hpp"
#include "synth/origin_model.hpp"
#include "synth/scale_models.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace nxd;

constexpr std::size_t kRegistered = 2'000;
constexpr std::size_t kNegativeEntries = 2'048;
constexpr std::size_t kNxPool = 3 * kNegativeEntries;
constexpr std::size_t kQueries = 40'000;
constexpr std::int64_t kQueriesPerSimSecond = 100;
/// Open-loop offered rate, queries per wall second (BENCHMARK.json states
/// it in the workload's "why").
constexpr double kOpenRate = 25'000;
/// Closed-loop passes per round: throughput gets as much of the run's time
/// as the open-loop pass.
constexpr int kClosedPasses = 3;
constexpr util::SimTime kFlapPeriod = 60;   // sim seconds between outages

enum class Kind : std::uint8_t { Registered, RepeatedNx, UniqueNx };

struct Query {
  dns::Message message;
  Kind kind = Kind::Registered;
  dns::IPv4 address;  // expected A for Registered
  util::SimTime when = 0;
};

struct Inputs {
  std::vector<dns::DomainName> registered;
  std::vector<dns::IPv4> addresses;
  std::vector<Query> queries;
  std::vector<std::pair<util::SimTime, util::SimTime>> outages;
};

dns::IPv4 address_of(std::size_t i) {
  return dns::IPv4::from_octets(10, static_cast<std::uint8_t>(i >> 16),
                                static_cast<std::uint8_t>(i >> 8),
                                static_cast<std::uint8_t>(i));
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs inputs;
  util::Rng rng(seed);
  const synth::NxDomainNameModel model(seed);
  std::unordered_set<std::string> taken;
  const auto add_registered = [&](const dns::DomainName& name) {
    if (name.label_count() < 2 || !taken.insert(name.to_string()).second) return;
    inputs.addresses.push_back(address_of(inputs.registered.size()));
    inputs.registered.push_back(name);
  };
  for (const auto& target : squat::default_targets()) add_registered(target.domain);
  while (inputs.registered.size() < kRegistered) {
    add_registered(model.next_registrable(rng));
  }
  // Popularity order is seeded, so the Zipf head differs between seeds.
  std::vector<std::size_t> popularity(inputs.registered.size());
  for (std::size_t i = 0; i < popularity.size(); ++i) popularity[i] = i;
  std::shuffle(popularity.begin(), popularity.end(), rng);

  // NX pool: typos of the popular brands, then expired-looking names.
  std::vector<dns::DomainName> pool;
  for (const auto& target : squat::default_targets()) {
    for (auto& typo : squat::generate_typos(target)) {
      if (pool.size() >= kNxPool / 2) break;
      if (typo.label_count() >= 2 && taken.insert(typo.to_string()).second) {
        pool.push_back(std::move(typo));
      }
    }
  }
  while (pool.size() < kNxPool) {
    auto name = model.next_registrable(rng);
    if (name.label_count() >= 2 && taken.insert(name.to_string()).second) {
      pool.push_back(std::move(name));
    }
  }
  std::shuffle(pool.begin(), pool.end(), rng);

  const util::ZipfSampler zipf_registered(inputs.registered.size(), 1.0);
  const util::ZipfSampler zipf_pool(pool.size(), 1.0);
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  inputs.queries.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    Query q;
    q.when = static_cast<util::SimTime>(i) / kQueriesPerSimSecond;
    const double u = rng.uniform();
    dns::DomainName name;
    if (u < 0.60) {
      const auto r = popularity[zipf_registered.sample(rng) - 1];
      q.kind = Kind::Registered;
      q.address = inputs.addresses[r];
      name = rng.chance(0.5) ? *inputs.registered[r].child("www")
                             : inputs.registered[r];
    } else if (u < 0.85) {
      q.kind = Kind::RepeatedNx;
      name = pool[zipf_pool.sample(rng) - 1];
    } else {
      q.kind = Kind::UniqueNx;
      std::string label;
      const auto length = 10 + rng.bounded(7);
      for (std::uint64_t c = 0; c < length; ++c) {
        label += kAlphabet[rng.bounded(sizeof(kAlphabet) - 1)];
      }
      name = *inputs.registered[rng.bounded(inputs.registered.size())].child(label);
    }
    q.message = dns::make_query(static_cast<std::uint16_t>(i + 1), name,
                                dns::RRType::A);
    inputs.queries.push_back(std::move(q));
  }

  // One authoritative replica blackholes for 10..25 simulated seconds in
  // every kFlapPeriod window.
  const util::SimTime horizon =
      static_cast<util::SimTime>(kQueries) / kQueriesPerSimSecond + 1;
  for (util::SimTime t = 0; t < horizon; t += kFlapPeriod) {
    const util::SimTime from = t + rng.range(0, kFlapPeriod / 2);
    inputs.outages.emplace_back(from, from + rng.range(10, 25));
  }
  return inputs;
}

struct Rig {
  obs::MetricsRegistry registry;  // outlives everything bound to it
  util::SimClock clock;           // the network's fault-plan time base
  resolver::DnsHierarchy hierarchy;
  net::SimNetwork network;
  std::unique_ptr<resolver::RecursiveResolver> resolver;
};

std::unique_ptr<Rig> build_rig(const Inputs& inputs, std::uint64_t seed,
                               Spans& spans, obs::SpanId parent) {
  auto rig = std::make_unique<Rig>();
  const auto farm = resolver::HierarchyEndpoints::with_replicas(3);
  {
    Scope scope(spans, parent, "resolver.register_domains");
    for (std::size_t i = 0; i < inputs.registered.size(); ++i) {
      rig->hierarchy.register_domain(inputs.registered[i], inputs.addresses[i]);
    }
    rig->hierarchy.enable_range_proofs(true);
  }
  {
    Scope scope(spans, parent, "net.attach");
    net::FaultPlan plan(seed);
    for (const auto& [from, until] : inputs.outages) {
      plan.add_outage(farm.auth, from, until);
    }
    rig->network.set_fault_plan(std::move(plan));
    rig->network.set_clock(&rig->clock);
    rig->hierarchy.attach(rig->network, farm);
    rig->network.bind_metrics(rig->registry);
  }
  {
    Scope scope(spans, parent, "resolver.configure");
    resolver::CacheConfig cache;
    cache.max_negative_entries = kNegativeEntries;
    rig->resolver =
        std::make_unique<resolver::RecursiveResolver>(rig->hierarchy, cache);
    rig->resolver->use_network(rig->network, farm, resolver::RetryPolicy{},
                               seed);
    resolver::HealthConfig health;
    health.breaker.failure_threshold = 2;
    health.breaker.open_duration = 8;
    health.breaker.max_open_duration = 64;
    health.hedge_min_samples = 4;
    rig->resolver->enable_health(health);
    resolver::ResolverDefenses defenses;
    defenses.aggressive_negative = true;
    defenses.max_fetch_per_delegation = 5;
    defenses.zone_fetch_budget = 32;
    defenses.qname_minimization = true;
    defenses.max_cname_chase = 8;
    rig->resolver->set_defenses(defenses);
    rig->resolver->bind_metrics(rig->registry);
  }
  return rig;
}

struct Tally {
  std::uint64_t noerror = 0;
  std::uint64_t nxdomain = 0;
  std::uint64_t servfail = 0;
  std::uint64_t other = 0;
  std::uint64_t spurious_nxdomain = 0;  // NXDOMAIN for a registered name
  std::uint64_t wrong_answer = 0;       // NOERROR without the registered A
  std::uint64_t fabricated = 0;         // NOERROR for a non-existent name
  std::uint64_t bad_wire = 0;
  std::vector<std::uint32_t> nx_answered;  // query indices
};

bool carries(const dns::Message& response, dns::IPv4 address) {
  for (const auto& rr : response.answers) {
    if (const auto* ip = std::get_if<dns::IPv4>(&rr.rdata); ip && *ip == address) {
      return true;
    }
  }
  return false;
}

/// One query through the client edge and the resolver.
void serve(Rig& rig, const Inputs& inputs, std::size_t i, Spans& spans,
           obs::SpanId parent, Tally& tally) {
  const Query& q = inputs.queries[i];
  std::vector<std::uint8_t> wire;
  {
    Scope scope(spans, parent, "dns.encode");
    wire = dns::encode(q.message);
  }
  std::optional<dns::Message> request;
  {
    Scope scope(spans, parent, "dns.decode");
    request = dns::decode(wire);
  }
  if (!request) {
    ++tally.bad_wire;
    return;
  }
  resolver::ResolveOutcome outcome;
  {
    Scope scope(spans, parent, "resolver.resolve");
    rig.clock.set(q.when);
    outcome = rig.resolver->resolve(*request, q.when);
    scope.value = outcome.negative_cache_hit ? 1 : outcome.from_cache ? 0 : 2;
  }
  {
    Scope scope(spans, parent, "dns.encode");
    wire = dns::encode(outcome.response);
  }
  std::optional<dns::Message> response;
  {
    Scope scope(spans, parent, "dns.decode");
    response = dns::decode(wire);
  }
  if (!response) {
    ++tally.bad_wire;
    return;
  }
  switch (response->header.rcode) {
    case dns::RCode::NoError:
      ++tally.noerror;
      if (q.kind != Kind::Registered) {
        ++tally.fabricated;
      } else if (!carries(*response, q.address)) {
        ++tally.wrong_answer;
      }
      break;
    case dns::RCode::NXDomain:
      ++tally.nxdomain;
      if (q.kind == Kind::Registered) ++tally.spurious_nxdomain;
      tally.nx_answered.push_back(static_cast<std::uint32_t>(i));
      break;
    case dns::RCode::ServFail:
      ++tally.servfail;
      break;
    default:
      ++tally.other;
      break;
  }
}

Counts counts_of(const Rig& rig, const Tally& tally) {
  const auto& s = rig.resolver->stats();
  const auto& c = rig.resolver->cache().stats();
  return {{"client_queries", s.client_queries},
          {"cache_hits", s.cache_hits},
          {"upstream_resolutions", s.upstream_resolutions},
          {"upstream_sends", s.upstream_sends},
          {"retries", s.retries},
          {"timeouts", s.timeouts},
          {"hedged_queries", s.hedged_queries},
          {"breaker_skips", s.breaker_skips},
          {"minimized_queries", s.minimized_queries},
          {"positive_hits", c.positive_hits},
          {"negative_hits", c.negative_hits},
          {"aggressive_hits", c.aggressive_hits},
          {"negative_evictions", c.negative_evictions},
          {"net_delivered", rig.network.delivered()},
          {"net_dropped", rig.network.dropped()},
          {"noerror", tally.noerror},
          {"nxdomain", tally.nxdomain},
          {"servfail", tally.servfail}};
}

void check_tally(Result& result, const Tally& tally) {
  result.check(tally.spurious_nxdomain == 0,
               "resolve-nx: " + std::to_string(tally.spurious_nxdomain) +
                   " spurious NXDOMAIN answers for registered names");
  result.check(tally.wrong_answer == 0,
               "resolve-nx: " + std::to_string(tally.wrong_answer) +
                   " NOERROR answers without the registered address");
  result.check(tally.fabricated == 0,
               "resolve-nx: " + std::to_string(tally.fabricated) +
                   " NOERROR answers for non-existent names");
  result.check(tally.bad_wire == 0 && tally.other == 0,
               "resolve-nx: undecodable or unexpected responses");
}


struct Pass {
  double scale = 1;     // HostSpeed::scale() of the pass
  double kernel_s = 0;  // calibration kernel time around the pass
  double setup_s = 0;
  double wall_s = 0;
  Tally tally;
  Counts counts;
  resolver::RecursiveStats stats;
  resolver::CacheStats cache;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  Latency latency;  // per query
};

/// Fresh set-up, then every query once: back to back (closed loop) or each
/// at its due time on a kOpenRate schedule (open loop).
Pass run_pass(const Inputs& inputs, std::uint64_t seed, Spans& spans,
              bool open_loop) {
  Pass pass;
  HostSpeed speed(spans, Cpus::This);
  std::unique_ptr<Rig> rig;
  {
    Phase phase(spans, "loadgen.setup");
    rig = build_rig(inputs, seed, spans, phase.id());
    pass.setup_s = phase.elapsed_s();
  }
  const std::size_t n = inputs.queries.size();
  {
    Phase phase(spans, open_loop ? "loadgen.open_loop" : "loadgen.closed_loop");
    const auto serve_one = [&](std::size_t i) {
      serve(*rig, inputs, i, spans, phase.id(), pass.tally);
    };
    const auto counted = [](std::size_t) { return true; };
    pass.latency = open_loop
                       ? run_open_loop(n, kOpenRate, serve_one, counted)
                       : run_closed_loop(n, serve_one, counted);
    pass.wall_s = phase.elapsed_s();
  }
  pass.counts = counts_of(*rig, pass.tally);
  pass.stats = rig->resolver->stats();
  pass.cache = rig->resolver->cache().stats();
  pass.delivered = rig->network.delivered();
  const auto& faults = rig->network.fault_stats();
  pass.dropped = rig->network.dropped() + faults.injected_drops + faults.outage_drops;
  {
    Phase phase(spans, "loadgen.teardown");
    Scope scope(spans, phase.id(), "resolver.teardown");
    rig.reset();
  }
  speed.finish();
  pass.scale = speed.scale();
  pass.kernel_s = speed.kernel_s();
  return pass;
}

struct Screen {
  double query_s = 0;  // scaled to the reference host
  Counts counts;
};

/// §5 origin screen over the distinct names the pass answered NXDOMAIN.
Screen screen(const Inputs& inputs, const Tally& tally,
              const Analyzers& analyzers, Spans& spans) {
  std::vector<const dns::DomainName*> names;
  {
    Phase phase(spans, "loadgen.collect");
    std::unordered_set<std::string> seen;
    for (const auto index : tally.nx_answered) {
      const auto& name = inputs.queries[index].message.questions.front().name;
      if (seen.insert(name.to_string()).second) names.push_back(&name);
    }
  }
  Screen out;
  HostSpeed speed(spans, Cpus::This);
  std::uint64_t dga = 0;
  std::uint64_t squats = 0;
  {
    Phase phase(spans, "loadgen.query");
    for (const auto* name : names) {
      {
        Scope scope(spans, phase.id(), "dga.classify");
        if (analyzers.classifier.classify(*name).is_dga) ++dga;
      }
      {
        Scope scope(spans, phase.id(), "squat.detect");
        if (analyzers.detector.classify(*name)) ++squats;
      }
    }
    out.query_s = phase.elapsed_s();
  }
  speed.finish();
  out.query_s *= speed.scale();
  out.counts = {{"nx_names", names.size()}, {"dga", dga}, {"squats", squats}};
  return out;
}

}  // namespace

Result run_resolve_nx(const Options& options) {
  Result result;
  const Inputs inputs = make_inputs(options.seed);
  const Analyzers analyzers;
  const std::size_t n = inputs.queries.size();
  result.params["open_loop_rate_per_s"] = std::to_string(kOpenRate);
  result.params["queries_per_pass"] = std::to_string(n);
  result.params["registered_zones"] = std::to_string(inputs.registered.size());
  result.params["max_negative_entries"] = std::to_string(kNegativeEntries);

  std::vector<Pass> closed, open, traced;
  std::vector<Screen> screens, traced_screens;
  std::vector<TraceSummary> summaries;
  std::vector<double> round_rss;  // resident peak of each untraced round
  obs::SpanTracer::Config tracer_config;
  tracer_config.sample_rate = 1.0;
  tracer_config.capacity = 6 * n + 1'024;
  Budget budget(options.seconds, options.trace ? 2 : 3);
  while (true) {
    reset_peak_rss();
    Spans none;
    for (int k = 0; k < kClosedPasses; ++k) {
      closed.push_back(run_pass(inputs, options.seed, none, false));
      screens.push_back(screen(inputs, closed.back().tally, analyzers, none));
      closed.back().tally.nx_answered = {};
    }
    open.push_back(run_pass(inputs, options.seed, none, true));
    screens.push_back(screen(inputs, open.back().tally, analyzers, none));
    open.back().tally.nx_answered = {};
    round_rss.push_back(peak_rss_mb());
    if (options.trace) {
      obs::SpanTracer tracer(tracer_config);
      Spans spans(&tracer);
      traced.push_back(run_pass(inputs, options.seed, spans, false));
      traced_screens.push_back(
          screen(inputs, traced.back().tally, analyzers, spans));
      traced.back().tally.nx_answered = {};
      summaries.push_back(summarize(tracer));
      if (summaries.size() == 1) {
        export_spans(tracer, options.spans_dir + "/spans-resolve-nx.jsonl");
      }
    }
    if (!result.correct || budget.done(open.size())) break;
  }

  const Counts& first = closed.front().counts;
  const auto compare = [&](const std::vector<Pass>& passes, const char* what) {
    for (const auto& pass : passes) {
      check_tally(result, pass.tally);
      expect_same_counts(result, first, pass.counts, what);
    }
  };
  compare(closed, "resolve-nx closed-loop pass");
  compare(open, "resolve-nx open-loop pass");
  compare(traced, "resolve-nx traced pass");
  for (const auto& s : screens) {
    expect_same_counts(result, screens.front().counts, s.counts, "resolve-nx screen");
  }
  for (const auto& s : traced_screens) {
    expect_same_counts(result, screens.front().counts, s.counts, "resolve-nx screen");
  }

  for (const auto* passes : {&closed, &open}) {
    for (const auto& pass : *passes) {
      result.attempted += n;
      result.failed += pass.tally.servfail;
    }
  }
  if (!result.correct) result.failed = result.attempted;

  // Every timing is taken per pass, scaled to the reference host
  // (HostSpeed), and summarized by its central mean.  p50/p99 are closed-loop
  // service times: on a shared host the open-loop percentiles mostly measure
  // when the hypervisor ran this vCPU, so they are reported per layer
  // (loadgen.open_*, unscaled, like every per-layer time) instead.
  std::vector<double> ops, setup, query, p50, p99, kernel_us;
  std::vector<double> open_p50, open_p99, late;
  for (const auto& s : screens) query.push_back(s.query_s);
  for (const auto* passes : {&closed, &open}) {
    for (const auto& pass : *passes) {
      setup.push_back(pass.setup_s * pass.scale);
      kernel_us.push_back(pass.kernel_s * 1e6);
    }
  }
  for (const auto& pass : closed) {
    ops.push_back(per(static_cast<double>(n), pass.wall_s * pass.scale));
    p50.push_back(pass.latency.p50_us * pass.scale);
    p99.push_back(pass.latency.p99_us * pass.scale);
  }
  for (const auto& pass : open) {
    open_p50.push_back(pass.latency.p50_us);
    open_p99.push_back(pass.latency.p99_us);
    late.push_back(pass.latency.late_p99_us);
  }
  result.set("peak_rss_mb", central_mean(round_rss), "MB");
  result.set("loadgen.kernel_us", median(kernel_us), "us");
  if (!options.trace) {
    for (const auto& [name, values] :
         {std::pair{"ops_per_s", &ops}, {"p50_us", &p50}, {"p99_us", &p99},
          {"query_s", &query}, {"setup_s", &setup}, {"kernel_us", &kernel_us}}) {
      log_samples("resolve-nx", name, *values);
    }
    result.set("ops_per_s", central_mean(ops), "1/s");
    result.set("p50_us", central_mean(p50), "us");
    result.set("p99_us", central_mean(p99), "us");
    result.set("query_s", central_mean(query), "s");
    result.set("setup_s", median(setup), "s");
    result.params["latency_samples_per_pass"] = std::to_string(n);
    return result;
  }

  const Pass& p = closed.front();
  const double queries = static_cast<double>(p.stats.client_queries);
  result.set("resolver.cache_hits", static_cast<double>(p.stats.cache_hits), "count");
  result.set("resolver.cache_hit_ratio",
             per(static_cast<double>(p.stats.cache_hits), queries), "ratio");
  result.set("resolver.negative_hit_ratio",
             per(static_cast<double>(p.cache.negative_hits + p.cache.aggressive_hits),
                 queries),
             "ratio");
  result.set("resolver.negative_evictions",
             static_cast<double>(p.cache.negative_evictions), "count");
  result.set("resolver.upstream_sends", static_cast<double>(p.stats.upstream_sends),
             "count");
  result.set("upstream_per_query",
             per(static_cast<double>(p.stats.upstream_sends), queries), "ratio");
  result.set("resolver.retries_per_query",
             per(static_cast<double>(p.stats.retries), queries), "ratio");
  result.set("resolver.timeouts", static_cast<double>(p.stats.timeouts), "count");
  result.set("resolver.hedged_per_query",
             per(static_cast<double>(p.stats.hedged_queries), queries), "ratio");
  result.set("resolver.breaker_skips", static_cast<double>(p.stats.breaker_skips),
             "count");
  result.set("net.delivered", static_cast<double>(p.delivered), "count");
  result.set("net.dropped", static_cast<double>(p.dropped), "count");
  result.set("error_ratio", per(static_cast<double>(p.tally.servfail), queries),
             "ratio");

  const auto med = [&](auto&& fn) {
    std::vector<double> values;
    for (const auto& s : summaries) values.push_back(fn(s));
    return median(values);
  };
  const char* outcomes[] = {"resolver.hit_us_p50", "resolver.neg_hit_us_p50",
                            "resolver.miss_us_p50"};
  for (std::int64_t k = 0; k < 3; ++k) {
    result.set(outcomes[k], med([&](const TraceSummary& s) {
                 return median(s.durations("resolver.resolve", k)) * 1e-3;
               }),
               "us");
  }
  result.set("dns.encode_ns", med([](const TraceSummary& s) {
               return per(s.total_ns("dns.encode"), s.count("dns.encode"));
             }),
             "ns");
  result.set("dns.decode_ns", med([](const TraceSummary& s) {
               return per(s.total_ns("dns.decode"), s.count("dns.decode"));
             }),
             "ns");
  result.set("loadgen.open_p50_us", central_mean(open_p50), "us");
  result.set("loadgen.open_p99_us", central_mean(open_p99), "us");
  result.set("loadgen.late_us_p99", central_mean(late), "us");

  std::vector<double> plain_wall, traced_wall;
  for (const auto& pass : closed) plain_wall.push_back(pass.wall_s);
  for (const auto& pass : traced) traced_wall.push_back(pass.wall_s);
  result.set("obs.trace_overhead_pct",
             100.0 * (median(traced_wall) / median(plain_wall) - 1.0), "%");
  for (const auto& summary : summaries) {
    result.check(summary.coverage_pct >= 95.0 && summary.coverage_pct <= 105.0,
                 "resolve-nx: span self times cover " +
                     std::to_string(summary.coverage_pct) +
                     "% of the traced wall time");
  }
  result.params["span_coverage_pct"] =
      std::to_string(summaries.front().coverage_pct);
  for (const char* layer : {"loadgen", "resolver", "dns", "net", "dga", "squat"}) {
    result.set(std::string(layer) + ".self_pct", med([&](const TraceSummary& s) {
                 return 100.0 * s.layer_self_ns(layer) * 1e-9 / s.wall_s;
               }),
               "%");
  }
  // Gates checked in the traced passes fail the run like any other.
  if (!result.correct) result.failed = result.attempted;
  return result;
}

}  // namespace perfbench
