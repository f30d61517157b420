// sie-ingest: the §4 collection path end to end — SIE batch frames into a
// group-committed, background-checkpointed DurableStore with 2 shards, a
// cold recovery of what was written, then the §4/§5 analysis over the
// recovered store.
//
// Inputs (untimed): the seeded 2014-2022 NxHistoryStream with ok/servfail
// noise, encoded as SIE batch frames, and a serial reference ingest of the
// same frames.
//
// One client thread keeps kWindow submit_frame calls in flight (closed
// loop).  The commit-group window is kWindow batches with a long linger, so
// every fsync carries exactly kWindow batches whatever the scheduling —
// that makes batches-per-fsync a count later changes can cite.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/scale.hpp"
#include "common.hpp"
#include "dga/classifier.hpp"
#include "pdns/durable_store.hpp"
#include "pdns/frame_view.hpp"
#include "pdns/sampler.hpp"
#include "pdns/sharded_store.hpp"
#include "pdns/sie_channel.hpp"
#include "pdns/snapshot.hpp"
#include "pdns/store.hpp"
#include "squat/detector.hpp"
#include "synth/origin_model.hpp"
#include "synth/scale_models.hpp"

namespace perfbench {
namespace {

using namespace nxd;

constexpr double kScale = 1e-6;            // ~1.28 M observations
constexpr std::size_t kFrameObservations = 2'000;
constexpr std::size_t kShards = 2;
constexpr std::size_t kWindow = 16;        // batches in flight == per group
constexpr std::uint32_t kLingerUs = 500'000;
constexpr std::uint64_t kDeltaEvery = 64;  // batches per delta checkpoint
constexpr std::uint64_t kCompactEvery = 4; // deltas per full compaction
constexpr std::uint32_t kHighTraffic = 20; // NX queries/month (§3.3 scaled)
constexpr std::uint64_t kLifespanSampling = 1'000;  // §4.2's 1/1000 sample

struct Inputs {
  std::vector<std::vector<std::uint8_t>> frames;
  std::uint64_t observations = 0;
};

/// The stream split into frames whose count is a multiple of kWindow, so
/// the last commit group is as full as the others.
Inputs make_inputs(std::uint64_t seed) {
  synth::HistoryStreamConfig config;
  config.scale = kScale;
  config.seed = seed;
  config.ok_fraction = 0.05;
  config.servfail_fraction = 0.02;
  const synth::NxHistoryStream stream(config);

  Inputs inputs;
  const std::uint64_t total = stream.planned_total();
  std::size_t frames = (total + kFrameObservations - 1) / kFrameObservations;
  frames = (frames + kWindow - 1) / kWindow * kWindow;
  inputs.frames.reserve(frames);
  const auto boundary = [&](std::size_t f) { return f * total / frames; };

  std::vector<pdns::Observation> pending;
  std::uint64_t seen = 0;
  for (std::size_t m = 0; m < stream.months(); ++m) {
    for (auto& obs : stream.month(m)) {
      pending.push_back(std::move(obs));
      ++seen;
      if (seen == boundary(inputs.frames.size() + 1)) {
        inputs.frames.push_back(pdns::encode_batch_frame(pending));
        pending.clear();
      }
    }
  }
  if (!pending.empty()) inputs.frames.push_back(pdns::encode_batch_frame(pending));
  inputs.observations = seen;
  return inputs;
}

pdns::DurableStore::Config store_config() {
  pdns::DurableStore::Config config;
  config.shard_count = kShards;
  config.delta_every_batches = kDeltaEvery;
  config.compact_every_deltas = kCompactEvery;
  config.group_window.max_batches = kWindow;
  config.group_window.linger_us = kLingerUs;
  return config;
}

struct Findings {
  std::string text;  // canonical rendering of every §4/§5 result
  std::uint64_t names = 0;  // high-traffic NXDomains classified
};

/// §4 (summary, Fig 3 monthly, Fig 4 TLDs, Fig 5 lifespan) and §5 (DGA and
/// squatting over the high-traffic NXDomains) over one store.
Findings analyze(const pdns::PassiveDnsStore& store, const Analyzers& analyzers,
                 Spans& spans, obs::SpanId parent) {
  Findings out;
  std::string& t = out.text;
  {
    Scope scope(spans, parent, "analysis.scale");
    const analysis::ScaleAnalysis scale(store);
    const auto summary = scale.summary();
    t += "summary " + std::to_string(summary.nx_responses) + ' ' +
         std::to_string(summary.distinct_nxdomains) + ' ' +
         std::to_string(summary.servfail_responses) + '\n';
    for (const auto& point : scale.monthly_series()) {
      t += "month " + point.label + ' ' + std::to_string(point.responses) + '\n';
    }
    for (const auto& row : scale.top_tlds(20)) {
      t += "tld " + row.tld + ' ' + std::to_string(row.distinct_nxdomains) +
           ' ' + std::to_string(row.nx_queries) + '\n';
    }
    const pdns::DomainSampler sampler(kLifespanSampling, 1);
    for (const auto& point : scale.lifespan_series(sampler)) {
      t += "life " + std::to_string(point.days_in_nx) + ' ' +
           std::to_string(point.domains) + ' ' +
           std::to_string(point.queries) + '\n';
    }
  }
  std::vector<std::string> names;
  {
    Scope scope(spans, parent, "pdns.high_traffic_nxdomains");
    names = store.high_traffic_nxdomains(kHighTraffic);
  }
  std::uint64_t dga = 0;
  std::uint64_t squats[std::size(squat::kAllSquatTypes)] = {};
  for (const auto& text : names) {
    std::optional<dns::DomainName> name;
    {
      Scope scope(spans, parent, "dns.parse");
      name = dns::DomainName::parse(text);
    }
    if (!name) {
      t += "unparsable " + text + '\n';
      continue;
    }
    {
      Scope scope(spans, parent, "dga.classify");
      if (analyzers.classifier.classify(*name).is_dga) ++dga;
    }
    {
      Scope scope(spans, parent, "squat.detect");
      if (const auto verdict = analyzers.detector.classify(*name)) {
        ++squats[static_cast<std::size_t>(verdict->type)];
      }
    }
  }
  out.names = names.size();
  t += "high_traffic " + std::to_string(names.size()) + " dga " +
       std::to_string(dga) + " squats";
  for (const auto n : squats) t += ' ' + std::to_string(n);
  t += '\n';
  return out;
}

struct Reference {
  std::vector<std::uint8_t> snapshot;
  Findings findings;
};

Reference make_reference(const Inputs& inputs, const Analyzers& analyzers) {
  pdns::PassiveDnsStore store;
  for (const auto& frame : inputs.frames) {
    const auto view = pdns::FrameView::parse(frame);
    if (!view) continue;  // the durable run rejects it too; snapshots differ
    for (const auto obs : *view) store.ingest_view(obs);
  }
  Spans none;
  return Reference{pdns::save_snapshot(store),
                   analyze(store, analyzers, none, {})};
}

struct Round {
  double scale = 1;        // HostSpeed::scale() of set-up and ingest
  double kernel_s = 0;     // calibration kernel time around them
  double query_scale = 1;  // HostSpeed::scale() of the query phase
  double setup_s = 0;
  double ingest_s = 0;
  double recover_s = 0;
  double query_s = 0;
  std::vector<double> batch_us;  // submit -> ack, per batch
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  pdns::DurableStore::StageStats stages;
  std::uint64_t disk_bytes = 0;
  std::uint64_t replayed = 0;
  std::uint64_t high_traffic_names = 0;
};

/// One fresh-directory pass: open, ingest, close, recover, analyze.  The
/// byte-level snapshot comparisons cost about as much as the ingest, so only
/// the rounds asked to run them do.
Round run_round(const Inputs& inputs, const Reference& reference,
                const Analyzers& analyzers, const std::string& dir,
                bool check_snapshots, Spans& spans, Result& result) {
  Round round;
  std::filesystem::remove_all(dir);
  const auto config = store_config();
  obs::MetricsRegistry registry;  // outlives both stores

  // Ingest runs on the store's writer and checkpoint threads.
  HostSpeed ingest_speed(spans, Cpus::Every);
  std::optional<pdns::DurableStore> store;
  {
    Phase phase(spans, "loadgen.setup");
    {
      Scope scope(spans, phase.id(), "pdns.open");
      store = pdns::DurableStore::open(dir, config);
      if (store) store->bind_metrics(registry);
    }
    round.setup_s = phase.elapsed_s();
  }
  if (!store) {
    result.check(false, "sie-ingest: cannot open a durable store in " + dir);
    round.failed = inputs.frames.size();
    return round;
  }

  {
    Phase phase(spans, "loadgen.ingest");
    std::vector<std::int64_t> submitted(inputs.frames.size());
    std::deque<std::pair<std::size_t, std::uint64_t>> inflight;
    round.batch_us.reserve(inputs.frames.size());
    const auto ack_oldest = [&] {
      const auto [index, ticket] = inflight.front();
      inflight.pop_front();
      bool ok = false;
      {
        Scope scope(spans, phase.id(), "pdns.wait_batch");
        ok = store->wait_batch(ticket);
      }
      round.batch_us.push_back(
          static_cast<double>(now_ns() - submitted[index]) * 1e-3);
      ok ? ++round.acked : ++round.failed;
    };
    for (std::size_t i = 0; i < inputs.frames.size(); ++i) {
      std::uint64_t ticket = 0;
      {
        Scope scope(spans, phase.id(), "pdns.submit_frame");
        submitted[i] = now_ns();
        ticket = store->submit_frame(inputs.frames[i]);
      }
      if (ticket == 0) {
        ++round.failed;
        continue;
      }
      inflight.emplace_back(i, ticket);
      if (inflight.size() >= kWindow) ack_oldest();
    }
    while (!inflight.empty()) ack_oldest();
    round.ingest_s = phase.elapsed_s();
  }
  round.stages = store->stage_stats();

  if (check_snapshots) {
    Phase phase(spans, "loadgen.check");
    std::vector<std::uint8_t> live;
    {
      Scope scope(spans, phase.id(), "pdns.snapshot_bytes");
      live = store->snapshot_bytes();
    }
    result.check(live == reference.snapshot,
                 "sie-ingest: live snapshot differs from the serial reference");
  }
  {
    Phase phase(spans, "loadgen.close");
    Scope scope(spans, phase.id(), "pdns.close");
    store.reset();
  }
  // Timed once the store's threads have stopped, so the kernel has every
  // CPU to itself.
  ingest_speed.finish();
  round.scale = ingest_speed.scale();
  round.kernel_s = ingest_speed.kernel_s();
  round.disk_bytes = directory_bytes(dir);

  std::optional<pdns::DurableStore> recovered;
  {
    Phase phase(spans, "loadgen.recover");
    {
      Scope scope(spans, phase.id(), "pdns.open");
      recovered = pdns::DurableStore::open(dir, config);
    }
    round.recover_s = phase.elapsed_s();
  }
  if (!recovered) {
    result.check(false, "sie-ingest: recovery of " + dir + " failed");
    return round;
  }
  round.replayed = recovered->recovery().replayed_batches;
  result.check(recovered->committed_batches() == round.acked,
               "sie-ingest: recovered " +
                   std::to_string(recovered->committed_batches()) +
                   " batches, acked " + std::to_string(round.acked));

  Findings findings;
  HostSpeed query_speed(spans, Cpus::This);
  {
    Phase phase(spans, "loadgen.query");
    pdns::PassiveDnsStore materialized;
    {
      Scope scope(spans, phase.id(), "pdns.materialize");
      materialized = recovered->materialize();
    }
    findings = analyze(materialized, analyzers, spans, phase.id());
    round.query_s = phase.elapsed_s();
  }
  query_speed.finish();
  round.query_scale = query_speed.scale();
  round.high_traffic_names = findings.names;
  result.check(findings.text == reference.findings.text,
               "sie-ingest: §4/§5 results differ from the reference store's");
  if (check_snapshots) {
    Phase phase(spans, "loadgen.check");
    std::vector<std::uint8_t> bytes;
    {
      Scope scope(spans, phase.id(), "pdns.snapshot_bytes");
      bytes = recovered->snapshot_bytes();
    }
    result.check(bytes == reference.snapshot,
                 "sie-ingest: recovered snapshot differs from the reference");
  }
  {
    Phase phase(spans, "loadgen.close");
    Scope scope(spans, phase.id(), "pdns.close");
    recovered.reset();
  }
  std::filesystem::remove_all(dir);
  return round;
}

Counts round_counts(const Round& round) {
  return {{"acked_batches", round.acked},
          {"commit_groups", round.stages.groups},
          {"group_batches", round.stages.batches},
          {"observations", round.stages.observations},
          {"high_traffic_names", round.high_traffic_names}};
}

/// The decode / route / store-ingest stages, timed per frame over the same
/// frames: FrameView::parse plus view iteration, ShardedStore::shard_of_key,
/// and PassiveDnsStore::ingest_view into one serial store.
struct FrameStages {
  std::uint64_t intern_hits = 0;
  std::uint64_t intern_misses = 0;
};

FrameStages time_frame_stages(const Inputs& inputs, Spans& spans) {
  Phase phase(spans, "loadgen.frames");
  pdns::PassiveDnsStore store;
  std::vector<pdns::ObservationView> views;
  std::size_t shard_sum = 0;
  for (const auto& frame : inputs.frames) {
    views.clear();
    {
      Scope scope(spans, phase.id(), "pdns.decode");
      if (const auto view = pdns::FrameView::parse(frame)) {
        for (const auto obs : *view) views.push_back(obs);
      }
    }
    {
      Scope scope(spans, phase.id(), "pdns.route");
      for (const auto& obs : views) {
        shard_sum +=
            pdns::ShardedStore::shard_of_key(obs.registered_key(), kShards);
      }
      scope.value = static_cast<std::int64_t>(shard_sum);
    }
    {
      Scope scope(spans, phase.id(), "pdns.store_ingest");
      for (const auto& obs : views) store.ingest_view(obs);
    }
  }
  return FrameStages{store.intern_hits(), store.intern_misses()};
}

}  // namespace

Result run_sie_ingest(const Options& options) {
  Result result;
  const Inputs inputs = make_inputs(options.seed);
  const Analyzers analyzers;
  const Reference reference = make_reference(inputs, analyzers);
  const std::string dir = options.work_dir + "/durable";
  result.params["shards"] = std::to_string(kShards);
  result.params["window_batches"] = std::to_string(kWindow);
  result.params["frames"] = std::to_string(inputs.frames.size());
  result.params["observations"] = std::to_string(inputs.observations);

  const double n_obs = static_cast<double>(inputs.observations);
  std::vector<Round> plain;   // untraced rounds
  std::vector<Round> traced;  // traced rounds (trace mode only)
  std::vector<TraceSummary> summaries;
  std::vector<FrameStages> frame_stages;
  std::vector<double> round_rss;  // resident peak of each untraced round
  obs::SpanTracer::Config tracer_config;
  tracer_config.sample_rate = 1.0;
  tracer_config.capacity =
      8 * inputs.frames.size() + 4 * reference.findings.names + 1'024;

  Budget budget(options.seconds, options.trace ? 2 : 3);
  while (true) {
    reset_peak_rss();
    Spans none;
    plain.push_back(run_round(inputs, reference, analyzers, dir, plain.empty(),
                              none, result));
    round_rss.push_back(peak_rss_mb());
    if (options.trace) {
      obs::SpanTracer tracer(tracer_config);
      Spans spans(&tracer);
      traced.push_back(
          run_round(inputs, reference, analyzers, dir, false, spans, result));
      frame_stages.push_back(time_frame_stages(inputs, spans));
      summaries.push_back(summarize(tracer));
      if (summaries.size() == 1) {
        export_spans(tracer, options.spans_dir + "/spans-sie-ingest.jsonl");
      }
    }
    if (!result.correct || budget.done(plain.size())) break;
  }

  for (std::size_t i = 1; i < plain.size(); ++i) {
    expect_same_counts(result, round_counts(plain[0]), round_counts(plain[i]),
                       "sie-ingest round " + std::to_string(i));
  }
  for (const auto& round : traced) {
    expect_same_counts(result, round_counts(plain[0]), round_counts(round),
                       "sie-ingest traced round");
  }

  for (const auto& round : plain) {
    result.attempted += inputs.frames.size();
    result.failed += round.failed;
  }
  if (!result.correct) result.failed = result.attempted;

  result.set("peak_rss_mb", central_mean(round_rss), "MB");
  std::vector<double> kernel_us;
  for (const auto& round : plain) kernel_us.push_back(round.kernel_s * 1e6);
  result.set("loadgen.kernel_us", median(kernel_us), "us");
  if (!options.trace) {
    // Every timing is scaled to the reference host (HostSpeed); batch
    // latencies are pooled over the rounds.
    std::vector<double> ops, setups, query, batch_us, p50, p99;
    for (const auto& round : plain) {
      ops.push_back(per(static_cast<double>(round.stages.observations),
                        round.ingest_s * round.scale));
      setups.push_back(round.setup_s * round.scale);
      query.push_back(round.query_s * round.query_scale);
      std::vector<double> scaled = round.batch_us;
      for (auto& us : scaled) us *= round.scale;
      p50.push_back(quantile(scaled, 0.50));
      p99.push_back(quantile(scaled, 0.99));
      batch_us.insert(batch_us.end(), scaled.begin(), scaled.end());
    }
    for (const auto& [name, values] :
         {std::pair{"ops_per_s", &ops}, {"p50_us", &p50}, {"p99_us", &p99},
          {"query_s", &query}, {"setup_s", &setups}, {"kernel_us", &kernel_us}}) {
      log_samples("sie-ingest", name, *values);
    }
    result.set("ops_per_s", central_mean(ops), "1/s");
    result.set("p50_us", quantile(batch_us, 0.50), "us");
    result.set("p99_us", quantile(batch_us, 0.99), "us");
    result.set("query_s", central_mean(query), "s");
    result.set("setup_s", median(setups), "s");
    result.params["latency_samples"] = std::to_string(batch_us.size());
    return result;
  }

  // Per-layer metrics: medians over the traced rounds.
  const auto med = [&](auto&& fn) {
    std::vector<double> values;
    for (std::size_t i = 0; i < traced.size(); ++i) values.push_back(fn(i));
    return median(values);
  };
  const auto ns_per_obs = [&](std::uint64_t ns, const Round& round) {
    return per(static_cast<double>(ns),
               static_cast<double>(round.stages.observations));
  };
  const auto& s = summaries;
  result.set("pdns.decode_ns_per_obs",
             med([&](std::size_t i) { return per(s[i].total_ns("pdns.decode"), n_obs); }), "ns");
  result.set("pdns.route_ns_per_obs",
             med([&](std::size_t i) { return per(s[i].total_ns("pdns.route"), n_obs); }), "ns");
  result.set("pdns.store_ingest_ns_per_obs",
             med([&](std::size_t i) { return per(s[i].total_ns("pdns.store_ingest"), n_obs); }), "ns");
  result.set("pdns.wal_append_ns_per_obs",
             med([&](std::size_t i) { return ns_per_obs(traced[i].stages.append_ns, traced[i]); }), "ns");
  result.set("pdns.wal_fsync_ns_per_obs",
             med([&](std::size_t i) { return ns_per_obs(traced[i].stages.fsync_ns, traced[i]); }), "ns");
  result.set("pdns.apply_ns_per_obs",
             med([&](std::size_t i) { return ns_per_obs(traced[i].stages.apply_ns, traced[i]); }), "ns");
  result.set("pdns.checkpoint_ns_per_obs",
             med([&](std::size_t i) { return ns_per_obs(traced[i].stages.checkpoint_ns, traced[i]); }), "ns");
  result.set("pdns.batches_per_fsync",
             per(static_cast<double>(plain[0].stages.batches),
                 static_cast<double>(plain[0].stages.groups)),
             "ratio");
  const auto& fs = frame_stages.front();
  for (const auto& again : frame_stages) {
    expect_same_counts(result, {{"intern_hits", fs.intern_hits}},
                       {{"intern_hits", again.intern_hits}},
                       "sie-ingest serial ingest pass");
  }
  result.set("pdns.intern_hits", static_cast<double>(fs.intern_hits), "count");
  result.set("pdns.intern_hit_ratio",
             per(static_cast<double>(fs.intern_hits),
                 static_cast<double>(fs.intern_hits + fs.intern_misses)),
             "ratio");
  result.set("pdns.disk_bytes_per_obs",
             med([&](std::size_t i) { return per(static_cast<double>(traced[i].disk_bytes), n_obs); }), "B");
  result.set("pdns.deltas",
             med([&](std::size_t i) { return static_cast<double>(traced[i].stages.deltas_written); }), "count");
  result.set("pdns.compactions",
             med([&](std::size_t i) { return static_cast<double>(traced[i].stages.compactions); }), "count");
  result.set("pdns.replayed_batches",
             med([&](std::size_t i) { return static_cast<double>(traced[i].replayed); }), "count");
  result.set("pdns.materialize_ms",
             med([&](std::size_t i) { return s[i].total_ns("pdns.materialize") * 1e-6; }), "ms");
  result.set("error_ratio",
             per(static_cast<double>(plain[0].failed),
                 static_cast<double>(inputs.frames.size())),
             "ratio");
  result.set("recover_s",
             med([&](std::size_t i) { return traced[i].recover_s; }), "s");
  result.set("analysis.scale_ms",
             med([&](std::size_t i) { return s[i].total_ns("analysis.scale") * 1e-6; }), "ms");
  result.set("dga.classify_ns_per_name",
             med([&](std::size_t i) {
               return per(s[i].total_ns("dga.classify"), s[i].count("dga.classify"));
             }), "ns");
  result.set("squat.detect_ns_per_name",
             med([&](std::size_t i) {
               return per(s[i].total_ns("squat.detect"), s[i].count("squat.detect"));
             }), "ns");

  std::vector<double> plain_ingest, traced_ingest;
  for (const auto& round : plain) plain_ingest.push_back(round.ingest_s);
  for (const auto& round : traced) traced_ingest.push_back(round.ingest_s);
  result.set("obs.trace_overhead_pct",
             100.0 * (median(traced_ingest) / median(plain_ingest) - 1.0), "%");
  for (const auto& summary : summaries) {
    result.check(summary.coverage_pct >= 95.0 && summary.coverage_pct <= 105.0,
                 "sie-ingest: span self times cover " +
                     std::to_string(summary.coverage_pct) +
                     "% of the traced wall time");
  }
  result.params["span_coverage_pct"] =
      std::to_string(summaries.front().coverage_pct);
  for (const char* layer : {"loadgen", "pdns", "analysis", "dns", "dga", "squat"}) {
    result.set(std::string(layer) + ".self_pct",
               med([&](std::size_t i) {
                 return 100.0 * s[i].layer_self_ns(layer) * 1e-9 / s[i].wall_s;
               }),
               "%");
  }
  // Gates checked in the traced passes fail the run like any other.
  if (!result.correct) result.failed = result.attempted;
  return result;
}

}  // namespace perfbench
