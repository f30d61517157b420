// honeypot-http: the §6 capture path — the 19 Table-1 domains, each hosted
// on an AWS and a GCP NxdHoneypot behind the overload gate (per-IP rate
// limiting on), replaying the seeded HoneypotTrafficModel records plus
// scanner/establishment noise in SimTime order through conn_open /
// conn_data, then the §6 analysis (two-stage filter, categorization into a
// CategoryMatrix, botnet forensics) over what was recorded.
//
// A seeded flood from a few scanner sources — about a tenth of all
// requests, in bursts well above the per-IP rate — drives the gate's refuse
// path through the same gate the model traffic is admitted by.  Flood
// sources come from the no-hosting baseline, so the filter's first stage
// removes whatever of the flood was admitted and the category matrix must
// equal categorizing the generator's records directly.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/security.hpp"
#include "common.hpp"
#include "honeypot/categorizer.hpp"
#include "honeypot/filter.hpp"
#include "honeypot/forensics.hpp"
#include "honeypot/http.hpp"
#include "honeypot/recorder.hpp"
#include "honeypot/server.hpp"
#include "synth/table1.hpp"
#include "synth/traffic_model.hpp"
#include "util/rng.hpp"
#include "vuln/vuln_db.hpp"

namespace perfbench {
namespace {

using namespace nxd;

constexpr double kTrafficScale = 0.01;     // ~59 k model requests
constexpr std::size_t kNoisePerDomain = 100;
constexpr double kFloodShare = 0.10;       // flood requests / all requests
constexpr std::size_t kFloodSources = 4;
constexpr std::size_t kFloodBurst = 100;   // requests per source-second
constexpr double kPerIpRate = 2;           // tokens per simulated second
constexpr double kPerIpBurst = 32;
/// Open-loop offered rate, requests per wall second (BENCHMARK.json states
/// it in the workload's "why").
constexpr double kOpenRate = 80'000;
/// Closed-loop passes per round: throughput gets about as much of the run's
/// time as the open-loop pass.
constexpr int kClosedPasses = 4;

struct Request {
  honeypot::TrafficRecord record;
  std::size_t honeypot = 0;   // index into Rig::honeypots
  bool flood = false;
  bool expects_reply = false;  // payload parses as HTTP
};

struct Inputs {
  synth::HoneypotTrafficModel model;
  honeypot::TrafficRecorder no_hosting;
  honeypot::TrafficRecorder control;
  std::vector<Request> requests;  // SimTime order
  std::vector<honeypot::TrafficRecord> model_records;  // same order, no flood
  std::size_t model_requests = 0;

  explicit Inputs(std::uint64_t seed)
      : model([&] {
          synth::TrafficModelConfig config;
          config.seed = seed;
          config.scale = kTrafficScale;
          return config;
        }()) {}
};

std::size_t honeypot_index(std::size_t domain, honeypot::HostingPlatform p) {
  return 2 * domain + (p == honeypot::HostingPlatform::Gcp ? 1 : 0);
}

std::unique_ptr<Inputs> make_inputs(std::uint64_t seed) {
  auto inputs = std::make_unique<Inputs>(seed);
  inputs->model.fill_no_hosting_baseline(inputs->no_hosting);
  inputs->model.fill_control_group(inputs->control);

  const auto& profiles = synth::table1_profiles();
  std::vector<Request> requests;
  std::unordered_set<std::uint32_t> model_sources;
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    auto records = inputs->model.generate_domain(profiles[d]);
    auto noise = inputs->model.generate_noise(profiles[d].domain, kNoisePerDomain);
    records.insert(records.end(), std::make_move_iterator(noise.begin()),
                   std::make_move_iterator(noise.end()));
    for (auto& record : records) {
      model_sources.insert(record.source.ip.addr);
      Request request;
      request.honeypot = honeypot_index(d, record.platform);
      request.record = std::move(record);
      requests.push_back(std::move(request));
    }
  }
  inputs->model_requests = requests.size();

  // Flood: scanner addresses the model itself never uses.
  std::vector<net::IPv4> scanners;
  for (const auto ip : inputs->no_hosting.distinct_sources()) {
    if (!model_sources.contains(ip.addr)) scanners.push_back(ip);
  }
  std::sort(scanners.begin(), scanners.end(),
            [](net::IPv4 a, net::IPv4 b) { return a.addr < b.addr; });
  util::Rng rng(seed ^ 0xf100d);
  std::shuffle(scanners.begin(), scanners.end(), rng);
  scanners.resize(std::min(scanners.size(), kFloodSources));
  const auto flood_total = static_cast<std::size_t>(
      static_cast<double>(inputs->model_requests) * kFloodShare /
      (1.0 - kFloodShare));
  const auto& config = inputs->model.config();
  for (std::size_t sent = 0; !scanners.empty() && sent < flood_total;) {
    const auto source = scanners[rng.bounded(scanners.size())];
    const auto domain = rng.bounded(profiles.size());
    const auto when = config.start + rng.range(0, config.span - 1);
    const auto platform = rng.chance(0.5) ? honeypot::HostingPlatform::Aws
                                          : honeypot::HostingPlatform::Gcp;
    for (std::size_t k = 0; k < kFloodBurst && sent < flood_total; ++k, ++sent) {
      Request request;
      request.flood = true;
      request.honeypot = honeypot_index(domain, platform);
      auto& r = request.record;
      r.protocol = net::Protocol::TCP;
      r.source = net::Endpoint{source, static_cast<std::uint16_t>(40'000 + k)};
      r.dst_port = 80;
      r.when = when;
      r.platform = platform;
      r.domain = profiles[domain].domain;
      r.payload = "GET /wp-login.php HTTP/1.1\r\nHost: " + r.domain +
                  "\r\nUser-Agent: python-requests/2.31\r\n\r\n";
      requests.push_back(std::move(request));
    }
  }
  std::stable_sort(requests.begin(), requests.end(),
                   [](const Request& a, const Request& b) {
                     return a.record.when < b.record.when;
                   });
  for (auto& request : requests) {
    request.expects_reply =
        honeypot::parse_http_request(request.record.payload).has_value();
    if (!request.flood) inputs->model_records.push_back(request.record);
  }
  inputs->requests = std::move(requests);
  return inputs;
}

struct Rig {
  obs::MetricsRegistry registry;  // outlives everything bound to it
  vuln::VulnDb vuln_db;
  honeypot::TrafficRecorder recorder;
  std::vector<std::unique_ptr<honeypot::NxdHoneypot>> honeypots;
  honeypot::TrafficFilter filter;
  std::unique_ptr<honeypot::TrafficCategorizer> categorizer;
};

std::unique_ptr<Rig> build_rig(const Inputs& inputs, Spans& spans,
                               obs::SpanId parent) {
  auto rig = std::make_unique<Rig>();
  {
    Scope scope(spans, parent, "honeypot.start");
    rig->recorder.bind_metrics(rig->registry);
    honeypot::OverloadConfig guard;
    guard.per_ip_rate = kPerIpRate;
    guard.per_ip_burst = kPerIpBurst;
    for (const auto& profile : synth::table1_profiles()) {
      for (const auto platform :
           {honeypot::HostingPlatform::Aws, honeypot::HostingPlatform::Gcp}) {
        honeypot::NxdHoneypot::Config config;
        config.domain = profile.domain;
        config.platform = platform;
        auto server =
            std::make_unique<honeypot::NxdHoneypot>(config, rig->recorder);
        server->enable_overload(guard);
        server->gate()->bind_metrics(rig->registry);
        rig->honeypots.push_back(std::move(server));
      }
    }
  }
  {
    Scope scope(spans, parent, "honeypot.learn_filter");
    rig->filter.learn_no_hosting(inputs.no_hosting);
    rig->filter.learn_control_group(inputs.control);
  }
  {
    Scope scope(spans, parent, "honeypot.build_categorizer");
    rig->vuln_db = vuln::VulnDb::with_defaults();
    honeypot::TrafficCategorizer::Config config;
    const auto* model = &inputs.model;
    config.referer_verifier = [model](const std::string& url,
                                      const std::string& domain) {
      return model->verify_referer(url, domain);
    };
    rig->categorizer = std::make_unique<honeypot::TrafficCategorizer>(
        rig->vuln_db, inputs.model.rdns(), config);
  }
  return rig;
}

struct Tally {
  std::uint64_t model_shed = 0;
  std::uint64_t model_unanswered = 0;
  std::uint64_t flood = 0;
  std::uint64_t flood_shed = 0;
  std::vector<std::uint8_t> admitted;  // per request
};

/// One request through the gate and the HTTP serving path.
void serve(Rig& rig, const Inputs& inputs, std::size_t i, Spans& spans,
           obs::SpanId parent, Tally& tally) {
  const Request& request = inputs.requests[i];
  const auto& record = request.record;
  auto& server = *rig.honeypots[request.honeypot];
  if (request.flood) ++tally.flood;
  honeypot::NxdHoneypot::ConnOpen open;
  {
    Scope scope(spans, parent, "honeypot.conn_open");
    open = server.conn_open(record.source, record.when, record.dst_port);
    scope.value = open.accepted ? 1 : 0;
  }
  if (!open.accepted) {
    request.flood ? ++tally.flood_shed : ++tally.model_shed;
    return;
  }
  tally.admitted[i] = 1;
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(record.payload.data()),
      record.payload.size());
  const auto before = server.open_connections();
  std::optional<std::vector<std::uint8_t>> reply;
  {
    Scope scope(spans, parent, "honeypot.conn_data");
    reply = server.conn_data(open.id, bytes, record.when);
  }
  if (server.open_connections() == before) {
    // Not a complete request (non-HTTP junk): the peer hangs up and the
    // partial bytes are captured.
    Scope scope(spans, parent, "honeypot.conn_abort");
    server.conn_abort(open.id, record.when);
  }
  if (!request.flood && request.expects_reply && !reply) {
    ++tally.model_unanswered;
  }
}

bool same_record(const honeypot::TrafficRecord& a,
                 const honeypot::TrafficRecord& b) {
  return a.protocol == b.protocol && a.source == b.source &&
         a.dst_port == b.dst_port && a.when == b.when &&
         a.platform == b.platform && a.domain == b.domain &&
         a.payload == b.payload;
}

/// Canonical rendering of the §6 outputs that must not depend on the path.
std::string render(const honeypot::CategoryMatrix& matrix,
                   const honeypot::BotnetAnalysis& botnet) {
  std::string out;
  for (const auto& profile : synth::table1_profiles()) {
    out += profile.domain;
    for (const auto category : honeypot::kAllCategories) {
      out += ' ' + std::to_string(matrix.at(profile.domain, category));
    }
    out += '\n';
  }
  out += "beacons " + std::to_string(botnet.beacons()) + " victims " +
         std::to_string(botnet.distinct_victims()) + '\n';
  return out;
}

/// Reference §6 result: the generator's model records, never served.
std::string reference_findings(const Inputs& inputs) {
  Spans none;
  auto rig = build_rig(inputs, none, {});
  honeypot::BotnetAnalysis botnet(inputs.model.rdns());
  const analysis::SecurityAnalysis security(rig->filter, *rig->categorizer,
                                            botnet);
  const auto report = security.run(inputs.model_records);
  return render(report.matrix, botnet);
}

struct Pass {
  double scale = 1;     // HostSpeed::scale() of the pass
  double kernel_s = 0;  // calibration kernel time around the pass
  double setup_s = 0;
  double wall_s = 0;
  double query_s = 0;
  Tally tally;
  Counts counts;
  Latency latency;  // per request; flood requests excluded
};

/// Fresh set-up, the replay (closed or open loop), then optionally the §6
/// analysis of what was recorded.
Pass run_pass(const Inputs& inputs, const std::string& reference, Spans& spans,
              bool open_loop, bool analyze, Result& result) {
  Pass pass;
  HostSpeed speed(spans, Cpus::This);
  std::unique_ptr<Rig> rig;
  {
    Phase phase(spans, "loadgen.setup");
    rig = build_rig(inputs, spans, phase.id());
    pass.setup_s = phase.elapsed_s();
  }
  const std::size_t n = inputs.requests.size();
  pass.tally.admitted.assign(n, 0);
  {
    Phase phase(spans, open_loop ? "loadgen.open_loop" : "loadgen.closed_loop");
    const auto serve_one = [&](std::size_t i) {
      serve(*rig, inputs, i, spans, phase.id(), pass.tally);
    };
    const auto counted = [&](std::size_t i) { return !inputs.requests[i].flood; };
    pass.latency = open_loop
                       ? run_open_loop(n, kOpenRate, serve_one, counted)
                       : run_closed_loop(n, serve_one, counted);
    pass.wall_s = phase.elapsed_s();
  }

  // Recorded records == the admitted requests, in replay order.
  const auto& recorded = rig->recorder.records();
  std::size_t at = 0;
  bool same = true;
  for (std::size_t i = 0; i < n && same; ++i) {
    if (!pass.tally.admitted[i]) continue;
    same = at < recorded.size() &&
           same_record(recorded[at], inputs.requests[i].record);
    ++at;
  }
  result.check(same && at == recorded.size(),
               "honeypot-http: recorded records differ from the admitted requests");
  pass.tally.admitted = {};

  if (analyze) {
    std::string findings;
    {
      Phase phase(spans, "loadgen.query");
      honeypot::BotnetAnalysis botnet(inputs.model.rdns());
      if (!spans.enabled()) {
        const analysis::SecurityAnalysis security(rig->filter, *rig->categorizer,
                                                  botnet);
        const auto report = security.run(recorded);
        findings = render(report.matrix, botnet);
      } else {
        // The same pipeline as SecurityAnalysis::run, one span per stage call.
        std::vector<honeypot::TrafficRecord> kept;
        {
          Scope scope(spans, phase.id(), "honeypot.filter");
          kept = rig->filter.apply(recorded);
        }
        honeypot::CategoryMatrix matrix;
        for (const auto& record : kept) {
          std::optional<honeypot::HttpRequest> http;
          honeypot::TrafficCategory category = honeypot::TrafficCategory::Other;
          {
            Scope scope(spans, phase.id(), "honeypot.categorize");
            http = record.http();
            if (http) category = rig->categorizer->categorize(*http, record).category;
            matrix.add(record.domain, category);
          }
          if (category == honeypot::TrafficCategory::AutoMaliciousRequest) {
            Scope scope(spans, phase.id(), "honeypot.forensics");
            botnet.ingest(*http, record.source.ip);
          }
        }
        findings = render(matrix, botnet);
      }
      pass.query_s = phase.elapsed_s();
    }
    result.check(findings == reference,
                 "honeypot-http: category matrix differs from categorizing the "
                 "generator's records directly");
  }

  pass.counts = {{"records", rig->recorder.total()},
                 {"model_shed", pass.tally.model_shed},
                 {"model_unanswered", pass.tally.model_unanswered},
                 {"flood", pass.tally.flood},
                 {"flood_shed", pass.tally.flood_shed},
                 {"responses", [&] {
                    std::uint64_t total = 0;
                    for (const auto& server : rig->honeypots) {
                      total += server->http_responses_sent();
                    }
                    return total;
                  }()}};
  {
    Phase phase(spans, "loadgen.teardown");
    Scope scope(spans, phase.id(), "honeypot.teardown");
    rig.reset();
  }
  speed.finish();
  pass.scale = speed.scale();
  pass.kernel_s = speed.kernel_s();
  return pass;
}

}  // namespace

Result run_honeypot_http(const Options& options) {
  Result result;
  const auto inputs = make_inputs(options.seed);
  const std::string reference = reference_findings(*inputs);
  const std::size_t n = inputs->requests.size();
  result.params["open_loop_rate_per_s"] = std::to_string(kOpenRate);
  result.params["requests_per_pass"] = std::to_string(n);
  result.params["model_requests"] = std::to_string(inputs->model_requests);
  result.params["honeypots"] = std::to_string(2 * synth::table1_profiles().size());

  std::vector<Pass> closed, open, traced;
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
      closed.push_back(run_pass(*inputs, reference, none, false, true, result));
    }
    open.push_back(run_pass(*inputs, reference, none, true, true, result));
    round_rss.push_back(peak_rss_mb());
    if (options.trace) {
      obs::SpanTracer tracer(tracer_config);
      Spans spans(&tracer);
      traced.push_back(run_pass(*inputs, reference, spans, false, true, result));
      summaries.push_back(summarize(tracer));
      if (summaries.size() == 1) {
        export_spans(tracer, options.spans_dir + "/spans-honeypot-http.jsonl");
      }
    }
    if (!result.correct || budget.done(open.size())) break;
  }

  const Counts& first = closed.front().counts;
  for (const auto* passes : {&closed, &open, &traced}) {
    for (const auto& pass : *passes) {
      expect_same_counts(result, first, pass.counts, "honeypot-http pass");
    }
  }
  for (const auto* passes : {&closed, &open}) {
    for (const auto& pass : *passes) {
      result.attempted += inputs->model_requests;
      result.failed += pass.tally.model_shed + pass.tally.model_unanswered;
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
  for (const auto* passes : {&closed, &open}) {
    for (const auto& pass : *passes) {
      setup.push_back(pass.setup_s * pass.scale);
      query.push_back(pass.query_s * pass.scale);
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
      log_samples("honeypot-http", name, *values);
    }
    result.set("ops_per_s", central_mean(ops), "1/s");
    result.set("p50_us", central_mean(p50), "us");
    result.set("p99_us", central_mean(p99), "us");
    result.set("query_s", central_mean(query), "s");
    result.set("setup_s", median(setup), "s");
    result.params["latency_samples_per_pass"] = std::to_string(inputs->model_requests);
    return result;
  }

  const auto& t = closed.front().tally;
  result.set("honeypot.records", static_cast<double>(first.at("records")), "count");
  result.set("honeypot.shed", static_cast<double>(t.flood_shed + t.model_shed), "count");
  result.set("honeypot.flood_shed_ratio",
             per(static_cast<double>(t.flood_shed), static_cast<double>(t.flood)),
             "ratio");
  result.set("error_ratio",
             per(static_cast<double>(t.model_shed + t.model_unanswered),
                 static_cast<double>(inputs->model_requests)),
             "ratio");
  const auto med = [&](auto&& fn) {
    std::vector<double> values;
    for (const auto& s : summaries) values.push_back(fn(s));
    return median(values);
  };
  result.set("honeypot.admit_ns_p50", med([](const TraceSummary& s) {
               return median(s.durations("honeypot.conn_open", 1));
             }),
             "ns");
  result.set("honeypot.refuse_ns_p50", med([](const TraceSummary& s) {
               return median(s.durations("honeypot.conn_open", 0));
             }),
             "ns");
  result.set("honeypot.serve_us_p50", med([](const TraceSummary& s) {
               return median(s.durations("honeypot.conn_data")) * 1e-3;
             }),
             "us");
  result.set("honeypot.filter_ms", med([](const TraceSummary& s) {
               return s.total_ns("honeypot.filter") * 1e-6;
             }),
             "ms");
  result.set("honeypot.categorize_ns_per_record", med([](const TraceSummary& s) {
               return per(s.total_ns("honeypot.categorize"),
                          s.count("honeypot.categorize"));
             }),
             "ns");
  result.set("honeypot.forensics_ms", med([](const TraceSummary& s) {
               return s.total_ns("honeypot.forensics") * 1e-6;
             }),
             "ms");
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
                 "honeypot-http: span self times cover " +
                     std::to_string(summary.coverage_pct) +
                     "% of the traced wall time");
  }
  result.params["span_coverage_pct"] =
      std::to_string(summaries.front().coverage_pct);
  for (const char* layer : {"loadgen", "honeypot"}) {
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
