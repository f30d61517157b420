// perfbench: one workload per process, one load-generating thread.
//
//   perfbench --workload <sie-ingest|resolve-nx|honeypot-http> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> --spans-dir <dir>
//             [--commit <id>]
//
// Prints a metadata line, then as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (a layer the workload does no work in reports 0).  Exits 1
// when a correctness gate failed, 2 on a usage or internal error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef NXD_PERFBENCH_BUILD_TYPE
#define NXD_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"}, {"p50_us", "us"}, {"p99_us", "us"},
    {"query_s", "s"},     {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"pdns.decode_ns_per_obs", "ns"},
    {"pdns.route_ns_per_obs", "ns"},
    {"pdns.store_ingest_ns_per_obs", "ns"},
    {"pdns.wal_append_ns_per_obs", "ns"},
    {"pdns.wal_fsync_ns_per_obs", "ns"},
    {"pdns.apply_ns_per_obs", "ns"},
    {"pdns.checkpoint_ns_per_obs", "ns"},
    {"pdns.batches_per_fsync", "ratio"},
    {"pdns.intern_hits", "count"},
    {"pdns.intern_hit_ratio", "ratio"},
    {"pdns.disk_bytes_per_obs", "B"},
    {"pdns.deltas", "count"},
    {"pdns.compactions", "count"},
    {"pdns.replayed_batches", "count"},
    {"pdns.materialize_ms", "ms"},
    {"recover_s", "s"},
    {"analysis.scale_ms", "ms"},
    {"dga.classify_ns_per_name", "ns"},
    {"squat.detect_ns_per_name", "ns"},
    {"resolver.cache_hits", "count"},
    {"resolver.cache_hit_ratio", "ratio"},
    {"resolver.negative_hit_ratio", "ratio"},
    {"resolver.negative_evictions", "count"},
    {"resolver.hit_us_p50", "us"},
    {"resolver.neg_hit_us_p50", "us"},
    {"resolver.miss_us_p50", "us"},
    {"resolver.retries_per_query", "ratio"},
    {"resolver.timeouts", "count"},
    {"resolver.hedged_per_query", "ratio"},
    {"resolver.breaker_skips", "count"},
    {"resolver.upstream_sends", "count"},
    {"upstream_per_query", "ratio"},
    {"dns.encode_ns", "ns"},
    {"dns.decode_ns", "ns"},
    {"net.delivered", "count"},
    {"net.dropped", "count"},
    {"honeypot.admit_ns_p50", "ns"},
    {"honeypot.refuse_ns_p50", "ns"},
    {"honeypot.serve_us_p50", "us"},
    {"honeypot.flood_shed_ratio", "ratio"},
    {"honeypot.shed", "count"},
    {"honeypot.records", "count"},
    {"honeypot.filter_ms", "ms"},
    {"honeypot.categorize_ns_per_record", "ns"},
    {"honeypot.forensics_ms", "ms"},
    {"error_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
    {"obs.trace_overhead_pct", "%"},
    {"loadgen.open_p50_us", "us"},
    {"loadgen.open_p99_us", "us"},
    {"loadgen.late_us_p99", "us"},
    {"loadgen.kernel_us", "us"},
    {"loadgen.self_pct", "%"},
    {"pdns.self_pct", "%"},
    {"analysis.self_pct", "%"},
    {"dga.self_pct", "%"},
    {"squat.self_pct", "%"},
    {"resolver.self_pct", "%"},
    {"dns.self_pct", "%"},
    {"net.self_pct", "%"},
    {"honeypot.self_pct", "%"},
};

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<sie-ingest|resolve-nx|honeypot-http> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> --spans-dir <dir> "
               "[--commit <id>]\n",
               why);
  return 2;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  std::string trace_flag;
  std::string seconds_flag;
  std::string seed_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") seed_flag = value;
    else if (flag == "--seconds") seconds_flag = value;
    else if (flag == "--trace") trace_flag = value;
    else if (flag == "--work-dir") options.work_dir = value;
    else if (flag == "--spans-dir") options.spans_dir = value;
    else if (flag == "--commit") commit = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  char* end = nullptr;
  options.seed = std::strtoull(seed_flag.c_str(), &end, 10);
  if (seed_flag.empty() || *end != '\0') return usage("--seed wants an integer");
  options.seconds = std::strtod(seconds_flag.c_str(), &end);
  if (seconds_flag.empty() || *end != '\0' || !(options.seconds > 0) ||
      options.seconds > 120) {
    return usage("--seconds wants a number in (0, 120]");
  }
  if (trace_flag != "0" && trace_flag != "1") return usage("--trace wants 0 or 1");
  options.trace = trace_flag == "1";
  if (options.work_dir.empty() || options.spans_dir.empty()) {
    return usage("--work-dir and --spans-dir are required");
  }

  Result result;
  try {
    if (options.workload == "sie-ingest") {
      result = perfbench::run_sie_ingest(options);
    } else if (options.workload == "resolve-nx") {
      result = perfbench::run_resolve_nx(options);
    } else if (options.workload == "honeypot-http") {
      result = perfbench::run_honeypot_http(options);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 2;
  }

  // Metadata line: hardware, build and run parameters.
  std::string meta = "{\"perfbench_meta\": {";
  meta += "\"workload\": " + json_string(options.workload);
  meta += ", \"seed\": " + std::to_string(options.seed);
  meta += ", \"seconds\": " + json_number(options.seconds);
  meta += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  meta += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  meta += ", \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency());
  meta += ", \"build_type\": " + json_string(NXD_PERFBENCH_BUILD_TYPE);
  meta += ", \"optimized\": " + std::string(optimized_build() ? "true" : "false");
  meta += ", \"compiler\": " + json_string(compiler());
  meta += ", \"commit\": " + json_string(commit);
  for (const auto& [key, value] : result.params) {
    meta += ", " + json_string(key) + ": " + json_string(value);
  }
  meta += "}}";
  std::printf("%s\n", meta.c_str());
  if (!optimized_build()) {
    std::fprintf(stderr, "perfbench: WARNING: this build is not optimized; "
                         "its timings are not comparable\n");
  }

  std::string metrics;
  bool complete = true;
  const auto emit = [&](const MetricSpec& spec, bool required) {
    const auto it = result.metrics.find(spec.name);
    double value = 0;
    if (it != result.metrics.end()) {
      value = it->second.value;
    } else if (required) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", spec.name);
      complete = false;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", spec.name);
      complete = false;
      value = 0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(spec.name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(spec.unit) + "}";
  };
  if (options.trace) {
    for (const auto& spec : kPerLayer) emit(spec, false);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec, true);
  }
  if (!complete) return 2;

  for (const auto& problem : result.problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
