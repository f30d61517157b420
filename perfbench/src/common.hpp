// Shared plumbing for the perfbench workloads: options, the steady clock,
// benchmark-side span scopes, order statistics, and the result record
// printed as the last line of a run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dga/classifier.hpp"
#include "obs/span.hpp"
#include "squat/detector.hpp"
#include "synth/origin_model.hpp"

namespace perfbench {

namespace obs = nxd::obs;
using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout for durable-store files; run.py
  /// creates it and removes it afterwards.
  std::string work_dir;
  /// Where traced runs export their spans as JSONL.
  std::string spans_dir;
};

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Spans the benchmark records around its calls into the program's layers,
/// timestamped in steady-clock nanoseconds.  Built over a null tracer the
/// untraced run pays one branch per call site and never reads the clock.
///
/// Naming: every span is "<layer>.<call>", where <layer> is a src/ module
/// name; top-level spans are "loadgen.<phase>", so their self time is the
/// benchmark's own overhead.
class Spans {
 public:
  explicit Spans(obs::SpanTracer* tracer = nullptr) : tracer_(tracer) {}

  bool enabled() const noexcept { return tracer_ != nullptr; }

  obs::SpanId root(std::string_view name) {
    if (tracer_ == nullptr) return {};
    return tracer_->trace_root(next_key_++, name, now_ns());
  }
  obs::SpanId begin(obs::SpanId parent, std::string_view name) {
    if (tracer_ == nullptr) return {};
    return tracer_->begin(parent, name, now_ns());
  }
  void end(obs::SpanId id, std::int64_t value = 0) {
    if (tracer_ == nullptr) return;
    tracer_->end(id, now_ns(), value);
  }

 private:
  obs::SpanTracer* tracer_;
  std::uint64_t next_key_ = 1;
};

/// One child span for the lifetime of the scope; `value` is stored on it.
class Scope {
 public:
  Scope(Spans& spans, obs::SpanId parent, std::string_view name)
      : spans_(spans), id_(spans.begin(parent, name)) {}
  ~Scope() { spans_.end(id_, value); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  obs::SpanId id() const noexcept { return id_; }
  std::int64_t value = 0;

 private:
  Spans& spans_;
  obs::SpanId id_;
};

/// What one traced pass yields once its spans are aggregated.
struct TraceSummary {
  std::vector<obs::SpanRecord> spans;
  obs::CriticalPathReport report;
  /// Wall time from the first top-level span's start to the last one's end.
  double wall_s = 0;
  /// Sum of self time over every span, as a share of wall_s (percent).
  double coverage_pct = 0;

  /// Total duration (ns) and count of spans named `name`.
  std::int64_t total_ns(std::string_view name) const;
  std::uint64_t count(std::string_view name) const;
  /// Sum of self time (ns) over spans whose layer prefix is `layer`.
  std::int64_t layer_self_ns(std::string_view layer) const;
  /// Durations (ns) of spans named `name`, optionally only those whose
  /// stored value equals `value`.
  std::vector<double> durations(std::string_view name) const;
  std::vector<double> durations(std::string_view name,
                                std::int64_t value) const;
};

/// Aggregate everything the tracer holds.  Callers size the ring to hold a
/// whole traced pass; dropped spans would show as coverage below 100%.
TraceSummary summarize(const obs::SpanTracer& tracer);

/// Write the tracer's spans as JSONL (the `nxdtool spans` input format).
void export_spans(const obs::SpanTracer& tracer, const std::string& path);

struct Metric {
  double value = 0;
  std::string unit;
};

/// One run's verdict and measurements.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;
  /// Run parameters echoed into the metadata line (rates, shard count...).
  std::map<std::string, std::string> params;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// A failed correctness gate: the run reports correct=false and exits
  /// non-zero.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

using Counts = std::map<std::string, std::uint64_t>;

/// Determinism gate: the deterministic counts of two same-seed executions
/// of a workload must match exactly.
void expect_same_counts(Result& result, const Counts& first,
                        const Counts& again, const std::string& what);

/// Resident-memory high-water mark of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Start a new high-water mark: hand freed heap pages back to the kernel,
/// then reset VmHWM to the current resident size, so each round's peak is
/// measured on its own rather than as the worst of however many rounds ran.
void reset_peak_rss();

/// Total size of the regular files under `dir`.
std::uint64_t directory_bytes(const std::string& dir);

/// Paces a run's rounds: a run stops once it has `min_rounds` rounds and
/// one more round as long as the last would overrun `seconds`.
class Budget {
 public:
  Budget(double seconds, std::size_t min_rounds)
      : seconds_(seconds), min_rounds_(min_rounds), start_(now_ns()),
        round_start_(start_) {}

  /// Call after each round with the number of rounds done so far.
  bool done(std::size_t rounds) {
    const std::int64_t now = now_ns();
    const double last = static_cast<double>(now - round_start_) * 1e-9;
    round_start_ = now;
    return rounds >= min_rounds_ &&
           static_cast<double>(now - start_) * 1e-9 + last > seconds_;
  }

 private:
  double seconds_;
  std::size_t min_rounds_;
  std::int64_t start_;
  std::int64_t round_start_;
};

/// numerator / denominator, 0 when the denominator is 0.
inline double per(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

/// Mean of the middle half of a sample (the interquartile mean).  A round
/// that met a host stall is dropped like an outlier, but unlike the median
/// it blends the remaining rounds, so a host whose speed shifts during a run
/// moves the result smoothly instead of flipping it between two levels.
double central_mean(std::vector<double> values);

/// Host speed.  The benchmark shares its host with other tenants, whose load
/// can slow this process by 1.5-2x for seconds to minutes at a time, so raw
/// times of the same code differ by that much between runs.  Every timed
/// pass is therefore bracketed by a fixed calibration kernel — string keys
/// hashed into an open-addressing table and a node-based map, integer keys
/// read at random from a 4 MiB array into another map, and small-string
/// churn: hashing, compares, allocation and cache misses, as on the
/// program's hot paths — and the pass's times are scaled to a host on which
/// the kernel takes kReferenceKernelS.  The kernel is benchmark code that
/// calls nothing in src/, so a change to the program moves the scaled times
/// exactly as it moves the raw ones.
constexpr std::size_t kKernelKeys = 32'768;  // a power of two
constexpr double kReferenceKernelS = 0.008;
/// The kernel run on every CPU at once; the copies share caches and memory,
/// so each takes longer than one alone.
constexpr double kReferenceEveryCpuKernelS = 0.016;

/// Time one run of the calibration kernel on this thread, in seconds.
double time_kernel_s();

/// Run the kernel at once on every CPU this process may use, one thread
/// pinned to each; the mean of their times, in seconds.
double time_kernel_every_cpu_s();

/// Which CPUs' speed a pass depends on.  Other tenants slow each core by
/// its own amount (over a minute, one core of the 4-vCPU VM this benchmark
/// was built on ran the same hash-map loop 1.4-2.6x slower than another),
/// so a pass run by one thread is scaled by the kernel on that thread, and
/// a pass whose work runs on the program's background threads by the mean
/// over all CPUs.
enum class Cpus { This, Every };

/// Brackets one timed pass with the calibration kernel; a traced pass
/// records each kernel timing as a "loadgen.calibrate" span.
class HostSpeed {
 public:
  HostSpeed(Spans& spans, Cpus cpus)
      : spans_(spans), cpus_(cpus), before_s_(time()),
        kernel_s_(before_s_) {}

  /// Time the kernel again at the end of the pass.  A time measured in the
  /// pass, multiplied by scale(), is the time on the reference host; a rate
  /// is divided by it.
  void finish() { kernel_s_ = 0.5 * (before_s_ + time()); }
  double scale() const {
    return (cpus_ == Cpus::Every ? kReferenceEveryCpuKernelS
                                 : kReferenceKernelS) /
           kernel_s_;
  }
  double kernel_s() const { return kernel_s_; }

 private:
  double time() {
    const obs::SpanId id = spans_.root("loadgen.calibrate");
    const double seconds =
        cpus_ == Cpus::Every ? time_kernel_every_cpu_s() : time_kernel_s();
    spans_.end(id);
    return seconds;
  }

  Spans& spans_;
  Cpus cpus_;
  double before_s_;
  double kernel_s_;
};

/// Print a run's per-pass samples of one metric on standard error, one
/// line per metric, so a noisy figure can be traced to the passes behind it.
void log_samples(std::string_view workload, std::string_view metric,
                 const std::vector<double>& values);

/// Latency summary of one pass.
struct Latency {
  double p50_us = 0;
  double p99_us = 0;
  double late_p99_us = 0;  // open loop: how late the generator started requests
};

/// Closed loop: serve every request back to back, timing each one.
/// `counted(i)` selects the requests whose latency is reported.
template <class Serve, class Counted>
Latency run_closed_loop(std::size_t n, Serve&& serve, Counted&& counted) {
  std::vector<double> latency;
  latency.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t start = now_ns();
    serve(i);
    if (counted(i)) latency.push_back(static_cast<double>(now_ns() - start) * 1e-3);
  }
  return Latency{quantile(latency, 0.50), quantile(latency, 0.99), 0};
}

/// Open loop: request i is due at start + i / rate_per_s; `serve(i)` runs
/// once it is due (a busy wait, so the generator itself adds no sleep
/// jitter) and its latency runs from the due time.
template <class Serve, class Counted>
Latency run_open_loop(std::size_t n, double rate_per_s, Serve&& serve,
                      Counted&& counted) {
  std::vector<double> latency;
  std::vector<double> late;
  latency.reserve(n);
  late.reserve(n);
  const double interval_ns = 1e9 / rate_per_s;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const auto due =
        start + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
    std::int64_t t = now_ns();
    while (t < due) t = now_ns();
    late.push_back(static_cast<double>(t - due) * 1e-3);
    serve(i);
    if (counted(i)) latency.push_back(static_cast<double>(now_ns() - due) * 1e-3);
  }
  return Latency{quantile(latency, 0.50), quantile(latency, 0.99),
                 quantile(late, 0.99)};
}

/// Top-level phase: a "loadgen.<phase>" root span plus its wall time.
class Phase {
 public:
  Phase(Spans& spans, std::string_view name)
      : spans_(spans), id_(spans.root(name)), start_(now_ns()) {}
  ~Phase() { spans_.end(id_); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  obs::SpanId id() const noexcept { return id_; }
  double elapsed_s() const { return seconds_since(start_); }

 private:
  Spans& spans_;
  obs::SpanId id_;
  std::int64_t start_;
};

/// The §5 classifiers: the trained DGA model the paper pipeline uses and the
/// default squatting targets.  Built once per run, outside timing.
struct Analyzers {
  nxd::dga::DgaClassifier classifier = nxd::synth::trained_dga_classifier();
  nxd::squat::SquatDetector detector = nxd::squat::SquatDetector::with_defaults();
};

Result run_sie_ingest(const Options& options);
Result run_resolve_nx(const Options& options);
Result run_honeypot_http(const Options& options);

}  // namespace perfbench
