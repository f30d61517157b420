#include "common.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <unordered_map>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values[rank - 1];
}

double central_mean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 4;
  double sum = 0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

namespace {
std::atomic<std::uint64_t> kernel_sink{0};  // keeps the kernel's work live
}  // namespace

double time_kernel_s() {
  // Built on first use; the caller's first timing warms caches and the heap.
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> out;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < kKernelKeys; ++i) {
      std::string key;
      const std::size_t length = 8 + i % 23;
      for (std::size_t j = 0; j < length; ++j) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        key += static_cast<char>('a' + x % 26);
      }
      out.push_back(key + ".example.com");
    }
    return out;
  }();
  static const std::vector<std::uint32_t> words = [] {
    std::vector<std::uint32_t> out(std::size_t{1} << 20);  // 4 MiB
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    return out;
  }();
  constexpr std::uint32_t kEmpty = 0xffff'ffff;
  thread_local std::vector<std::uint32_t> table(2 * kKernelKeys);
  const std::hash<std::string_view> hash;
  const std::size_t mask = table.size() - 1;

  const std::int64_t start = now_ns();
  std::uint64_t sum = 0;
  // Open addressing over string hashes: hashing, compares, cache misses.
  std::fill(table.begin(), table.end(), kEmpty);
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    std::size_t slot = hash(keys[i]) & mask;
    while (table[slot] != kEmpty && keys[table[slot]] != keys[i]) {
      slot = (slot + 1) & mask;
    }
    table[slot] = i;
    sum += slot;
  }
  // A node-based map over half the keys: allocation as well.
  {
    std::unordered_map<std::string_view, std::uint32_t> map;
    for (std::uint32_t i = 0; i < keys.size(); i += 2) map.emplace(keys[i], i);
    for (std::uint32_t i = 0; i < keys.size(); i += 6) sum += map.at(keys[i]);
  }
  // Integer keys read at random from a 4 MiB array into a node-based map.
  {
    std::unordered_map<std::uint32_t, std::uint32_t> map;
    for (std::uint32_t i = 0; i < 50'000; ++i) {
      map[words[(i * 7919u) & (words.size() - 1)] & 0xf'ffff] += i;
    }
    sum += map.size();
  }
  // Small-string churn: allocate, move and free.
  {
    std::vector<std::string> strings;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 40'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      strings.emplace_back(20 + x % 20, static_cast<char>('a' + x % 26));
      if (x % 3 == 0) {
        std::swap(strings[x % strings.size()], strings.back());
        strings.pop_back();
      }
    }
    sum += strings.size();
  }
  kernel_sink.store(sum, std::memory_order_relaxed);
  return seconds_since(start);
}

double time_kernel_every_cpu_s() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return time_kernel_s();
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  std::vector<double> seconds(cpus.size());
  std::atomic<std::size_t> ready{0};
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      threads.emplace_back([&, i] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i], &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
        ready.fetch_add(1);
        while (ready.load() < cpus.size()) {  // start together
        }
        seconds[i] = time_kernel_s();
      });
    }
  }
  double sum = 0;
  for (const double s : seconds) sum += s;
  return sum / static_cast<double>(seconds.size());
}

void log_samples(std::string_view workload, std::string_view metric,
                 const std::vector<double>& values) {
  std::string line = "perfbench samples " + std::string(workload) + " " +
                     std::string(metric) + ":";
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof(buf), " %.6g", v);
    line += buf;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

namespace {

std::string_view layer_of(std::string_view name) {
  const auto dot = name.find('.');
  return dot == std::string_view::npos ? name : name.substr(0, dot);
}

}  // namespace

std::int64_t TraceSummary::total_ns(std::string_view name) const {
  for (const auto& stage : report.stages) {
    if (stage.name == name) return stage.total;
  }
  return 0;
}

std::uint64_t TraceSummary::count(std::string_view name) const {
  for (const auto& stage : report.stages) {
    if (stage.name == name) return stage.count;
  }
  return 0;
}

std::int64_t TraceSummary::layer_self_ns(std::string_view layer) const {
  std::int64_t total = 0;
  for (const auto& stage : report.stages) {
    if (layer_of(stage.name) == layer) total += stage.self;
  }
  return total;
}

std::vector<double> TraceSummary::durations(std::string_view name) const {
  std::vector<double> out;
  for (const auto& span : spans) {
    if (span.name == name) out.push_back(static_cast<double>(span.duration()));
  }
  return out;
}

std::vector<double> TraceSummary::durations(std::string_view name,
                                            std::int64_t value) const {
  std::vector<double> out;
  for (const auto& span : spans) {
    if (span.name == name && span.value == value) {
      out.push_back(static_cast<double>(span.duration()));
    }
  }
  return out;
}

TraceSummary summarize(const obs::SpanTracer& tracer) {
  TraceSummary summary;
  summary.spans = tracer.finished();
  summary.report = obs::aggregate_spans(summary.spans);
  std::int64_t first = std::numeric_limits<std::int64_t>::max();
  std::int64_t last = std::numeric_limits<std::int64_t>::min();
  for (const auto& span : summary.spans) {
    if (span.parent_id != 0) continue;
    first = std::min(first, span.start);
    last = std::max(last, span.end);
  }
  std::int64_t self = 0;
  for (const auto& stage : summary.report.stages) self += stage.self;
  if (last > first) {
    summary.wall_s = static_cast<double>(last - first) * 1e-9;
    summary.coverage_pct =
        100.0 * static_cast<double>(self) / static_cast<double>(last - first);
  }
  return summary;
}

void export_spans(const obs::SpanTracer& tracer, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << tracer.to_jsonl();
}

void expect_same_counts(Result& result, const Counts& first,
                        const Counts& again, const std::string& what) {
  for (const auto& [name, value] : first) {
    const auto it = again.find(name);
    const bool same = it != again.end() && it->second == value;
    result.check(same, "determinism: " + what + " count '" + name + "' was " +
                           std::to_string(value) + ", then " +
                           (it == again.end() ? std::string("missing")
                                              : std::to_string(it->second)));
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // Linux >= 4.0
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
