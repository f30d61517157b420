#include "obs/pressure.hpp"

namespace nxd::obs {

const char* to_string(PressureLevel level) noexcept {
  switch (level) {
    case PressureLevel::Normal:
      return "normal";
    case PressureLevel::Elevated:
      return "elevated";
    case PressureLevel::High:
      return "high";
    case PressureLevel::Critical:
      return "critical";
  }
  return "?";
}

void PressureSignal::bind_metrics(MetricsRegistry& registry) {
  counters_.bind(registry);
  level_gauge_ = registry.gauge(
      "nxd_pressure_level", "Current degradation level (0=normal..3=critical)");
  wal_lag_gauge_ = registry.gauge("nxd_pressure_wal_lag_batches",
                                  "Last sampled WAL group-commit lag (batches)");
  checkpoint_debt_gauge_ = registry.gauge(
      "nxd_pressure_checkpoint_debt",
      "Last sampled checkpoint debt (batches + chain length)");
  level_gauge_.set(level_index());
  wal_lag_gauge_.set(static_cast<std::int64_t>(inputs_.wal_lag_batches));
  checkpoint_debt_gauge_.set(
      static_cast<std::int64_t>(inputs_.checkpoint_debt));
}

int PressureSignal::raise_target(const PressureInputs& in) const noexcept {
  int level = 0;
  for (int i = 0; i < 3; ++i) {
    if (in.wal_lag_batches >= thresholds_.wal_lag[i] ||
        in.checkpoint_debt >= thresholds_.checkpoint_debt[i]) {
      level = i + 1;
    }
  }
  return level;
}

int PressureSignal::release_floor(const PressureInputs& in) const noexcept {
  // Hysteresis: holding a level requires an input at or above HALF its
  // raise threshold — dropping below that on every input releases the step.
  int level = 0;
  for (int i = 0; i < 3; ++i) {
    if (in.wal_lag_batches >= thresholds_.wal_lag[i] / 2 ||
        in.checkpoint_debt >= thresholds_.checkpoint_debt[i] / 2) {
      level = i + 1;
    }
  }
  return level;
}

PressureLevel PressureSignal::update(const PressureInputs& inputs,
                                     util::SimTime) {
  inputs_ = inputs;
  counters_.inc<&PressureStats::updates>();
  wal_lag_gauge_.set(static_cast<std::int64_t>(inputs.wal_lag_batches));
  checkpoint_debt_gauge_.set(
      static_cast<std::int64_t>(inputs.checkpoint_debt));

  const int current = level_.load(std::memory_order_relaxed);
  const int target = raise_target(inputs);
  int next = current;
  if (target > current) {
    next = target;
    counters_.inc<&PressureStats::raised>(
        static_cast<std::uint64_t>(target - current));
  } else {
    const int floor = release_floor(inputs);
    if (floor < current) {
      next = floor;
      counters_.inc<&PressureStats::lowered>(
          static_cast<std::uint64_t>(current - floor));
    }
  }
  if (next != current) level_.store(next, std::memory_order_relaxed);
  const int floor = external_floor_.load(std::memory_order_relaxed);
  const int effective = next >= floor ? next : floor;
  level_gauge_.set(effective);
  return static_cast<PressureLevel>(effective);
}

void PressureSignal::set_external_floor(int level) noexcept {
  if (level < 0) level = 0;
  if (level > 3) level = 3;
  external_floor_.store(level, std::memory_order_relaxed);
  level_gauge_.set(level_index());
}

}  // namespace nxd::obs
