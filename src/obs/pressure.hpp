// System-wide degradation ladder: a shared pressure signal derived from
// ingest durability debt, consumed by the serving edges.
//
// The failure mode this prevents: the durable store's group-commit WAL lags
// or its checkpoint chain grows without bound while the front-ends keep
// admitting full load — queues blow up and the system fails at the edges,
// all at once.  Instead, WAL lag and checkpoint debt (DurableStore::
// pressure_inputs) feed a small ladder of pressure levels; ConnectionGate
// and ResponseRateLimiter read the current level and tighten admission
// *proportionally and early*, so backpressure flows ingest -> serving.
//
// Deterministic: levels move only inside update(), driven by explicit
// inputs and integer thresholds.  Raising is immediate; lowering requires
// every input to fall below half its raise threshold (hysteresis), so a
// load oscillating around a boundary cannot flap the ladder.  level() is a
// relaxed atomic read — serving threads consult it on their hot path while
// an ingest-side thread updates.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"
#include "util/civil_time.hpp"

namespace nxd::obs {

enum class PressureLevel : int { Normal = 0, Elevated = 1, High = 2, Critical = 3 };

const char* to_string(PressureLevel level) noexcept;

/// Raw inputs, sampled from the durable ingest path.
struct PressureInputs {
  /// Batches submitted to the group-commit WAL but not yet decided
  /// (queue depth + in-flight commit group).
  std::uint64_t wal_lag_batches = 0;
  /// Batches applied since the last delta checkpoint, plus the delta-chain
  /// length a recovery would have to replay through.
  std::uint64_t checkpoint_debt = 0;

  friend bool operator==(const PressureInputs&, const PressureInputs&) = default;
};

struct PressureThresholds {
  /// Level i+1 engages while ANY input is >= its raise[i].
  std::array<std::uint64_t, 3> wal_lag{16, 64, 256};
  std::array<std::uint64_t, 3> checkpoint_debt{64, 256, 1024};
};

struct PressureStats {
  std::uint64_t raised = 0;   ///< level steps climbed (sum of step sizes)
  std::uint64_t lowered = 0;  ///< level steps released
  std::uint64_t updates = 0;

  friend bool operator==(const PressureStats&, const PressureStats&) = default;
};

/// Every PressureStats counter and the registry series mirroring it.
inline constexpr CounterSpec<PressureStats> kPressureCounters[] = {
    {&PressureStats::raised, "nxd_pressure_raised_total",
     "Degradation-ladder level steps climbed"},
    {&PressureStats::lowered, "nxd_pressure_lowered_total",
     "Degradation-ladder level steps released"},
    {&PressureStats::updates, "nxd_pressure_updates_total",
     "Pressure-signal input samples"},
};

class PressureSignal {
 public:
  explicit PressureSignal(PressureThresholds thresholds = {})
      : thresholds_(thresholds) {}

  /// Feed fresh inputs; returns the (possibly changed) level.  Single
  /// producer: call from one thread (the ingest/metrics pump).
  PressureLevel update(const PressureInputs& inputs, util::SimTime now);

  /// Lock-free read for serving hot paths.  The effective level is the max
  /// of the ladder level and the external floor.
  PressureLevel level() const noexcept {
    return static_cast<PressureLevel>(level_index());
  }
  int level_index() const noexcept {
    const int ladder = level_.load(std::memory_order_relaxed);
    const int floor = external_floor_.load(std::memory_order_relaxed);
    return ladder >= floor ? ladder : floor;
  }

  /// Anomaly-driven minimum level: a detected NXDomain flood pins the
  /// effective level at `level` so RRL and connection gates tighten even
  /// while the ingest ladder itself is healthy.  0 clears; clamped to [0,3].
  /// Raise/lower step counters track only the ladder, not the floor.
  void set_external_floor(int level) noexcept;
  int external_floor() const noexcept {
    return external_floor_.load(std::memory_order_relaxed);
  }

  /// Shed fraction ladder shared by every consumer: at level L, capacities
  /// are scaled by (4-L)/4 — 100%, 75%, 50%, 25%.  Integer math, never 0
  /// when `value` > 0 (a Critical system still serves a trickle).
  static std::int64_t scale_capacity(std::int64_t value, int level) noexcept {
    if (level <= 0 || value <= 0) return value;
    const int l = level > 3 ? 3 : level;
    const std::int64_t scaled = value * (4 - l) / 4;
    return scaled > 0 ? scaled : 1;
  }

  /// Token cost multiplier for rate limiters: 1x, 4/3x, 2x, 4x — the
  /// reciprocal of scale_capacity's fraction.
  static double cost_multiplier(int level) noexcept {
    switch (level <= 0 ? 0 : (level > 3 ? 3 : level)) {
      case 1:
        return 4.0 / 3.0;
      case 2:
        return 2.0;
      case 3:
        return 4.0;
      default:
        return 1.0;
    }
  }

  const PressureInputs& inputs() const noexcept { return inputs_; }
  PressureStats stats() const noexcept { return counters_.stats(); }
  const PressureThresholds& thresholds() const noexcept { return thresholds_; }

  /// Mirror counters/gauges into a shared registry (values carry over).
  void bind_metrics(MetricsRegistry& registry);

 private:
  int raise_target(const PressureInputs& inputs) const noexcept;
  int release_floor(const PressureInputs& inputs) const noexcept;

  PressureThresholds thresholds_;
  std::atomic<int> level_{0};
  std::atomic<int> external_floor_{0};
  PressureInputs inputs_;

  StatsCounters<PressureStats, kPressureCounters> counters_;
  // Null until bind_metrics().
  Gauge level_gauge_;
  Gauge wal_lag_gauge_;
  Gauge checkpoint_debt_gauge_;
};

}  // namespace nxd::obs
