//===- perfbench/src/Bench.h - Pieces shared by the benchmark workloads ---===//
//
// Part of the CUDAAdvisor reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vocabulary of the pipeline benchmark: a workload runs set-up and
/// timed passes, checks every unit of work it does (an application of a
/// pipeline pass, one daemon request) and reports metrics with units.
/// Deterministic work counters are pinned in perfbench/pins.json and
/// must repeat exactly; wall times are only reported.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "core/analysis/ProfileArtifact.h"
#include "core/profiler/KernelProfile.h"
#include "support/JSON.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

namespace support = cuadv::support;
using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Nearest-rank quantile \p Q of \p V (0 when empty); the median of an
/// even count averages the middle two.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// The highest quantile no higher than \p Wanted that still has at least
/// ten samples above it (never below the median).
double tailQuantile(size_t Samples, double Wanted);

/// Pass/fail bookkeeping. A unit is one application of a pipeline pass,
/// one artifact check, or one daemon request; it fails when any of its
/// checks fails, and every failed check prints one line on stderr.
class Checks {
public:
  /// Returns \p Cond; prints \p What on stderr when it is false.
  bool require(bool Cond, const std::string &What);
  /// Counts one finished unit.
  void unit(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Deterministic work counters of a unit or a pass. They depend only on
/// the simulated programs, never on the seed, the host or the host
/// thread count.
struct WorkCounters {
  uint64_t WarpInsts = 0;
  uint64_t SimCycles = 0;
  uint64_t HookEvents = 0;
  uint64_t EventsRetained = 0;
  /// Bytes the retained trace records hold, by vector capacity (see
  /// retainedBytes).
  uint64_t RetainedBytes = 0;
  uint64_t Dropped = 0;
  uint64_t CacheHits = 0;

  WorkCounters &operator+=(const WorkCounters &O);
  bool operator==(const WorkCounters &O) const = default;
  support::JsonValue toJson() const;
  static WorkCounters fromJson(const support::JsonValue &V);
  /// The counters an artifact's workload section records (no retained
  /// bytes: the artifact does not carry them).
  static WorkCounters fromProfile(const cuadv::core::WorkloadProfile &W);
};

/// Heap bytes one launch's trace records retain:
///   MemEvents.capacity()   * sizeof(MemEventRec)
/// + sum over MemEvents of Lanes.capacity() * sizeof(LaneAddr)
/// + BlockEvents.capacity() * sizeof(BlockEventRec)
/// + ArithEvents.capacity() * sizeof(ArithEventRec)
uint64_t retainedBytes(const cuadv::core::KernelProfile &P);

/// Pinned counters of one workload, keyed by unit name ("bfs",
/// "template:saxpy", "pass"). check() compares an observation with the
/// pin and with every earlier observation of the same unit in this run.
class Pins {
public:
  /// Loads the pins of \p Workload from \p Path. With \p Emit set, a
  /// missing pin is not an error and observations are collected for
  /// writing instead.
  bool load(const std::string &Path, const std::string &Workload, bool Emit,
            std::string &Error);
  bool check(const std::string &Unit, const WorkCounters &Got, Checks &C);
  /// The first observation of every unit, as a pins.json section.
  support::JsonValue observed() const;

private:
  std::map<std::string, WorkCounters> Expected;
  std::map<std::string, WorkCounters> Observed;
  bool Emit = false;
};

/// Metrics in print order, each with its unit.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);
  /// {"<name>": {"value": v, "unit": u}, ...}
  support::JsonValue toJson() const;
  /// One "name value unit" line per metric.
  std::string text() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
};

/// What one timed pass measured.
struct PassResult {
  double Seconds = 0;         ///< Timed wall time of the pass.
  std::vector<double> UnitMs; ///< Latency of every unit in the pass.
};

/// What every workload gets from the driver.
struct Context {
  const support::JsonValue &Inputs; ///< The generator's document.
  std::string Root;                 ///< Repository root.
  std::string WorkDir;              ///< Scratch space for sockets, caches.
  Pins &Pinned;
  cuadv::core::ProfileArtifact Baseline; ///< bench/baselines/workloads.json
};

class Workload {
public:
  virtual ~Workload() = default;
  /// How often the driver repeats set-up; the last one stays in place
  /// for the passes.
  virtual unsigned setupRepeats() const = 0;
  /// False on an error that makes measuring pointless (printed already).
  virtual bool setup(Checks &C) = 0;
  virtual unsigned maxPasses() const { return 1000; }
  virtual PassResult pass(unsigned Index, bool Traced, Checks &C) = 0;
  /// Whether peak_rss_mb covers every pass, as for a long-lived server,
  /// or only set-up and the first pass, as one cuadvisor sweep sees it.
  virtual bool rssOverRun() const { return false; }
  /// Human-readable end-to-end figures beyond the common ones.
  virtual void summary(Report &R) const { (void)R; }
  /// Per-layer metrics (names from layerMetricNames()) over the
  /// \p TracedPasses traced passes.
  virtual void layers(std::map<std::string, double> &Out,
                      unsigned TracedPasses) const = 0;
};

std::unique_ptr<Workload> makePipelineWorkload(const std::string &Name,
                                               Context &Ctx);
std::unique_ptr<Workload> makeDaemonWorkload(Context &Ctx);

/// The per-layer metric names every workload reports, with units;
/// layers that do no work on a workload report 0.
const std::vector<std::pair<std::string, std::string>> &layerMetricNames();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
