//===- perfbench/src/Report.cpp - Checks, counters, pins and metrics ------===//

#include "Bench.h"

#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace perfbench;
using cuadv::support::JsonValue;

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  if (Q == 0.5 && V.size() % 2 == 0)
    return (V[V.size() / 2 - 1] + V[V.size() / 2]) / 2;
  size_t Rank = size_t(std::ceil(Q * double(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double perfbench::tailQuantile(size_t Samples, double Wanted) {
  for (double Q : {0.99, 0.95, 0.9, 0.75})
    if (Q <= Wanted && (1 - Q) * double(Samples) >= 10)
      return Q;
  return 0.5;
}

bool Checks::require(bool Cond, const std::string &What) {
  if (!Cond)
    std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
  return Cond;
}

//===----------------------------------------------------------------------===//
// Work counters and pins
//===----------------------------------------------------------------------===//

namespace {

/// The counters in their pins.json spelling.
const std::pair<const char *, uint64_t WorkCounters::*> CounterFields[] = {
    {"warp_insts", &WorkCounters::WarpInsts},
    {"sim_cycles", &WorkCounters::SimCycles},
    {"hook_events", &WorkCounters::HookEvents},
    {"events_retained", &WorkCounters::EventsRetained},
    {"retained_bytes", &WorkCounters::RetainedBytes},
    {"dropped", &WorkCounters::Dropped},
    {"cache_hits", &WorkCounters::CacheHits},
};

uint64_t metricU64(const cuadv::core::WorkloadProfile &W, const char *Name) {
  const cuadv::core::ProfileMetric *M = W.findMetric(Name);
  return M ? uint64_t(M->Value.asInteger()) : 0;
}

} // namespace

WorkCounters &WorkCounters::operator+=(const WorkCounters &O) {
  for (const auto &[Name, Field] : CounterFields)
    this->*Field += O.*Field;
  return *this;
}

JsonValue WorkCounters::toJson() const {
  JsonValue V = JsonValue::object();
  for (const auto &[Name, Field] : CounterFields)
    if (this->*Field) // Absent counters read back as zero.
      V.set(Name, JsonValue(int64_t(this->*Field)));
  return V;
}

WorkCounters WorkCounters::fromJson(const JsonValue &V) {
  WorkCounters C;
  for (const auto &[Name, Field] : CounterFields)
    if (const JsonValue *F = V.find(Name))
      C.*Field = uint64_t(F->asInteger());
  return C;
}

WorkCounters
WorkCounters::fromProfile(const cuadv::core::WorkloadProfile &W) {
  WorkCounters C;
  C.WarpInsts = metricU64(W, "sim.warp_instructions");
  C.SimCycles = metricU64(W, "sim.cycles");
  C.HookEvents = metricU64(W, "profiler.hook_invocations");
  C.Dropped = metricU64(W, "backpressure.dropped");
  C.EventsRetained = metricU64(W, "backpressure.offered") - C.Dropped;
  return C;
}

uint64_t perfbench::retainedBytes(const cuadv::core::KernelProfile &P) {
  using namespace cuadv::core;
  uint64_t Bytes = P.MemEvents.capacity() * sizeof(MemEventRec) +
                   P.BlockEvents.capacity() * sizeof(BlockEventRec) +
                   P.ArithEvents.capacity() * sizeof(ArithEventRec);
  for (const MemEventRec &E : P.MemEvents)
    Bytes += E.Lanes.capacity() * sizeof(LaneAddr);
  return Bytes;
}

bool Pins::load(const std::string &Path, const std::string &Workload,
                bool EmitMode, std::string &Error) {
  Emit = EmitMode;
  std::ifstream IS(Path, std::ios::binary);
  if (!IS) {
    Error = "cannot read pins '" + Path + "'";
    return Emit;
  }
  std::stringstream SS;
  SS << IS.rdbuf();
  JsonValue Doc;
  if (!cuadv::support::parseJson(SS.str(), Doc, Error)) {
    Error = Path + ": " + Error;
    return false;
  }
  if (const JsonValue *Section = Doc.find(Workload))
    for (const auto &[Unit, V] : Section->members())
      Expected[Unit] = WorkCounters::fromJson(V);
  return true;
}

bool Pins::check(const std::string &Unit, const WorkCounters &Got,
                 Checks &C) {
  bool Ok = true;
  auto Prev = Observed.find(Unit);
  if (Prev == Observed.end())
    Observed.emplace(Unit, Got);
  else
    Ok &= C.require(Prev->second == Got,
                    Unit + ": work counters changed between passes: " +
                        cuadv::support::writeJson(Got.toJson()));
  auto Pin = Expected.find(Unit);
  if (Pin != Expected.end())
    Ok &= C.require(Pin->second == Got,
                    Unit + ": work counters " +
                        cuadv::support::writeJson(Got.toJson()) +
                        " differ from the pinned " +
                        cuadv::support::writeJson(Pin->second.toJson()));
  else if (!Emit)
    Ok &= C.require(false, Unit + ": no pinned work counters");
  return Ok;
}

JsonValue Pins::observed() const {
  JsonValue Doc = JsonValue::object();
  for (const auto &[Unit, C] : Observed)
    Doc.set(Unit, C.toJson());
  return Doc;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

void Report::add(const std::string &Name, double Value,
                 const std::string &Unit) {
  Metrics.push_back({Name, Value, Unit});
}

JsonValue Report::toJson() const {
  JsonValue Doc = JsonValue::object();
  for (const Metric &M : Metrics) {
    JsonValue V = JsonValue::object();
    V.set("value", JsonValue(M.Value));
    V.set("unit", JsonValue(M.Unit));
    Doc.set(M.Name, std::move(V));
  }
  return Doc;
}

std::string Report::text() const {
  std::string Out;
  char Buf[256];
  for (const Metric &M : Metrics) {
    std::snprintf(Buf, sizeof(Buf), "  %-34s %14.6g %s\n", M.Name.c_str(),
                  M.Value, M.Unit.c_str());
    Out += Buf;
  }
  return Out;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::layerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = [] {
    std::vector<std::pair<std::string, std::string>> N = {
        {"frontend.compile_ms", "ms"},
        {"instrument.run_ms", "ms"},
        {"instrument.sites", "count"},
        {"gpusim.decode_ms", "ms"},
        {"gpusim.simulate_ms", "ms"},
        {"gpusim.warp_insts", "count"},
        {"gpusim.sim_cycles", "count"},
        {"gpusim.ns_per_winst", "ns"},
        {"profiler.hook_events", "count"},
        {"profiler.hook_ms", "ms"},
        {"profiler.ns_per_hook_event", "ns"},
        {"profiler.events_retained", "count"},
        {"profiler.retained_mb", "MB"},
        {"profiler.bytes_per_event", "B"},
        {"profiler.dropped", "count"},
        {"profiler.release_ms", "ms"},
        {"analysis.build_profile_ms", "ms"},
        {"analysis.rd_ms", "ms"},
        {"analysis.md_ms", "ms"},
        {"analysis.bd_ms", "ms"},
        {"analysis.bank_ms", "ms"},
        {"analysis.bypass_ms", "ms"},
        {"analysis.heat_ms", "ms"},
        {"analysis.cycles_ms", "ms"},
        {"analysis.sampling_ms", "ms"},
        {"analysis.inspect_ms", "ms"},
        {"analysis.unattributed_ms", "ms"},
        {"analysis.ns_per_event", "ns"},
        {"static.uniformity_ms", "ms"},
        {"static.model_ms", "ms"},
        {"artifact.serialize_ms", "ms"},
        {"artifact.parse_ms", "ms"},
        {"artifact.bytes", "B"},
        {"server.rtt_hit_ms", "ms"},
        {"server.rtt_miss_ms", "ms"},
        {"server.runner_hit_ms", "ms"},
        {"server.runner_miss_ms", "ms"},
        {"server.transport_ms", "ms"},
        {"server.lookup_ms", "ms"},
        {"server.hit_ratio", "ratio"},
        {"server.cache_hits", "count"},
        {"server.rejected", "count"},
        {"server.retries", "count"},
        {"server.jobs_per_s", "1/s"},
        {"server.hit_ms_tail", "ms"},
        {"server.miss_ms_tail", "ms"},
        {"trace.overhead_pct", "%"},
    };
    for (const cuadv::workloads::Workload &W :
         cuadv::workloads::allWorkloads()) {
      N.push_back({std::string("gpusim.simulate_ms.") + W.Name, "ms"});
      N.push_back({std::string("analysis.build_profile_ms.") + W.Name, "ms"});
    }
    return N;
  }();
  return Names;
}
