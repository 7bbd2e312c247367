//===- perfbench/src/Pipeline.cpp - The cuadvisor pipeline workloads ------===//
//
// Part of the CUDAAdvisor reproduction project.
//
//===----------------------------------------------------------------------===//
//
// profile-exact, profile-sampled-par and simulate-clean: one pass visits
// the ten applications in the seeded order and drives each through the
// same public calls `cuadvisor --mode profile` makes (compile,
// instrument, decode, simulate under the profiler, build the workload
// profile, serialize the artifact), or, for simulate-clean, the
// uninstrumented compile, decode and validated run.
//
// Traced passes additionally attribute, outside the pass clock, the
// time of buildWorkloadProfile to the analyses it calls (each called
// again on the same profiles) and the time of the profiled run to
// interpretation versus hook delivery (a clean re-simulation of the
// same application on the same device).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "core/analysis/Advisor.h"
#include "core/analysis/BranchDivergence.h"
#include "core/analysis/CycleAccounting.h"
#include "core/analysis/Inspection.h"
#include "core/analysis/MemoryDivergence.h"
#include "core/analysis/ObjectHeat.h"
#include "core/analysis/ProfileDiff.h"
#include "core/analysis/Reports.h"
#include "core/analysis/ReuseDistance.h"
#include "core/analysis/Sampling.h"
#include "core/analysis/SharedMemory.h"
#include "core/analysis/StaticModel.h"
#include "core/instrument/InstrumentationEngine.h"
#include "core/profiler/Profiler.h"
#include "gpusim/Program.h"
#include "ir/analysis/Uniformity.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <thread>

using namespace perfbench;
using namespace cuadv;

namespace {

enum class Mode { ProfileExact, ProfileSampled, SimulateClean };

/// One run of an application; owns everything the analyses reference,
/// in the ownership order cuadvisor's own driver uses.
struct AppRun {
  ir::Context Ctx;
  std::unique_ptr<ir::Module> M;
  core::InstrumentationInfo Info;
  std::unique_ptr<gpusim::Program> Prog;
  std::unique_ptr<runtime::Runtime> RT;
  core::Profiler Prof;
  workloads::RunOutcome Outcome;
  double SimulateMs = 0;
};

WorkCounters countWork(const AppRun &App) {
  WorkCounters C;
  for (const gpusim::KernelStats &S : App.Outcome.Launches) {
    C.WarpInsts += S.WarpInstructions;
    C.SimCycles += S.Cycles;
    C.HookEvents += S.HookInvocations;
  }
  for (const auto &P : App.Prof.profiles()) {
    C.EventsRetained += P->retainedEvents();
    C.RetainedBytes += retainedBytes(*P);
    C.Dropped += P->Backpressure.DroppedEvents;
  }
  return C;
}

/// Compiles \p W into \p App (uninstrumented). False with \p Error.
bool compileApp(const workloads::Workload &W, AppRun &App,
                const char *SpanName, std::string &Error) {
  ScopedSpan S(SpanName, W.Name);
  frontend::CompileResult R = workloads::compileWorkload(W, App.Ctx);
  if (!R.succeeded()) {
    Error = R.firstError(W.SourceFile);
    return false;
  }
  App.M = std::move(R.M);
  return true;
}

class PipelineWorkload final : public Workload {
public:
  PipelineWorkload(Mode K, Context &Ctx) : K(K), Ctx(Ctx) {}

  unsigned setupRepeats() const override { return 15; }
  bool setup(Checks &C) override;
  PassResult pass(unsigned Index, bool Traced, Checks &C) override;
  void layers(std::map<std::string, double> &Out,
              unsigned TracedPasses) const override;

private:
  bool profiles() const { return K != Mode::SimulateClean; }
  /// Runs one application through the pipeline, timed; null on a
  /// compile failure (reported through \p C).
  std::unique_ptr<AppRun> runApp(const workloads::Workload &W, Checks &C);
  /// Traced passes only: attributes the profiled run and the profile
  /// build of \p App to their layers.
  void attribute(const workloads::Workload &W, AppRun &App, uint64_t Unit);
  void checkArtifact(const std::string &Bytes, Checks &C);

  Mode K;
  Context &Ctx;
  gpusim::DeviceSpec Spec;
  std::vector<const workloads::Workload *> Order;

  /// Deterministic per-pass totals (identical in every pass).
  WorkCounters PassWork;
  uint64_t PassSites = 0;
  uint64_t PassArtifactBytes = 0;
  /// Clean warp instructions re-simulated by the traced passes.
  uint64_t CleanWarpInsts = 0;
};

bool PipelineWorkload::setup(Checks &C) {
  if (!gpusim::DeviceSpec::benchPreset("kepler16", Spec)) {
    C.require(false, "unknown device preset kepler16");
    return false;
  }
  Spec.Jobs = 1;
  if (K == Mode::ProfileSampled) {
    // Two SM workers, not four: with a worker per core of a shared host
    // the pass time follows the neighbours' load.
    Spec.Jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
    std::string Why;
    if (!gpusim::SamplingSpec::parse("warp:32", Spec.Sampling, Why)) {
      C.require(false, "sampling spec: " + Why);
      return false;
    }
  }
  Order.clear();
  const support::JsonValue *Apps = Ctx.Inputs.find("app_order");
  if (!C.require(Apps && Apps->size() == workloads::allWorkloads().size(),
                 "inputs: app_order must list every application"))
    return false;
  for (size_t I = 0; I < Apps->size(); ++I) {
    const workloads::Workload *W =
        workloads::findWorkload(Apps->at(I).asString());
    if (!C.require(W != nullptr, "inputs: unknown app " +
                                     Apps->at(I).asString()))
      return false;
    Order.push_back(W);
  }
  // Warm-up: every program compiled and decoded once, so first-touch
  // costs land here and not in the first pass.
  for (const workloads::Workload *W : Order) {
    AppRun App;
    std::string Error;
    bool Compiled = compileApp(*W, App, "setup.compile", Error);
    if (!C.require(Compiled, Error))
      return false;
    App.Prog = gpusim::Program::compile(*App.M);
  }
  return true;
}

std::unique_ptr<AppRun> PipelineWorkload::runApp(const workloads::Workload &W,
                                                 Checks &C) {
  auto App = std::make_unique<AppRun>();
  std::string Error;
  bool Compiled = compileApp(W, *App, "frontend.compile", Error);
  if (!C.require(Compiled, Error))
    return nullptr;
  if (profiles()) {
    ScopedSpan S("instrument.run", W.Name);
    core::InstrumentationConfig Cfg = core::InstrumentationConfig::full();
    Cfg.GlobalMemoryOnly = false;
    App->Info = core::InstrumentationEngine(Cfg).run(*App->M);
  }
  {
    ScopedSpan S("gpusim.decode", W.Name);
    App->Prog = gpusim::Program::compile(*App->M);
  }
  // The profiled run is interpretation plus hook delivery and trace
  // replay; a clean run is interpretation alone.
  ScopedSpan S(profiles() ? "profiler.run" : "gpusim.simulate", W.Name);
  App->RT = std::make_unique<runtime::Runtime>(Spec);
  if (profiles()) {
    App->Prof.attach(*App->RT);
    App->Prof.setInstrumentationInfo(&App->Info);
    App->Prof.setSamplingSpec(Spec.Sampling);
  }
  App->Outcome = W.Run(*App->RT, *App->Prog, {});
  App->SimulateMs = S.elapsedMs();
  return App;
}

void PipelineWorkload::attribute(const workloads::Workload &W, AppRun &App,
                                 uint64_t Unit) {
  ScopedSpan Root("attribution", W.Name, Unit);
  const auto &Profiles = App.Prof.profiles();
  const unsigned Line = Spec.L1LineBytes;
  {
    ScopedSpan S("analysis.rd", W.Name);
    for (const auto &P : Profiles)
      core::analyzeReuseDistance(*P, {});
  }
  {
    ScopedSpan S("analysis.md", W.Name);
    for (const auto &P : Profiles)
      core::analyzeMemoryDivergence(*P, Line);
  }
  std::unique_ptr<ir::analysis::ModuleUniformity> MU;
  {
    ScopedSpan S("static.uniformity", W.Name);
    MU = std::make_unique<ir::analysis::ModuleUniformity>(*App.M);
  }
  {
    ScopedSpan S("analysis.bd", W.Name);
    for (const auto &P : Profiles) {
      core::analyzeBranchDivergence(*P);
      core::compareStaticDivergence(*App.M, *MU, *P);
    }
  }
  {
    ScopedSpan S("analysis.bank", W.Name);
    for (const auto &P : Profiles)
      core::analyzeBankConflicts(*P);
  }
  {
    ScopedSpan S("analysis.bypass", W.Name);
    core::adviseBypassForRun(App.Prof, Spec, W.WarpsPerCTA);
  }
  {
    ScopedSpan S("analysis.heat", W.Name);
    core::computeObjectHeat(App.Prof, Line);
  }
  core::WorkloadProfile Scratch;
  {
    ScopedSpan S("analysis.cycles", W.Name);
    core::appendCycleAccounting(Scratch, App.Prof);
  }
  {
    ScopedSpan S("static.model", W.Name);
    core::appendStaticModel(Scratch, *App.M,
                            core::deriveLaunchFacts(*App.M, App.Prof));
  }
  {
    ScopedSpan S("analysis.sampling", W.Name);
    core::appendSamplingSection(Scratch, App.Prof, Spec);
  }
  {
    ScopedSpan S("analysis.inspect", W.Name);
    core::runInspections({App.Prof, *App.M, Spec, W.WarpsPerCTA});
  }

  // The same application, uninstrumented, on the same device and
  // worker count.
  AppRun Clean;
  std::string Error;
  if (!compileApp(W, Clean, "clean.compile", Error))
    return; // The profiled compile of the same source succeeded.
  Clean.Prog = gpusim::Program::compile(*Clean.M);
  gpusim::DeviceSpec CleanSpec = Spec;
  CleanSpec.Sampling = gpusim::SamplingSpec();
  ScopedSpan S("gpusim.simulate", W.Name);
  Clean.RT = std::make_unique<runtime::Runtime>(CleanSpec);
  Clean.Outcome = W.Run(*Clean.RT, *Clean.Prog, {});
  CleanWarpInsts += countWork(Clean).WarpInsts;
}

void PipelineWorkload::checkArtifact(const std::string &Bytes, Checks &C) {
  core::ProfileArtifact Parsed;
  std::string Error;
  bool Ok = false;
  {
    ScopedSpan S("artifact.parse");
    support::JsonValue Doc;
    Ok = support::parseJson(Bytes, Doc, Error) &&
         core::artifactFromJson(Doc, Parsed, Error);
  }
  Ok = C.require(Ok, "artifact does not parse back: " + Error);
  if (Ok && K == Mode::ProfileExact) {
    core::DiffResult D =
        core::diffArtifacts(Ctx.Baseline, Parsed, core::DiffOptions());
    for (const std::string &Why : D.GateReasons)
      C.require(false, "baseline diff: " + Why);
    Ok = C.require(!D.GateFailed && Parsed.Workloads.size() == Order.size(),
                   "artifact differs from bench/baselines/workloads.json");
  } else if (Ok) {
    core::SamplingBoundsResult B =
        core::checkSamplingBounds(Ctx.Baseline, Parsed, {});
    for (const std::string &Why : B.GateReasons)
      C.require(false, "sampling bounds: " + Why);
    Ok = C.require(!B.GateFailed && B.AppsChecked == Order.size(),
                   "sampled estimates outside their declared bounds");
  }
  C.unit(Ok);
}

PassResult PipelineWorkload::pass(unsigned Index, bool Traced, Checks &C) {
  PassResult R;
  ScopedSpan PassSpan("pass", std::to_string(Index));
  core::ProfileArtifact Artifact;
  Artifact.Preset = "kepler16";
  WorkCounters Work;
  uint64_t Sites = 0;
  double TimedMs = 0;
  for (const workloads::Workload *W : Order) {
    std::unique_ptr<AppRun> App;
    double UnitMs = 0;
    uint64_t Unit = ScopedSpan::newUnit();
    {
      ScopedSpan U("app", W->Name, Unit);
      App = runApp(*W, C);
      if (App && profiles()) {
        ScopedSpan S("analysis.build_profile", W->Name);
        core::WorkloadProfileInputs In{App->Prof,
                                       *App->M,
                                       Spec,
                                       W->WarpsPerCTA,
                                       &App->RT->faultLog(),
                                       &App->RT->counters(),
                                       App->SimulateMs};
        Artifact.Workloads.push_back(core::buildWorkloadProfile(W->Name, In));
      }
      UnitMs = U.elapsedMs();
    }
    if (!App) {
      C.unit(false);
      continue;
    }
    // Untimed: checks and, on traced passes, attribution.
    bool Ok = C.require(App->Outcome.Ok, std::string(W->Name) + ": " +
                                             App->Outcome.Message);
    Ok &= C.require(App->RT->faultLog().empty(),
                    std::string(W->Name) + ": guest fault");
    WorkCounters AppWork = countWork(*App);
    Ok &= Ctx.Pinned.check(W->Name, AppWork, C);
    C.unit(Ok);
    Work += AppWork;
    Sites += App->Info.Sites.size();
    if (Traced && profiles())
      attribute(*W, *App, Unit);
    {
      ScopedSpan S("profiler.release", W->Name, Unit);
      App.reset();
      UnitMs += S.elapsedMs();
    }
    TimedMs += UnitMs;
    R.UnitMs.push_back(UnitMs);
  }
  if (profiles()) {
    std::string Bytes;
    {
      ScopedSpan S("artifact.serialize");
      Bytes = support::writeJson(core::artifactToJson(Artifact));
      TimedMs += S.elapsedMs();
    }
    PassArtifactBytes = Bytes.size();
    checkArtifact(Bytes, C);
  }
  PassWork = Work;
  PassSites = Sites;
  R.Seconds = TimedMs / 1000.0;
  return R;
}

void PipelineWorkload::layers(std::map<std::string, double> &Out,
                              unsigned TracedPasses) const {
  std::map<std::string, double> Self = SpanLog::global().selfMs();
  const double T = TracedPasses ? double(TracedPasses) : 1.0;
  auto PerPass = [&](const std::string &Span) { return Self[Span] / T; };
  Out["frontend.compile_ms"] = PerPass("frontend.compile");
  Out["instrument.run_ms"] = PerPass("instrument.run");
  Out["instrument.sites"] = double(PassSites);
  Out["gpusim.decode_ms"] = PerPass("gpusim.decode");
  double SimMs = PerPass("gpusim.simulate");
  Out["gpusim.simulate_ms"] = SimMs;
  Out["gpusim.warp_insts"] = double(PassWork.WarpInsts);
  Out["gpusim.sim_cycles"] = double(PassWork.SimCycles);
  double CleanInsts =
      profiles() ? double(CleanWarpInsts) / T : double(PassWork.WarpInsts);
  Out["gpusim.ns_per_winst"] = CleanInsts ? SimMs * 1e6 / CleanInsts : 0;
  for (const workloads::Workload *W : Order) {
    Out[std::string("gpusim.simulate_ms.") + W->Name] =
        PerPass(std::string("gpusim.simulate.") + W->Name);
    Out[std::string("analysis.build_profile_ms.") + W->Name] =
        PerPass(std::string("analysis.build_profile.") + W->Name);
  }
  if (!profiles())
    return;

  double HookMs = PerPass("profiler.run") - SimMs;
  Out["profiler.hook_events"] = double(PassWork.HookEvents);
  Out["profiler.hook_ms"] = HookMs;
  Out["profiler.ns_per_hook_event"] =
      PassWork.HookEvents ? HookMs * 1e6 / double(PassWork.HookEvents) : 0;
  Out["profiler.events_retained"] = double(PassWork.EventsRetained);
  Out["profiler.retained_mb"] = double(PassWork.RetainedBytes) / (1 << 20);
  Out["profiler.bytes_per_event"] =
      PassWork.EventsRetained ? double(PassWork.RetainedBytes) /
                                    double(PassWork.EventsRetained)
                              : 0;
  Out["profiler.dropped"] = double(PassWork.Dropped);
  Out["profiler.release_ms"] = PerPass("profiler.release");

  double BuildMs = PerPass("analysis.build_profile");
  Out["analysis.build_profile_ms"] = BuildMs;
  double Attributed = 0;
  for (const char *A : {"rd", "md", "bd", "bank", "bypass", "heat", "cycles",
                        "sampling", "inspect"}) {
    double Ms = PerPass(std::string("analysis.") + A);
    Out[std::string("analysis.") + A + "_ms"] = Ms;
    Attributed += Ms;
  }
  Out["static.uniformity_ms"] = PerPass("static.uniformity");
  Out["static.model_ms"] = PerPass("static.model");
  Attributed += Out["static.uniformity_ms"] + Out["static.model_ms"];
  Out["analysis.unattributed_ms"] = BuildMs - Attributed;
  Out["analysis.ns_per_event"] =
      PassWork.EventsRetained
          ? BuildMs * 1e6 / double(PassWork.EventsRetained)
          : 0;
  Out["artifact.serialize_ms"] = PerPass("artifact.serialize");
  Out["artifact.parse_ms"] = PerPass("artifact.parse");
  Out["artifact.bytes"] = double(PassArtifactBytes);
}

} // namespace

std::unique_ptr<Workload>
perfbench::makePipelineWorkload(const std::string &Name, Context &Ctx) {
  if (Name == "profile-exact")
    return std::make_unique<PipelineWorkload>(Mode::ProfileExact, Ctx);
  if (Name == "profile-sampled-par")
    return std::make_unique<PipelineWorkload>(Mode::ProfileSampled, Ctx);
  if (Name == "simulate-clean")
    return std::make_unique<PipelineWorkload>(Mode::SimulateClean, Ctx);
  return nullptr;
}
