//===- perfbench/src/Daemon.cpp - The cuadvisord traffic-mix workload -----===//
//
// Part of the CUDAAdvisor reproduction project.
//
//===----------------------------------------------------------------------===//
//
// daemon-mix: an in-process cuadvisord (server::Server, 2 workers) on a
// unix socket under the work directory, driven by a closed loop of one
// client thread through server::submitWithRetry. Set-up starts the
// server and stores every hot job in its cache; a pass then sends the
// generator's seeded stream of about nine cache hits per miss. One
// client keeps a pass the sum of its requests' latencies: with two, the
// pass time hung on which slow misses overlapped and on how the host
// scheduled the extra threads, and spread by up to a quarter between
// runs.
//
// Checks: every response arrives; ok jobs of built-in applications
// match the pinned baseline (exact jobs by diff, sampled jobs within
// their declared bounds); every hit is byte-identical to the miss that
// stored it; source kernels and whole passes repeat their pinned work
// counters; fault demos return their expected error codes.
//
// Traced passes then send the same requests, one at a time, straight
// to a server::JobRunner over a copy of the warmed cache, so that the
// round trip splits into runner time and transport (queueing, protocol,
// socket), and time the compile, cache lookup and artifact JSON steps
// of each request on their own.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "core/analysis/ProfileDiff.h"
#include "server/Client.h"
#include "server/JobRunner.h"
#include "server/Server.h"
#include "workloads/Workloads.h"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace cuadv;
namespace fs = std::filesystem;

namespace {

constexpr unsigned Clients = 1;
constexpr unsigned Workers = 2;

struct Job {
  bool Hot = false;          ///< Stored by set-up; a hit in every pass.
  size_t HotIndex = 0;
  std::string Expect;        ///< "ok" or the expected error code.
  std::string Check;         ///< "app", "fault" or "template:<name>".
  std::string Label;         ///< App or kernel name, for messages.
  std::string Text;          ///< The request as sent.
  server::JobRequest Req;
};

struct Sent {
  const Job *J = nullptr;
  double RttMs = 0;
  uint64_t Unit = 0;
  server::SubmitResult S;
};

class DaemonWorkload final : public Workload {
public:
  explicit DaemonWorkload(Context &Ctx) : Ctx(Ctx) {}
  ~DaemonWorkload() override { teardown(); }

  unsigned setupRepeats() const override { return 3; }
  bool setup(Checks &C) override;
  unsigned maxPasses() const override { return unsigned(Passes.size()); }
  PassResult pass(unsigned Index, bool Traced, Checks &C) override;
  bool rssOverRun() const override { return true; }
  void summary(Report &R) const override;
  void layers(std::map<std::string, double> &Out,
              unsigned TracedPasses) const override;

private:
  struct PassJobs {
    std::vector<Job> Fresh;
    std::vector<std::pair<char, size_t>> Order; ///< ('h'|'m'|'f', index)
  };

  bool parseInputs(Checks &C);
  std::vector<Sent> submitAll(const std::vector<const Job *> &Jobs) const;
  /// Checks one response; adds its work counters to \p Work.
  bool checkResponse(const Sent &X, bool Warm, WorkCounters &Work,
                     Checks &C);
  void attribute(const std::vector<Sent> &All);
  void teardown();

  Context &Ctx;
  std::vector<Job> Hot, Fixed;
  std::vector<PassJobs> Passes;
  std::vector<std::string> WarmBytes; ///< Per hot job, as first stored.
  std::vector<WorkCounters> WarmWork;

  std::string Dir;
  std::string Socket;
  unsigned Setups = 0;
  std::unique_ptr<server::Server> Srv;
  std::unique_ptr<server::ArtifactCache> DirectCache;
  std::unique_ptr<server::JobRunner> Direct;

  // Untraced passes.
  std::vector<double> HitMs, MissMs;
  double MeasuredS = 0;
  uint64_t MeasuredJobs = 0;
  uint64_t Retries = 0;
  // Traced passes.
  std::vector<double> TracedHitMs, TracedMissMs, RunnerHitMs, RunnerMissMs,
      TransportMs, LookupMs;
  uint64_t TracedJobs = 0, TracedHits = 0, TracedArtifactBytes = 0;
  WorkCounters PassWork;
};

bool parseJob(const support::JsonValue &V, Job &J, Checks &C) {
  const support::JsonValue *Req = V.find("request");
  const support::JsonValue *Expect = V.find("expect");
  const support::JsonValue *Check = V.find("check");
  if (!C.require(Req && Expect && Check, "inputs: malformed daemon job"))
    return false;
  J.Expect = Expect->asString();
  J.Check = Check->asString();
  J.Text = support::writeJson(*Req);
  std::string Code, Message;
  bool Parsed = server::parseJobRequest(J.Text, J.Req, Code, Message);
  if (!C.require(Parsed, "inputs: request rejected: " + Message))
    return false;
  J.Label = J.Req.App.empty() ? J.Req.Source.Kernel : J.Req.App;
  if (!J.Req.Sample.empty())
    J.Label += "@" + J.Req.Sample;
  return true;
}

bool DaemonWorkload::parseInputs(Checks &C) {
  const support::JsonValue *D = Ctx.Inputs.find("daemon");
  if (!C.require(D && D->find("hot") && D->find("fixed") &&
                     D->find("passes"),
                 "inputs: no daemon request stream"))
    return false;
  auto ParseList = [&](const support::JsonValue &L, std::vector<Job> &Out) {
    Out.assign(L.size(), Job());
    for (size_t I = 0; I < L.size(); ++I)
      if (!parseJob(L.at(I), Out[I], C))
        return false;
    return true;
  };
  if (!ParseList(*D->find("hot"), Hot) || !ParseList(*D->find("fixed"), Fixed))
    return false;
  for (size_t I = 0; I < Hot.size(); ++I) {
    Hot[I].Hot = true;
    Hot[I].HotIndex = I;
  }
  const support::JsonValue &PassList = *D->find("passes");
  Passes.assign(PassList.size(), PassJobs());
  for (size_t P = 0; P < PassList.size(); ++P) {
    const support::JsonValue *Fresh = PassList.at(P).find("fresh");
    const support::JsonValue *Order = PassList.at(P).find("order");
    if (!C.require(Fresh && Order, "inputs: malformed daemon pass") ||
        !ParseList(*Fresh, Passes[P].Fresh))
      return false;
    for (size_t I = 0; I < Order->size(); ++I) {
      const std::string &Tok = Order->at(I).asString();
      size_t N = Tok.size() > 1 ? std::strtoul(Tok.c_str() + 1, nullptr, 10)
                                : ~size_t(0);
      size_t Limit = Tok[0] == 'h'   ? Hot.size()
                     : Tok[0] == 'm' ? Fixed.size()
                     : Tok[0] == 'f' ? Passes[P].Fresh.size()
                                     : 0;
      if (!C.require(N < Limit, "inputs: bad request reference " + Tok))
        return false;
      Passes[P].Order.push_back({Tok[0], N});
    }
  }
  return true;
}

void DaemonWorkload::teardown() {
  if (Srv)
    Srv->stop();
  Srv.reset();
  Direct.reset();
  DirectCache.reset();
  if (!Dir.empty()) {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
}

bool DaemonWorkload::setup(Checks &C) {
  teardown();
  Dir = Ctx.WorkDir + "/daemon-" + std::to_string(long(::getpid())) + "-" +
        std::to_string(Setups++);
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);
  if (!C.require(!EC, "cannot create " + Dir) || !parseInputs(C))
    return false;

  server::ServerOptions Opts;
  Opts.SocketPath = Socket = Dir + "/d.sock";
  Opts.CacheDir = Dir + "/cache";
  Opts.Workers = Workers;
  Srv = std::make_unique<server::Server>(Opts);
  std::string Error;
  bool Started = Srv->start(Error);
  if (!C.require(Started, "server start: " + Error))
    return false;

  // Store every hot job; each must be a checked miss now.
  std::vector<const Job *> Jobs;
  for (const Job &J : Hot)
    Jobs.push_back(&J);
  WarmBytes.assign(Hot.size(), std::string());
  WarmWork.assign(Hot.size(), WorkCounters());
  WorkCounters Unused;
  bool Ok = true;
  for (const Sent &X : submitAll(Jobs))
    Ok &= checkResponse(X, /*Warm=*/true, Unused, C);
  return Ok;
}

std::vector<Sent>
DaemonWorkload::submitAll(const std::vector<const Job *> &Jobs) const {
  std::vector<Sent> Out(Jobs.size());
  std::atomic<size_t> Next{0};
  {
    std::vector<std::jthread> Pool;
    for (unsigned I = 0; I < Clients; ++I)
      Pool.emplace_back([&] {
        for (size_t N = Next.fetch_add(1); N < Jobs.size();
             N = Next.fetch_add(1)) {
          const Job &J = *Jobs[N];
          ScopedSpan S("server.request", J.Hot ? "hit" : "miss",
                       ScopedSpan::newUnit());
          Out[N].J = &J;
          Out[N].S = server::submitWithRetry(Socket, J.Text);
          Out[N].RttMs = S.elapsedMs();
          Out[N].Unit = S.unit();
        }
      });
  } // Joins every client.
  return Out;
}

bool DaemonWorkload::checkResponse(const Sent &X, bool Warm,
                                   WorkCounters &Work, Checks &C) {
  const Job &J = *X.J;
  const std::string What = J.Label + " (" + (J.Hot ? "hot" : "miss") + ")";
  bool Ok = C.require(X.S.TransportOk, What + ": transport: " + X.S.Error);
  if (!Ok) {
    C.unit(false);
    return false;
  }
  const server::JobResponse &R = X.S.Response;
  if (J.Expect == "ok")
    Ok &= C.require(R.ok(), What + ": " + R.Status + " " + R.ErrorCode +
                                " " + R.ErrorMessage);
  else
    Ok &= C.require(R.Status == "error" && R.ErrorCode == J.Expect,
                    What + ": expected error " + J.Expect + ", got " +
                        R.Status + " " + R.ErrorCode);
  bool WantHit = J.Hot && !Warm;
  Ok &= C.require(R.CacheHit == WantHit,
                  What + (WantHit ? ": cache miss" : ": unexpected hit"));
  Ok &= C.require(R.HasArtifact, What + ": no artifact");
  if (!Ok) {
    C.unit(false);
    return false;
  }
  Work.CacheHits += R.CacheHit ? 1 : 0;
  if (WantHit) {
    Ok = C.require(support::writeJson(R.Artifact) == WarmBytes[J.HotIndex],
                   What + ": hit differs from the miss that stored it");
    Work += WarmWork[J.HotIndex];
    C.unit(Ok);
    return Ok;
  }

  core::ProfileArtifact A;
  std::string Error;
  Ok = core::artifactFromJson(R.Artifact, A, Error) &&
       A.Workloads.size() == 1;
  Ok = C.require(Ok, What + ": bad artifact: " + Error);
  if (Ok) {
    WorkCounters Got = WorkCounters::fromProfile(A.Workloads.front());
    Work += Got;
    if (J.Check == "app" && J.Req.Sample.empty()) {
      // The daemon bounds every job's trace buffer, so it counts offered
      // events where cuadvisor's unbounded buffer leaves the count at 0.
      // With nothing dropped, everything else must match exactly.
      Ok &= C.require(Got.Dropped == 0, What + ": trace events dropped");
      for (core::ProfileMetric &M : A.Workloads.front().Metrics)
        if (M.Name == "backpressure.offered")
          M.Value = support::JsonValue(int64_t(0));
      core::DiffOptions O;
      O.Apps = {J.Req.App};
      core::DiffResult D = core::diffArtifacts(Ctx.Baseline, A, O);
      for (const std::string &Why : D.GateReasons)
        C.require(false, What + ": baseline diff: " + Why);
      Ok &= !D.GateFailed;
    } else if (J.Check == "app") {
      core::SamplingBoundsResult B =
          core::checkSamplingBounds(Ctx.Baseline, A, {});
      for (const std::string &Why : B.GateReasons)
        C.require(false, What + ": sampling bounds: " + Why);
      Ok &= C.require(!B.GateFailed && B.AppsChecked == 1,
                      What + ": sampled estimates out of bounds");
    } else if (J.Check.rfind("template:", 0) == 0) {
      Ok &= Ctx.Pinned.check(J.Check, Got, C);
    }
    if (Warm) {
      WarmBytes[J.HotIndex] = support::writeJson(R.Artifact);
      WarmWork[J.HotIndex] = Got;
    }
  }
  C.unit(Ok);
  return Ok;
}

PassResult DaemonWorkload::pass(unsigned Index, bool Traced, Checks &C) {
  PassJobs &P = Passes[Index];
  std::vector<const Job *> Jobs;
  for (const auto &[Kind, N] : P.Order)
    Jobs.push_back(Kind == 'h' ? &Hot[N]
                   : Kind == 'm' ? &Fixed[N]
                                 : &P.Fresh[N]);
  PassResult R;
  auto Start = Clock::now();
  std::vector<Sent> All = submitAll(Jobs);
  R.Seconds = msSince(Start) / 1000.0;

  WorkCounters Work;
  for (const Sent &X : All) {
    checkResponse(X, /*Warm=*/false, Work, C);
    R.UnitMs.push_back(X.RttMs);
    Retries += X.S.Attempts ? X.S.Attempts - 1 : 0;
    bool Hit = X.S.TransportOk && X.S.Response.CacheHit;
    if (!Traced)
      (Hit ? HitMs : MissMs).push_back(X.RttMs);
  }
  C.unit(Ctx.Pinned.check("pass", Work, C));
  PassWork = Work;
  if (Traced) {
    attribute(All);
  } else {
    MeasuredS += R.Seconds;
    MeasuredJobs += All.size();
  }
  return R;
}

void DaemonWorkload::attribute(const std::vector<Sent> &All) {
  if (!Direct) {
    std::error_code EC;
    fs::copy(Dir + "/cache", Dir + "/direct-cache",
             fs::copy_options::recursive, EC);
    DirectCache =
        std::make_unique<server::ArtifactCache>(Dir + "/direct-cache");
    Direct = std::make_unique<server::JobRunner>(Srv->options().Job,
                                                 *DirectCache);
  }
  for (const Sent &X : All) {
    const Job &J = *X.J;
    bool Hit = X.S.TransportOk && X.S.Response.CacheHit;
    ++TracedJobs;
    TracedHits += Hit ? 1 : 0;
    (Hit ? TracedHitMs : TracedMissMs).push_back(X.RttMs);

    ScopedSpan Root("attribution", J.Label, X.Unit);
    {
      ScopedSpan S("frontend.compile", J.Label);
      ir::Context IrCtx;
      if (const workloads::Workload *W = workloads::findWorkload(J.Req.App))
        workloads::compileWorkload(*W, IrCtx);
      else
        frontend::compileMiniCuda(J.Req.Source.Code, J.Req.Source.FileName,
                                  IrCtx);
    }
    server::JobResponse R;
    {
      ScopedSpan S("server.runner", Hit ? "hit" : "miss");
      R = Direct->run(J.Req);
      double Ms = S.elapsedMs();
      (Hit ? RunnerHitMs : RunnerMissMs).push_back(Ms);
      TransportMs.push_back(X.RttMs - Ms);
    }
    if (R.CacheHit) {
      ScopedSpan S("server.lookup", J.Label);
      std::string Bytes;
      DirectCache->lookup(R.CacheKey, Bytes);
      LookupMs.push_back(S.elapsedMs());
    }
    if (R.HasArtifact) {
      std::string Bytes;
      {
        ScopedSpan S("artifact.serialize", J.Label);
        Bytes = support::writeJson(R.Artifact);
      }
      {
        ScopedSpan S("artifact.parse", J.Label);
        support::JsonValue Doc;
        std::string Error;
        support::parseJson(Bytes, Doc, Error);
      }
      TracedArtifactBytes += Bytes.size();
    }
  }
}

void DaemonWorkload::summary(Report &R) const {
  R.add("jobs_per_s", MeasuredS > 0 ? double(MeasuredJobs) / MeasuredS : 0,
        "1/s");
  R.add("hit_ms_p50", median(HitMs), "ms");
  double HitQ = tailQuantile(HitMs.size(), 0.99);
  R.add("hit_ms_p" + std::to_string(int(HitQ * 100)), quantile(HitMs, HitQ),
        "ms");
  R.add("hit_samples", double(HitMs.size()), "count");
  R.add("miss_ms_p50", median(MissMs), "ms");
  double MissQ = tailQuantile(MissMs.size(), 0.90);
  R.add("miss_ms_p" + std::to_string(int(MissQ * 100)),
        quantile(MissMs, MissQ), "ms");
  R.add("miss_samples", double(MissMs.size()), "count");
}

void DaemonWorkload::layers(std::map<std::string, double> &Out,
                            unsigned TracedPasses) const {
  std::map<std::string, double> Self = SpanLog::global().selfMs();
  const double T = TracedPasses ? double(TracedPasses) : 1.0;
  Out["frontend.compile_ms"] = Self["frontend.compile"] / T;
  Out["artifact.serialize_ms"] = Self["artifact.serialize"] / T;
  Out["artifact.parse_ms"] = Self["artifact.parse"] / T;
  Out["artifact.bytes"] = double(TracedArtifactBytes) / T;
  Out["gpusim.warp_insts"] = double(PassWork.WarpInsts);
  Out["gpusim.sim_cycles"] = double(PassWork.SimCycles);
  Out["profiler.hook_events"] = double(PassWork.HookEvents);
  Out["profiler.events_retained"] = double(PassWork.EventsRetained);
  Out["profiler.dropped"] = double(PassWork.Dropped);
  Out["server.rtt_hit_ms"] = median(TracedHitMs);
  Out["server.rtt_miss_ms"] = median(TracedMissMs);
  Out["server.runner_hit_ms"] = median(RunnerHitMs);
  Out["server.runner_miss_ms"] = median(RunnerMissMs);
  Out["server.transport_ms"] = median(TransportMs);
  Out["server.lookup_ms"] = median(LookupMs);
  Out["server.hit_ratio"] =
      TracedJobs ? double(TracedHits) / double(TracedJobs) : 0;
  Out["server.cache_hits"] = double(PassWork.CacheHits);
  Out["server.rejected"] =
      Srv ? double(Srv->counters().Rejected.load()) : 0;
  Out["server.retries"] = double(Retries);
  Out["server.jobs_per_s"] =
      MeasuredS > 0 ? double(MeasuredJobs) / MeasuredS : 0;
  Out["server.hit_ms_tail"] =
      quantile(HitMs, tailQuantile(HitMs.size(), 0.99));
  Out["server.miss_ms_tail"] =
      quantile(MissMs, tailQuantile(MissMs.size(), 0.90));
}

} // namespace

std::unique_ptr<Workload> perfbench::makeDaemonWorkload(Context &Ctx) {
  return std::make_unique<DaemonWorkload>(Ctx);
}
