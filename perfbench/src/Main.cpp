//===- perfbench/src/Main.cpp - The pipeline benchmark driver -------------===//
//
// Part of the CUDAAdvisor reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload of the pipeline benchmark on inputs from
// perfbench/gen.py and prints its metrics; perfbench/run.py is the
// entry point that builds this driver, generates the inputs and checks
// the output.
//
//   perfbench --workload <name> --inputs <file> --seconds <s>
//             [--trace 0|1] [--trace-out <file>] [--root <dir>]
//             [--work-dir <dir>] [--emit-pins <file>]
//
// Set-up runs several times (the median is setup_s); then passes run
// until the next one would end past --seconds. With --trace 1 every
// other pass is traced: its spans give the per-layer metrics, and the
// untraced passes after the first give trace.overhead_pct. The last line of
// stdout is one JSON object: correct, attempted, failed, metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "support/telemetry/Logger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace perfbench;
using cuadv::support::JsonValue;

namespace {

struct Options {
  std::string Workload;
  std::string InputsPath;
  std::string TraceOut;
  std::string Root = ".";
  std::string WorkDir = ".bench_build/perfbench";
  std::string EmitPins;
  double Seconds = 10;
  bool Trace = false;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload profile-exact|"
               "profile-sampled-par|simulate-clean|daemon-mix\n"
               "                 --inputs <file> --seconds <s> [--trace 0|1]\n"
               "                 [--trace-out <file>] [--root <dir>]\n"
               "                 [--work-dir <dir>] [--emit-pins <file>]\n");
  std::exit(2);
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return false;
  std::stringstream SS;
  SS << IS.rdbuf();
  Out = SS.str();
  return true;
}

double peakRssMb() {
  rusage U;
  ::getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage();
      return Argv[++I];
    };
    if (!std::strcmp(Argv[I], "--workload"))
      O.Workload = Value();
    else if (!std::strcmp(Argv[I], "--inputs"))
      O.InputsPath = Value();
    else if (!std::strcmp(Argv[I], "--seconds"))
      O.Seconds = std::atof(Value());
    else if (!std::strcmp(Argv[I], "--trace"))
      O.Trace = std::strcmp(Value(), "0") != 0;
    else if (!std::strcmp(Argv[I], "--trace-out"))
      O.TraceOut = Value();
    else if (!std::strcmp(Argv[I], "--root"))
      O.Root = Value();
    else if (!std::strcmp(Argv[I], "--work-dir"))
      O.WorkDir = Value();
    else if (!std::strcmp(Argv[I], "--emit-pins"))
      O.EmitPins = Value();
    else
      usage();
  }
  if (O.Workload.empty() || O.InputsPath.empty() || O.Seconds <= 0)
    usage();
  // The fault demos' traps are expected outcomes, checked by code.
  cuadv::telemetry::setLogThreshold(cuadv::telemetry::LogLevel::Off);

  std::string Text, Error;
  JsonValue Inputs;
  if (!readFile(O.InputsPath, Text) ||
      !cuadv::support::parseJson(Text, Inputs, Error)) {
    std::fprintf(stderr, "perfbench: cannot read inputs '%s' %s\n",
                 O.InputsPath.c_str(), Error.c_str());
    return 2;
  }
  Pins Pinned;
  if (!Pinned.load(O.Root + "/perfbench/pins.json", O.Workload,
                   !O.EmitPins.empty(), Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 2;
  }
  Context Ctx{Inputs, O.Root, O.WorkDir, Pinned, {}};
  std::unique_ptr<Workload> W = O.Workload == "daemon-mix"
                                    ? makeDaemonWorkload(Ctx)
                                    : makePipelineWorkload(O.Workload, Ctx);
  if (!W)
    usage();

  Checks C;
  std::vector<double> SetupS;
  for (unsigned I = 0; I < W->setupRepeats(); ++I) {
    auto Start = Clock::now();
    Ctx.Baseline = cuadv::core::ProfileArtifact();
    bool Read = cuadv::core::readProfileArtifact(
        O.Root + "/bench/baselines/workloads.json", Ctx.Baseline, Error);
    if (!C.require(Read, "baseline: " + Error) || !W->setup(C))
      return 1;
    SetupS.push_back(msSince(Start) / 1000.0);
  }

  std::vector<double> PassS, TracedPassS, UnitMs;
  // A sweep's later passes add allocator slack that depends on how many
  // passes fit the run; the daemon's first pass peaks at one of two
  // levels, depending on which worker served what.
  double RssMb = 0;
  auto Start = Clock::now();
  for (unsigned N = 0; N < W->maxPasses(); ++N) {
    bool Traced = O.Trace && N % 2 == 1;
    SpanLog::global().setEnabled(Traced);
    auto PassStart = Clock::now();
    PassResult R = W->pass(N, Traced, C);
    SpanLog::global().setEnabled(false);
    double WallS = msSince(PassStart) / 1000.0;
    (Traced ? TracedPassS : PassS).push_back(R.Seconds);
    if (N == 0 || W->rssOverRun())
      RssMb = peakRssMb();
    if (!Traced)
      UnitMs.insert(UnitMs.end(), R.UnitMs.begin(), R.UnitMs.end());
    // A traced run needs an untraced pass after its first traced one:
    // the first pass of a process runs colder than the rest.
    bool Enough = !O.Trace || (!TracedPassS.empty() && PassS.size() > 1);
    if (Enough && msSince(Start) / 1000.0 + WallS > O.Seconds)
      break;
  }

  Report EndToEnd;
  EndToEnd.add("setup_s", median(SetupS), "s");
  EndToEnd.add("pass_s", median(PassS), "s");
  EndToEnd.add("peak_rss_mb", RssMb, "MB");
  // Printed, not gated: on a shared host this spreads more than any
  // bound allows. Units differ in cost (ten applications; hits and
  // misses), so their median jumps between units; the geometric mean
  // weighs each alike.
  Report Extra;
  double LogSum = 0;
  for (double Ms : UnitMs)
    LogSum += std::log(std::max(Ms, 1e-6));
  Extra.add("unit_ms_gmean",
            UnitMs.empty() ? 0 : std::exp(LogSum / double(UnitMs.size())),
            "ms");
  Extra.add("error_rate",
            C.attempted() ? double(C.failed()) / double(C.attempted()) : 1.0,
            "ratio");
  Extra.add("passes", double(PassS.size()), "count");
  Extra.add("units", double(UnitMs.size()), "count");
  W->summary(Extra);

  Report Layers;
  if (O.Trace) {
    std::map<std::string, double> Values;
    W->layers(Values, unsigned(TracedPassS.size()));
    double Untraced =
        median(std::vector<double>(PassS.begin() + 1, PassS.end()));
    Values["trace.overhead_pct"] =
        Untraced > 0 ? (median(TracedPassS) / Untraced - 1) * 100 : 0;
    for (const auto &[Name, Unit] : layerMetricNames()) {
      auto It = Values.find(Name);
      Layers.add(Name, It == Values.end() ? 0.0 : It->second, Unit);
    }
    if (!O.TraceOut.empty() &&
        !SpanLog::global().write(O.TraceOut, "perfbench " + O.Workload,
                                 Error))
      C.unit(C.require(false, "trace: " + Error));
  }
  if (!O.EmitPins.empty()) {
    std::ofstream OS(O.EmitPins, std::ios::binary);
    OS << cuadv::support::writeJson(Pinned.observed());
  }

  std::printf("perfbench %s: %zu passes (+%zu traced), %llu units, "
              "%llu failed\n",
              O.Workload.c_str(), PassS.size(), TracedPassS.size(),
              static_cast<unsigned long long>(C.attempted()),
              static_cast<unsigned long long>(C.failed()));
  std::printf("pass seconds:");
  for (double S : PassS)
    std::printf(" %.3f", S);
  std::printf("\nend to end:\n%s%s", EndToEnd.text().c_str(),
              Extra.text().c_str());
  if (O.Trace)
    std::printf("per layer (traced passes):\n%s", Layers.text().c_str());

  JsonValue Result = JsonValue::object();
  Result.set("correct", JsonValue(C.failed() == 0));
  Result.set("attempted", JsonValue(int64_t(C.attempted())));
  Result.set("failed", JsonValue(int64_t(C.failed())));
  Result.set("metrics", (O.Trace ? Layers : EndToEnd).toJson());
  std::string Line = cuadv::support::writeJson(Result);
  // One line: the compact writer may still break lines.
  for (char &Ch : Line)
    if (Ch == '\n')
      Ch = ' ';
  std::printf("%s\n", Line.c_str());
  return C.failed() ? 1 : 0;
}
