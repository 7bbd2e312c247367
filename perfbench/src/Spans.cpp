//===- perfbench/src/Spans.cpp - Spans around calls into the pipeline -----===//

#include "Spans.h"

#include "support/telemetry/TraceWriter.h"

#include <atomic>
#include <unordered_map>

using namespace perfbench;
using cuadv::support::JsonValue;

namespace {

std::atomic<uint64_t> NextId{1};
std::atomic<uint32_t> NextThread{1};

thread_local uint64_t CurrentSpan = 0;
thread_local uint64_t CurrentUnit = 0;
thread_local uint32_t ThreadIndex = 0;

uint32_t threadIndex() {
  if (!ThreadIndex)
    ThreadIndex = NextThread.fetch_add(1);
  return ThreadIndex;
}

} // namespace

SpanLog &SpanLog::global() {
  static SpanLog Log;
  return Log;
}

int64_t SpanLog::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Origin)
      .count();
}

void SpanLog::record(Span S) {
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(std::move(S));
}

std::map<std::string, double> SpanLog::selfMs() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::unordered_map<uint64_t, int64_t> ChildNs;
  for (const Span &S : Spans)
    if (S.Parent)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, double> Out;
  for (const Span &S : Spans) {
    auto It = ChildNs.find(S.Id);
    int64_t Self =
        S.EndNs - S.StartNs - (It == ChildNs.end() ? 0 : It->second);
    double Ms = double(Self) / 1e6;
    Out[S.Name] += Ms;
    if (!S.Detail.empty())
      Out[S.Name + "." + S.Detail] += Ms;
  }
  return Out;
}

bool SpanLog::write(const std::string &Path, const std::string &Title,
                    std::string &Error) const {
  std::lock_guard<std::mutex> Lock(Mu);
  cuadv::telemetry::TraceWriter W;
  const int64_t Pid = cuadv::telemetry::TraceWriter::HostPid;
  W.setProcessName(Pid, Title);
  std::map<uint32_t, bool> Threads;
  for (const Span &S : Spans)
    Threads[S.Thread] = true;
  for (const auto &[Tid, Unused] : Threads)
    W.setThreadName(Pid, Tid, "thread " + std::to_string(Tid));
  for (const Span &S : Spans) {
    JsonValue Args = JsonValue::object();
    Args.set("id", JsonValue(int64_t(S.Id)));
    Args.set("parent", JsonValue(int64_t(S.Parent)));
    Args.set("unit", JsonValue(int64_t(S.Unit)));
    if (!S.Detail.empty())
      Args.set("detail", JsonValue(S.Detail));
    W.completeEvent(Pid, S.Thread, "perfbench", S.Name,
                    uint64_t(S.StartNs / 1000),
                    uint64_t((S.EndNs - S.StartNs) / 1000), std::move(Args));
  }
  return W.writeFile(Path, Error);
}

ScopedSpan::ScopedSpan(const char *Name, std::string Detail, uint64_t Unit)
    : SavedCurrent(CurrentSpan), SavedUnit(CurrentUnit),
      Record(SpanLog::global().enabled()) {
  S.Id = NextId.fetch_add(1);
  S.Parent = CurrentSpan;
  S.Unit = Unit ? Unit : CurrentUnit;
  S.Thread = threadIndex();
  S.Name = Name;
  S.Detail = std::move(Detail);
  CurrentSpan = S.Id;
  CurrentUnit = S.Unit;
  S.StartNs = SpanLog::global().nowNs();
}

ScopedSpan::~ScopedSpan() {
  S.EndNs = SpanLog::global().nowNs();
  CurrentSpan = SavedCurrent;
  CurrentUnit = SavedUnit;
  if (Record)
    SpanLog::global().record(std::move(S));
}

double ScopedSpan::elapsedMs() const {
  return double(SpanLog::global().nowNs() - S.StartNs) / 1e6;
}

uint64_t ScopedSpan::newUnit() { return NextId.fetch_add(1); }
