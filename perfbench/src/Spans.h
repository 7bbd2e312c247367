//===- perfbench/src/Spans.h - Spans around calls into the pipeline -------===//
//
// Part of the CUDAAdvisor reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing: a ScopedSpan around each call into a layer
/// times it, and while the log is enabled (traced passes only) records
/// its name, detail, start, end, parent span and unit id. Spans stay in
/// memory and are written out once, at exit, as a Chrome trace through
/// telemetry::TraceWriter. A layer's self time is its spans' durations
/// minus the parts their child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
public:
  struct Span {
    uint64_t Id = 0;
    uint64_t Parent = 0; ///< 0 for a root span.
    uint64_t Unit = 0;   ///< The unit of work the span belongs to.
    uint32_t Thread = 0;
    std::string Name;
    std::string Detail;
    int64_t StartNs = 0; ///< Since the log's origin.
    int64_t EndNs = 0;
  };

  static SpanLog &global();

  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  void record(Span S);
  int64_t nowNs() const;

  /// Self time in milliseconds per span name, and per "name.detail".
  std::map<std::string, double> selfMs() const;

  /// Writes every recorded span as a Chrome trace (host track, one
  /// thread per recording thread). False with \p Error on I/O failure.
  bool write(const std::string &Path, const std::string &Title,
             std::string &Error) const;

private:
  std::chrono::steady_clock::time_point Origin =
      std::chrono::steady_clock::now();
  bool Enabled = false; ///< Only flipped between passes.
  mutable std::mutex Mu;
  std::vector<Span> Spans; ///< Guarded by Mu.
};

/// Times the enclosing scope and records it as a span when the global
/// log is enabled. Spans nest per thread: the innermost open span of
/// the thread is the parent, and its unit is inherited unless a unit id
/// is given.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, std::string Detail = {},
                      uint64_t Unit = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  double elapsedMs() const;
  uint64_t unit() const { return S.Unit; }

  /// A fresh unit id.
  static uint64_t newUnit();

private:
  SpanLog::Span S;
  uint64_t SavedCurrent;
  uint64_t SavedUnit;
  bool Record;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
