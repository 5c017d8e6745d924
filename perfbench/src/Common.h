//===- perfbench/src/Common.h - Clock, statistics, spans, report -*- C++ -*-===//
//
// Shared pieces of cfvbench: the run's arguments, a steady
// clock, order statistics, the span recorder behind the traced run, and
// the result line every workload prints.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Scratch directory for generated files (SNAP, CFVM, server logs).
  std::string WorkDir = ".";
  /// Where a traced run writes its spans.
  std::string TraceOut;
  /// Path of the cfv_serve binary (serve-4c).
  std::string ServeBin;
  /// When >= 0, the answer of timed operation number CorruptOp is altered
  /// before its check, to prove the check counts it as failed.
  int64_t CorruptOp = -1;
};

/// Seconds on the steady clock.
double now();

/// Deterministic per-input seed derived from the workload seed.
uint64_t subSeed(uint64_t Seed, uint64_t Stream);

double median(std::vector<double> V);
/// Linear-interpolation quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);

/// Peak resident set (VmHWM) of process \p Pid in MiB, "self" for this
/// one; 0 when it cannot be read.
double peakRssMb(const std::string &Pid = "self");
/// Returns freed heap pages to the system and restarts this process's
/// peak resident set from its current size, so that peakRssMb() sees only
/// what runs after the call.  False when the kernel refuses the reset.
bool resetPeakRss();

/// A fixed scalar loop in the benchmark, not the program: its time shows
/// how fast the host runs at the moment, independently of cfv.
double hostRefSeconds();

/// One span: [Start, End] on the steady clock, the span that caused it
/// (-1 for an operation's root), and the operation it belongs to.
struct Span {
  std::string Name;
  double Start = 0.0;
  double End = 0.0;
  int Parent = -1;
  int64_t Op = -1;
};

/// In-memory span store for the traced run.  Recording is switched per
/// round (traced and untraced rounds alternate), so add() is a no-op
/// returning -1 while disabled.
class Recorder {
public:
  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }
  int add(const std::string &Name, double Start, double End, int Parent,
          int64_t Op);
  /// Closes span \p Idx (from add(), -1 ignored) at \p End.
  void setEnd(int Idx, double End) {
    if (Idx >= 0)
      Spans[Idx].End = End;
  }
  const std::vector<Span> &spans() const { return Spans; }
  /// Each span's duration minus the part of it its children cover.
  std::vector<double> selfTimes() const;
  /// Median self time of the spans named \p Name (0 when none).
  double medianSelf(const std::string &Name) const;
  /// Writes every span plus one summary per operation (wall, self time
  /// per span name, unaccounted remainder = the root's self time).
  bool write(const std::string &Path, double Origin) const;

private:
  bool Enabled = false;
  std::vector<Span> Spans;
};

/// The result line: metrics in insertion order plus operation counts.
class Report {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  int64_t Attempted = 0;
  int64_t Failed = 0;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string json() const;

private:
  std::vector<std::string> Order;
  std::map<std::string, std::pair<double, std::string>> Values;
};

/// The six batch apps, in report order.
extern const char *const kBatchApps[6];

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
