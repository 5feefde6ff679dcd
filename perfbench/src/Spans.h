//===- perfbench/src/Spans.h - In-memory spans around layer calls --------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span log. Spans are opened and closed by the
/// benchmark's own code around each call into a layer's public function;
/// nothing inside the library is instrumented. A span's layer is the part
/// of its name before the first '.', so "engine.run" and "engine.release"
/// both belong to the engine layer. Spans stay in memory until the run
/// ends and are then written out as CSV.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_PERFBENCH_SPANS_H
#define CLIFFEDGE_PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t nowNs();

struct Span {
  const char *Name = ""; ///< String literal; "<layer>.<call>".
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1; ///< Index of the enclosing span, -1 for roots.
  uint32_t Op = 0;     ///< Op (or set-up repetition) the span belongs to.
};

class SpanLog {
public:
  /// While off, open() records nothing and returns -1.
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span nested in the innermost open one.
  int32_t open(const char *Name, uint32_t Op);
  /// Closes span \p Idx (a no-op for -1), which must be the innermost.
  void close(int32_t Idx);

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time (duration minus the part covered by direct children) in
  /// nanoseconds, summed per layer over the spans under roots named
  /// \p Root.
  std::map<std::string, int64_t> selfNsByLayer(const char *Root) const;

  /// Durations in milliseconds of every span named \p Name, in order.
  std::vector<double> durationsMs(const char *Name) const;

  /// Writes every span as CSV (index, parent, op, name, start_ns, end_ns,
  /// self_ns). Returns false when the file cannot be written.
  bool writeCsv(const std::string &Path) const;

private:
  std::vector<int64_t> selfNs() const;

  bool Enabled = false;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, const char *Name, uint32_t Op)
      : Log(Log), Idx(Log.open(Name, Op)) {}
  ~ScopedSpan() { Log.close(Idx); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog &Log;
  int32_t Idx;
};

} // namespace perfbench

#endif // CLIFFEDGE_PERFBENCH_SPANS_H
