//===- e2ebench/trace.h - in-memory spans for the traced run -----*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. A span has a name, a start, an end and
/// the span that caused it; spans of one job share the job's id. Spans are
/// recorded around every call the benchmark makes into a wisp layer and
/// stay in memory until the run ends, when they are written out as one
/// JSON line each. Some child spans are derived from the engine's own load
/// timers (LoadStats): those carry `derived` and are laid end to end from
/// their parent's start, because the engine reports their durations only.
///
/// Self time of a span is its duration minus the part of it its children
/// cover; children never overlap here (one thread records them in order),
/// so the covered part is the sum of the children's durations, clipped to
/// the parent.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_E2EBENCH_TRACE_H
#define WISP_E2EBENCH_TRACE_H

#include "support/clock.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  const char *Name = "";
  uint64_t Job = 0;
  int32_t Parent = -1; ///< Index into Tracer::spans(), -1 for a root.
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  bool Derived = false;

  uint64_t durNs() const { return EndNs - StartNs; }
};

/// Collects spans for one run. Disabled tracers record nothing and cost
/// one branch per call, so the workloads share one code path.
class Tracer {
public:
  explicit Tracer(bool Enabled) : On(Enabled) {}

  /// Opens a span under the innermost open span; returns its index.
  int32_t open(const char *Name, uint64_t Job) {
    if (!On)
      return -1;
    Span S;
    S.Name = Name;
    S.Job = Job;
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.StartNs = wisp::nowNs();
    Spans.push_back(S);
    Stack.push_back(int32_t(Spans.size() - 1));
    return Stack.back();
  }

  void close() {
    if (!On)
      return;
    Spans[size_t(Stack.back())].EndNs = wisp::nowNs();
    Stack.pop_back();
  }

  /// Adds a child of \p Parent whose duration comes from an engine timer.
  /// Derived children of one parent are laid end to end from its start.
  void derived(int32_t Parent, const char *Name, uint64_t DurNs) {
    if (!On || Parent < 0)
      return;
    uint64_t Start = Spans[size_t(Parent)].StartNs;
    for (size_t I = Spans.size(); I-- > size_t(Parent) + 1;)
      if (Spans[I].Parent == Parent) {
        Start = Spans[I].EndNs;
        break;
      }
    Span S;
    S.Name = Name;
    S.Job = Spans[size_t(Parent)].Job;
    S.Parent = Parent;
    S.StartNs = Start;
    S.EndNs = Start + DurNs;
    S.Derived = true;
    Spans.push_back(S);
  }

  /// Adds a closed span with explicit times (spans measured elsewhere,
  /// such as the serve session's per-job service time).
  int32_t add(const char *Name, uint64_t Job, int32_t Parent,
              uint64_t StartNs, uint64_t EndNs, bool Derived) {
    if (!On)
      return -1;
    Span S{Name, Job, Parent, StartNs, EndNs, Derived};
    Spans.push_back(S);
    return int32_t(Spans.size() - 1);
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span (duration minus children's coverage).
  /// \p Overrun counts children whose summed durations exceed their
  /// parent's, which would mean a timer double-counts.
  std::vector<uint64_t> selfTimes(size_t *Overrun) const {
    std::vector<uint64_t> Covered(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Covered[size_t(S.Parent)] += S.durNs();
    std::vector<uint64_t> Self(Spans.size(), 0);
    *Overrun = 0;
    for (size_t I = 0; I < Spans.size(); ++I) {
      uint64_t D = Spans[I].durNs();
      // Engine timers and the enclosing span read the clock at different
      // points; allow 2 us of skew before calling it double counting.
      if (Covered[I] > D + 2000)
        ++*Overrun;
      Self[I] = Covered[I] >= D ? 0 : D - Covered[I];
    }
    return Self;
  }

  /// Writes every span as one JSON object per line.
  bool write(const std::string &Path) const {
    FILE *F = fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      fprintf(F,
              "{\"id\":%zu,\"name\":\"%s\",\"job\":%llu,\"parent\":%d,"
              "\"start_ns\":%llu,\"end_ns\":%llu,\"derived\":%s}\n",
              I, S.Name, (unsigned long long)S.Job, int(S.Parent),
              (unsigned long long)S.StartNs, (unsigned long long)S.EndNs,
              S.Derived ? "true" : "false");
    }
    return fclose(F) == 0;
  }

private:
  bool On;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
public:
  Scope(Tracer &T, const char *Name, uint64_t Job)
      : T(T), Id(T.open(Name, Job)) {}
  ~Scope() { T.close(); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int32_t id() const { return Id; }

private:
  Tracer &T;
  int32_t Id;
};

} // namespace e2ebench

#endif // WISP_E2EBENCH_TRACE_H
