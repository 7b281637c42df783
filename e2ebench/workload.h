//===- e2ebench/workload.h - shared workload plumbing ------------*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: run options, the six tiers, the output
/// oracle (expected outcomes and how a job's outcome is compared), the
/// seeded input generators, one closed-loop job run through wisp's public
/// entry points, the metric table the run prints, and the end-to-end and
/// per-layer metric derivations.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_E2EBENCH_WORKLOAD_H
#define WISP_E2EBENCH_WORKLOAD_H

#include "stats.h"
#include "trace.h"

#include "cache/diskcache.h"
#include "engine/engine.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory holding this benchmark's sources (expected.txt lives here).
  std::string BenchDir;
  /// Scratch directory for disk caches, generated modules and the trace.
  std::string WorkDir;
};

/// The six `wisp --tier` names, in reporting order.
constexpr int NumTiers = 6;
extern const char *const TierNames[NumTiers];
enum Tier : int { Int, Threaded, Spc, CopyPatch, TwoPass, Opt };

/// The registry configuration behind a tier, as `wisp --tier=` selects it.
wisp::EngineConfig tierConfig(int T);
/// The compiler a compiled tier runs (meaningless for the interpreters).
wisp::CompilerKind tierCompiler(int T);
inline bool tierCompiles(int T) { return T >= Spc; }

/// What a job produced: a value list or a trap, or a load failure.
struct Outcome {
  bool Loaded = false;
  wisp::TrapReason Trap = wisp::TrapReason::None;
  std::vector<wisp::Value> Results;

  /// Exact text: "i64:0x2a", "f64:0x3ff8000000000000", "trap:div-by-zero"
  /// or "load-failed". Two outcomes agree iff their texts are equal.
  std::string exact() const;
  /// The body of a serve `done` line for this outcome ("= 42:i64" or
  /// "trap: ..."), which prints floats with %g.
  std::string serveText() const;
};

/// Committed reference outcomes of the suite items, produced once by the
/// in-place interpreter (`e2ebench --write-expected`). Keyed by
/// "<scale> <suite>/<name>".
class Expected {
public:
  bool load(const std::string &Path, std::string *Err);
  /// Null when the item has no reference at that scale.
  const std::string *find(int Scale, const std::string &Item) const;

private:
  std::map<std::string, std::string> Map;
};

/// Writes the expected file for \p Scales by running every suite item on
/// the in-place interpreter. Returns false on I/O or load failure.
bool writeExpected(const std::string &Path, const std::vector<int> &Scales);

/// The seeded generator profile for the startup workload and the serve
/// workload's one-off modules: wide random modules (tens of KB of code)
/// whose main `f` runs briefly.
std::vector<uint8_t> generateModule(uint64_t Seed);
/// The fixed arguments every generated module's `f` is invoked with.
const std::vector<wisp::Value> &generatedArgs();

/// A generated module's reference outcome: its in-place and threaded
/// interpreter runs must agree, and that agreed outcome is the reference
/// for every compiled tier. Returns false when the interpreters disagree
/// (or either fails to load); \p Why says how.
bool interpreterReference(const std::vector<uint8_t> &Bytes, Outcome *Ref,
                          std::string *Why);

/// Exact counters read from wisp after each job; two passes over the same
/// inputs must produce identical values (the determinism self-check).
struct ExactCounters {
  uint64_t ModeledCycles = 0; ///< JIT-tier modeled cycles.
  uint64_t InterpSteps = 0;
  uint64_t ThreadedSteps = 0;
  uint64_t SpcInsts = 0;     ///< Instructions emitted by the SPC tier.
  uint64_t SpcTagStores = 0; ///< Tag stores emitted by the SPC tier.
  uint64_t IrBytes = 0;
  uint64_t CacheHits = 0, CacheMisses = 0;
  uint64_t DiskHits = 0, DiskMisses = 0, DiskStores = 0, DiskRejected = 0,
           DiskStoreFails = 0;
  uint64_t PoolHits = 0, PoolMisses = 0;

  ExactCounters &operator+=(const ExactCounters &O);
  bool operator==(const ExactCounters &O) const;
  std::string text() const;
};

/// The serve session's own layer numbers (zero on other workloads).
struct ServiceLayer {
  double QueueWaitMs = 0;  ///< Median of latency minus service time.
  double ServiceP50Ms = 0; ///< Median worker service time.
  uint64_t Rejected = 0;
  double LateMaxMs = 0; ///< Furthest the generator ran behind schedule.
};

/// Per-layer accumulation over traced jobs: each sample is one job's
/// self time in that layer (or an engine counter read after the call).
struct LayerSamples {
  std::map<std::string, std::vector<double>> Ms; ///< Layer -> self ms.
  /// Measured invoke ns and modeled work per executing tier, for the
  /// calibration (ns per step, ns per modeled cycle).
  double InvokeNs[NumTiers] = {};
  double Work[NumTiers] = {};
  uint64_t CacheSavedNs = 0;
  uint64_t Jobs = 0;
  /// Exact counters of one pass over the workload's fixed inputs.
  ExactCounters Counters;
  double JobNs = 0;        ///< Sum of traced job (root span) durations.
  double AttributedNs = 0; ///< Sum of layer self times inside jobs.
  size_t Overruns = 0;     ///< Children exceeding their parent.
  size_t Spans = 0;
  double OverheadMs = 0;   ///< Traced minus untraced job_ms_p50.
  bool Deterministic = true;
  ServiceLayer Service;
};

/// One job: a fresh Engine with a fresh private compile cache (or a warm
/// engine), load, invoke, check, destroy (or recycle).
struct JobSpec {
  int TierIdx = 0;
  uint32_t Item = 0;
  const std::vector<uint8_t> *Bytes = nullptr;
  const char *Invoke = "run";
  const std::vector<wisp::Value> *Args = nullptr;
  const std::string *Expect = nullptr; ///< Outcome::exact() text.
  const wisp::EngineConfig *Cfg = nullptr;
};

struct JobResult {
  double Ms = 0; ///< Engine construction to checked result.
  /// Engine construction to the end of its teardown (or recycle): the
  /// client's whole time on the job.
  double CycleMs = 0;
  bool Ok = false;
  std::string Got;
  /// Engine counters read after the calls.
  ExactCounters Counters;
  double InvokeNs = 0;
  double Work = 0; ///< The tier's steps or modeled cycles.
  uint64_t SavedNs = 0;
};

/// Runs one job; with an enabled tracer, records its spans under \p JobId.
/// Without \p Warm the job constructs an engine with a fresh private
/// compile cache, as a new process starts. With \p Warm the job loads into
/// that long-lived engine and recycles its instance afterwards (as a serve
/// worker does) instead of constructing and destroying an engine of its own.
JobResult runJob(const JobSpec &J, Tracer &T, uint64_t JobId,
                 wisp::Engine *Warm = nullptr);

/// Adds one traced job's counters to \p L.
void addJob(LayerSamples *L, const JobSpec &J, const JobResult &R);

/// Folds the spans of a tracer into per-layer samples.
void collectLayers(const Tracer &T, LayerSamples *L);

/// The metric table a run prints as its last line.
class Report {
public:
  void set(const std::string &Name, double Value, const char *Unit);
  /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
  std::string json(bool Correct, uint64_t Attempted, uint64_t Failed) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>> &
  rows() const {
    return Rows;
  }

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Rows;
};

/// One measured job, for the end-to-end metrics.
struct JobSample {
  int TierIdx = 0;
  uint32_t Item = 0;
  double Ms = 0;
};

/// The speed of the host during a run, sampled with a fixed kernel that
/// shares no code with wisp: sorting integers and making small
/// allocations. A shared host's speed drifts in phases of minutes (startup
/// sets ten minutes apart differed by 25% in every time metric), longer
/// than a run, so a job's best over the run cannot take the drift out; the
/// kernel follows it (over four minutes of startup jobs, the medians of
/// 10-second windows of kernel time and of job time correlated 0.96).
class HostSpeed {
public:
  /// Times the kernel once.
  void sample();
  double fastestMs() const;
  double medianMs() const;
  /// The kernel's time on the reference host: end-to-end times are
  /// reported as measured x RefMs / (this run's kernel time).
  static constexpr double RefMs = 40;

private:
  std::vector<double> Ms;
};

/// The twelve end-to-end metrics. \p JobsPerS is the workload's
/// throughput figure; latency percentiles and per-tier geomeans come from
/// \p Samples, one per job (closed loops run each item once per tier, so a
/// tier's geomean over jobs is its geomean over items). Every time, and
/// the throughput, is scaled to the reference host: by
/// HostSpeed::RefMs / \p KernelMs, the workload's pick of \p Speed's
/// samples.
void reportEndToEnd(Report &R, double SetupS, double JobsPerS,
                    const std::vector<JobSample> &Samples, uint64_t Attempted,
                    uint64_t Failed, const HostSpeed &Speed,
                    double KernelMs);

/// Every per-layer metric, from traced samples and the direct layer
/// calls (layers.cpp). Metrics a workload does not exercise read 0.
struct DirectLayers;
void reportLayers(Report &R, const LayerSamples &L, const DirectLayers &D);

/// The traced run's self-checks, printed as a '#' line. Layer-sum
/// reconciliation: layer self times (engine.unattributed included) must
/// cover at least 97% of traced job time, leaving only the benchmark's own
/// output check and bookkeeping, and no engine timer may claim more time
/// than the call containing it. The verifier must report no findings.
bool traceChecksPass(const LayerSamples &L, const DirectLayers &D);

/// Peak resident set of this process in MB.
double peakRssMb();

/// Runs \p Setup \p Reps times and returns the median wall seconds; the
/// last repetition's products are the ones the workload uses.
template <typename Fn> double timedSetup(int Reps, Fn &&Setup);

/// Recreates an empty directory.
void freshDir(const std::string &Dir);

/// What a run prints as its last line.
struct RunOutcome {
  Report Metrics;
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// The workloads (closed.cpp, serve.cpp).
RunOutcome runStartup(const Options &O);
RunOutcome runServeWorkload(const Options &O);

} // namespace e2ebench

template <typename Fn> double e2ebench::timedSetup(int Reps, Fn &&Setup) {
  std::vector<double> S;
  for (int I = 0; I < Reps; ++I) {
    double T0 = wisp::nowMs();
    Setup();
    S.push_back((wisp::nowMs() - T0) / 1e3);
  }
  return median(S);
}

#endif // WISP_E2EBENCH_WORKLOAD_H
