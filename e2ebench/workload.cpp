//===- e2ebench/workload.cpp - shared workload plumbing ---------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "workload.h"
#include "layers.h"

#include "engine/registry.h"
#include "fuzz/randwasm.h"
#include "service/batch.h"
#include "suites/suites.h"
#include "support/format.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace wisp;

namespace e2ebench {

const char *const TierNames[NumTiers] = {"int",       "threaded", "spc",
                                         "copypatch", "twopass",  "opt"};

EngineConfig tierConfig(int T) {
  return configByName(tierToConfigName(TierNames[T]));
}

CompilerKind tierCompiler(int T) {
  switch (T) {
  case CopyPatch:
    return CompilerKind::CopyPatch;
  case TwoPass:
    return CompilerKind::TwoPass;
  case Opt:
    return CompilerKind::Optimizing;
  default:
    return CompilerKind::SinglePass;
  }
}

// --- The output oracle ---------------------------------------------------

std::string Outcome::exact() const {
  if (!Loaded)
    return "load-failed";
  if (Trap != TrapReason::None)
    return std::string("trap:") + trapReasonName(Trap);
  std::string S;
  for (const Value &V : Results)
    S += strFormat("%s%s:0x%llx", S.empty() ? "" : ",", valTypeName(V.Type),
                   (unsigned long long)V.Bits);
  return S.empty() ? "void" : S;
}

std::string Outcome::serveText() const {
  if (Trap != TrapReason::None)
    return std::string("trap: ") + trapReasonName(Trap);
  std::string S = "= ";
  if (Results.empty())
    S += "<void>";
  for (size_t I = 0; I < Results.size(); ++I)
    S += (I ? ", " : "") + valueText(Results[I]);
  return S;
}

bool Expected::load(const std::string &Path, std::string *Err) {
  std::ifstream In(Path);
  if (!In) {
    *Err = "cannot read " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Scale, Item, Text;
    if (!(Fields >> Scale >> Item >> Text)) {
      *Err = "malformed line in " + Path + ": " + Line;
      return false;
    }
    Map[Scale + " " + Item] = Text;
  }
  return true;
}

const std::string *Expected::find(int Scale, const std::string &Item) const {
  auto It = Map.find(std::to_string(Scale) + " " + Item);
  return It == Map.end() ? nullptr : &It->second;
}

namespace {

/// Runs \p Bytes once on tier \p T in a cold engine.
Outcome runCold(const std::vector<uint8_t> &Bytes, int T, const char *Invoke,
                const std::vector<Value> &Args) {
  EngineConfig Cfg = tierConfig(T);
  Cfg.UseCompileCache = false;
  Cfg.PoolInstances = false;
  Engine E(Cfg);
  WasmError Err;
  Outcome O;
  std::unique_ptr<LoadedModule> LM = E.load(Bytes, &Err);
  if (!LM)
    return O;
  O.Loaded = true;
  O.Trap = E.invoke(*LM, Invoke, Args, &O.Results);
  return O;
}

} // namespace

bool writeExpected(const std::string &Path, const std::vector<int> &Scales) {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  fprintf(F, "# Reference outcomes of the fig. 7 suite items, produced by the\n"
             "# in-place interpreter (e2ebench --write-expected).\n"
             "# <scale> <suite>/<item> <exact outcome>\n");
  bool Ok = true;
  for (int Scale : Scales)
    for (const LineItem &I : allSuites(Scale)) {
      Outcome O = runCold(I.Bytes, Int, "run", {});
      Ok = Ok && O.Loaded && O.Trap == TrapReason::None;
      fprintf(F, "%d %s/%s %s\n", Scale, I.Suite.c_str(), I.Name.c_str(),
              O.exact().c_str());
    }
  return fclose(F) == 0 && Ok;
}

std::vector<uint8_t> generateModule(uint64_t Seed) {
  // Tens of KB of code in a few long, call-free helpers plus `f`, whose
  // bounded loops keep execution brief. Few functions keep the disk level's
  // per-artifact file cost from swamping the compile pipeline. Traps stay
  // possible (division, conversions) but call_indirect, the fuzzing
  // profiles' main trap source, is left out so most jobs run to a value.
  FuzzProfile P;
  P.Name = "e2ebench";
  P.NumHelpers = 10;
  P.MinStmts = 150;
  P.MaxStmts = 300;
  P.StmtDepth = 3;
  P.ExprDepth = 4;
  P.WDiv = 1;
  P.WCallIndirect = 0;
  P.WConvert = 2;
  P.WildAddrOneIn = 1u << 30;
  P.BoundaryOneIn = 1u << 30;
  return RandWasm(Seed, P).build().toBytes();
}

const std::vector<Value> &generatedArgs() {
  static const std::vector<Value> Args = {Value::makeI32(7), Value::makeI32(13),
                                          Value::makeF64(1.5),
                                          Value::makeF64(-2.25)};
  return Args;
}

bool interpreterReference(const std::vector<uint8_t> &Bytes, Outcome *Ref,
                          std::string *Why) {
  Outcome A = runCold(Bytes, Int, "f", generatedArgs());
  Outcome B = runCold(Bytes, Threaded, "f", generatedArgs());
  if (!A.Loaded || A.exact() != B.exact()) {
    *Why = "int " + A.exact() + " vs threaded " + B.exact();
    return false;
  }
  *Ref = A;
  return true;
}

// --- Counters --------------------------------------------------------------

ExactCounters &ExactCounters::operator+=(const ExactCounters &O) {
  ModeledCycles += O.ModeledCycles;
  InterpSteps += O.InterpSteps;
  ThreadedSteps += O.ThreadedSteps;
  SpcInsts += O.SpcInsts;
  SpcTagStores += O.SpcTagStores;
  IrBytes += O.IrBytes;
  CacheHits += O.CacheHits;
  CacheMisses += O.CacheMisses;
  DiskHits += O.DiskHits;
  DiskMisses += O.DiskMisses;
  DiskStores += O.DiskStores;
  DiskRejected += O.DiskRejected;
  DiskStoreFails += O.DiskStoreFails;
  PoolHits += O.PoolHits;
  PoolMisses += O.PoolMisses;
  return *this;
}

bool ExactCounters::operator==(const ExactCounters &O) const {
  return text() == O.text();
}

std::string ExactCounters::text() const {
  return strFormat(
      "cycles=%llu interp_steps=%llu threaded_steps=%llu spc_insts=%llu "
      "spc_tag_stores=%llu ir_bytes=%llu cache=%llu/%llu "
      "disk=%llu/%llu stores=%llu rejected=%llu store_fails=%llu "
      "pool=%llu/%llu",
      (unsigned long long)ModeledCycles, (unsigned long long)InterpSteps,
      (unsigned long long)ThreadedSteps, (unsigned long long)SpcInsts,
      (unsigned long long)SpcTagStores, (unsigned long long)IrBytes,
      (unsigned long long)CacheHits, (unsigned long long)CacheMisses,
      (unsigned long long)DiskHits, (unsigned long long)DiskMisses,
      (unsigned long long)DiskStores, (unsigned long long)DiskRejected,
      (unsigned long long)DiskStoreFails, (unsigned long long)PoolHits,
      (unsigned long long)PoolMisses);
}

// --- One closed-loop job ---------------------------------------------------

namespace {

const char *const InvokeSpan[NumTiers] = {
    "engine.invoke.int",       "engine.invoke.threaded",
    "engine.invoke.spc",       "engine.invoke.copypatch",
    "engine.invoke.twopass",   "engine.invoke.opt"};
const char *const CompileSpan[NumTiers] = {
    "", "", "spc.compile", "baselines.copypatch.compile",
    "baselines.twopass.compile", "opt.compile"};

} // namespace

JobResult runJob(const JobSpec &J, Tracer &T, uint64_t JobId, Engine *Warm) {
  JobResult R;
  Scope Root(T, "job", JobId);
  uint64_t T0 = nowNs();
  std::unique_ptr<CompileCache> Private;
  std::unique_ptr<Engine> Fresh;
  if (!Warm) {
    Scope S(T, "engine.construct", JobId);
    Private = std::make_unique<CompileCache>();
    Fresh = std::make_unique<Engine>(*J.Cfg, Private.get());
  }
  Engine &E = Warm ? *Warm : *Fresh;
  // A warm engine's counters run across jobs; this job's share is the
  // difference.
  const Thread &Th = E.thread();
  ExactCounters Before;
  Before.ModeledCycles = Th.JitCycles;
  Before.InterpSteps = Th.InterpSteps;
  Before.ThreadedSteps = Th.ThreadedSteps;
  DiskCache::Totals DiskBefore;
  if (const DiskCache *D = E.disk())
    DiskBefore = D->totals();

  // The load span closes before its children are derived from the
  // engine's timers, which report durations only.
  int32_t LoadSpan = T.open("engine.load", JobId);
  WasmError Err;
  std::unique_ptr<LoadedModule> LM = E.load(*J.Bytes, &Err);
  T.close();
  Outcome O;
  if (LM) {
    const LoadStats &St = LM->Stats;
    T.derived(LoadSpan, "wasm.decode", St.DecodeNs);
    T.derived(LoadSpan, "wasm.validate", St.ValidateNs);
    T.derived(LoadSpan, "runtime.instantiate", St.InstantiateNs);
    if (tierCompiles(J.TierIdx))
      T.derived(LoadSpan, CompileSpan[J.TierIdx], St.CompileNs);
    if (J.TierIdx == Threaded)
      T.derived(LoadSpan, "interp.predecode", St.PredecodeNs);
    O.Loaded = true;
    Scope S(T, InvokeSpan[J.TierIdx], JobId);
    uint64_t I0 = nowNs();
    O.Trap = E.invoke(*LM, J.Invoke, *J.Args, &O.Results);
    R.InvokeNs = double(nowNs() - I0);
  }
  {
    Scope S(T, "check", JobId);
    R.Got = O.exact();
    R.Ok = R.Got == *J.Expect;
    R.Ms = double(nowNs() - T0) / 1e6;
  }

  ExactCounters &C = R.Counters;
  C.ModeledCycles = Th.JitCycles - Before.ModeledCycles;
  C.InterpSteps = Th.InterpSteps - Before.InterpSteps;
  C.ThreadedSteps = Th.ThreadedSteps - Before.ThreadedSteps;
  R.Work = J.TierIdx == Int        ? double(C.InterpSteps)
           : J.TierIdx == Threaded ? double(C.ThreadedSteps)
                                   : double(C.ModeledCycles);
  if (LM) {
    const LoadStats &St = LM->Stats;
    if (J.TierIdx == Spc) {
      C.SpcInsts = St.CodeInsts;
      C.SpcTagStores = St.TagStores;
    }
    C.IrBytes = St.IrBytes;
    C.CacheHits = St.CacheHits;
    C.CacheMisses = St.CacheMisses;
    C.PoolHits = St.PoolHits;
    C.PoolMisses = St.PoolMisses;
    R.SavedNs = St.CacheSavedNs;
  }
  if (const DiskCache *D = E.disk()) {
    DiskCache::Totals DT = D->totals();
    C.DiskHits = DT.Hits - DiskBefore.Hits;
    C.DiskMisses = DT.Misses - DiskBefore.Misses;
    C.DiskStores = DT.Stores - DiskBefore.Stores;
    C.DiskRejected = DT.Rejected - DiskBefore.Rejected;
    C.DiskStoreFails = DT.StoreFails - DiskBefore.StoreFails;
  }
  if (Warm) {
    Scope S(T, "engine.recycle", JobId);
    if (LM)
      Warm->recycle(std::move(LM));
  } else {
    Scope S(T, "engine.destroy", JobId);
    LM.reset();
    Fresh.reset();
    Private.reset();
  }
  R.CycleMs = double(nowNs() - T0) / 1e6;
  return R;
}

void addJob(LayerSamples *L, const JobSpec &J, const JobResult &R) {
  L->InvokeNs[J.TierIdx] += R.InvokeNs;
  L->Work[J.TierIdx] += R.Work;
  L->CacheSavedNs += R.SavedNs;
  ++L->Jobs;
}

void collectLayers(const Tracer &T, LayerSamples *L) {
  size_t Overrun = 0;
  const std::vector<Span> &Spans = T.spans();
  std::vector<uint64_t> Self = T.selfTimes(&Overrun);
  L->Overruns += Overrun;
  L->Spans += Spans.size();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::string Name = S.Name;
    double SelfMs = double(Self[I]) / 1e6, DurMs = double(S.durNs()) / 1e6;
    if (S.Parent < 0) {
      L->JobNs += double(S.durNs());
      continue;
    }
    if (Name != "check")
      L->AttributedNs += double(Self[I]);
    if (Name == "engine.load") {
      L->Ms["engine.load"].push_back(DurMs);
      L->Ms["engine.unattributed"].push_back(SelfMs);
    } else if (Name.rfind("engine.invoke.", 0) == 0) {
      // Until wisp records spans of its own, an invoke's whole duration is
      // its tier's execution time.
      std::string Tier = Name.substr(strlen("engine.invoke."));
      const char *Layer = Tier == "int"        ? "interp.exec"
                          : Tier == "threaded" ? "threaded.exec"
                                               : "machine.exec";
      L->Ms["engine.invoke"].push_back(DurMs);
      L->Ms[Layer].push_back(DurMs);
    } else {
      L->Ms[Name].push_back(SelfMs);
    }
  }
}

// --- Reporting ---------------------------------------------------------------

void Report::set(const std::string &Name, double Value, const char *Unit) {
  for (auto &Row : Rows)
    if (Row.first == Name) {
      Row.second = {Value, Unit};
      return;
    }
  Rows.push_back({Name, {Value, Unit}});
}

std::string Report::json(bool Correct, uint64_t Attempted,
                         uint64_t Failed) const {
  std::string S = strFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      Correct ? "true" : "false", (unsigned long long)Attempted,
      (unsigned long long)Failed);
  for (size_t I = 0; I < Rows.size(); ++I)
    S += strFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   I ? ", " : "", Rows[I].first.c_str(), Rows[I].second.first,
                   Rows[I].second.second.c_str());
  return S + "}}";
}

void HostSpeed::sample() {
  static const std::vector<uint64_t> Input = [] {
    std::vector<uint64_t> V(400000);
    uint64_t X = 0x9e3779b97f4a7c15ull;
    for (uint64_t &E : V)
      E = X = X * 6364136223846793005ull + 1442695040888963407ull;
    return V;
  }();
  uint64_t T0 = nowNs();
  std::vector<uint64_t> V = Input;
  std::sort(V.begin(), V.end());
  std::vector<std::vector<uint32_t>> Small;
  for (uint32_t I = 0; I < 20000; ++I)
    Small.emplace_back(I % 64 + 1, I);
  uint64_t H = V[V.size() / 2];
  for (const std::vector<uint32_t> &S : Small)
    for (uint32_t E : S)
      H = H * 31 + E;
  Ms.push_back(double(nowNs() - T0) / 1e6);
  if (H == 0) // Keeps the work observable.
    printf("# host speed: degenerate hash\n");
}

double HostSpeed::fastestMs() const {
  return Ms.empty() ? RefMs : *std::min_element(Ms.begin(), Ms.end());
}

double HostSpeed::medianMs() const { return Ms.empty() ? RefMs : median(Ms); }

void reportEndToEnd(Report &R, double SetupS, double JobsPerS,
                    const std::vector<JobSample> &Samples, uint64_t Attempted,
                    uint64_t Failed, const HostSpeed &Speed,
                    double KernelMs) {
  std::vector<double> All;
  All.reserve(Samples.size());
  for (const JobSample &S : Samples)
    All.push_back(S.Ms);
  Percentile P50 = percentile(All, 50), P99 = percentile(All, 99);
  double F = HostSpeed::RefMs / KernelMs;
  printf("# job latency: %zu samples; p99 has %zu beyond it%s\n"
         "# host speed kernel: fastest %.3f ms, median %.3f ms; times "
         "scaled by %.4f\n",
         P99.Samples, P99.Beyond,
         P99.trustworthy() ? "" : " (fewer than 10: read it as a maximum)",
         Speed.fastestMs(), Speed.medianMs(), F);

  R.set("setup_s", SetupS * F, "s");
  R.set("jobs_per_s", JobsPerS / F, "jobs/s");
  R.set("job_ms_p50", P50.Value * F, "ms");
  R.set("job_ms_p99", P99.Value * F, "ms");
  R.set("ok_frac",
        Attempted ? double(Attempted - Failed) / double(Attempted) : 0,
        "ratio");
  R.set("peak_rss_mb", peakRssMb(), "MB");
  for (int T = 0; T < NumTiers; ++T) {
    std::vector<double> Tier;
    for (const JobSample &S : Samples)
      if (S.TierIdx == T)
        Tier.push_back(S.Ms);
    R.set(std::string("tier_ms.") + TierNames[T], geomean(Tier) * F, "ms");
  }
}

namespace {

double med(const LayerSamples &L, const char *Layer) {
  auto It = L.Ms.find(Layer);
  return It == L.Ms.end() ? 0 : median(It->second);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

} // namespace

void reportLayers(Report &R, const LayerSamples &L, const DirectLayers &D) {
  const ExactCounters &C = L.Counters;
  // MB/s from bytes and nanoseconds: bytes/ns * 1e3.
  auto MbPerS = [](double Bytes, double Ns) { return ratio(Bytes, Ns) * 1e3; };

  R.set("wasm.decode.ms", median(D.DecodeMs), "ms");
  R.set("wasm.validate.ms", median(D.ValidateMs), "ms");
  R.set("wasm.validate.code_mb_per_s", MbPerS(D.CodeBytes, D.ValidateNs),
        "MB/s");
  R.set("analysis.analyze.ms", median(D.AnalyzeMs), "ms");
  R.set("analysis.precheck.ms", median(D.PrecheckMs), "ms");

  R.set("spc.compile.ms", median(D.CompileMs[0]), "ms");
  R.set("spc.code_mb_per_s", MbPerS(D.CodeBytes, D.CompileNs[0]), "MB/s");
  R.set("spc.insts_emitted", double(C.SpcInsts), "count");
  R.set("spc.tag_stores", double(C.SpcTagStores), "count");
  R.set("opt.compile.ms", median(D.CompileMs[3]), "ms");
  R.set("opt.code_mb_per_s", MbPerS(D.CodeBytes, D.CompileNs[3]), "MB/s");
  R.set("baselines.copypatch.compile.ms", median(D.CompileMs[1]), "ms");
  R.set("baselines.twopass.compile.ms", median(D.CompileMs[2]), "ms");

  R.set("verify.ms", median(D.VerifySpcMs), "ms");
  R.set("verify.over_compile", ratio(D.VerifySpcNs, D.CompileNs[0]),
        "ratio");
  R.set("verify.findings", double(D.Findings), "count");

  R.set("interp.predecode.ms", median(D.PredecodeMs), "ms");
  R.set("interp.ir_bytes", double(C.IrBytes), "bytes");
  R.set("interp.exec.ms", med(L, "interp.exec"), "ms");
  R.set("interp.steps", double(C.InterpSteps), "count");
  R.set("interp.ns_per_step", ratio(L.InvokeNs[Int], L.Work[Int]), "ns");
  R.set("threaded.exec.ms", med(L, "threaded.exec"), "ms");
  R.set("threaded.steps", double(C.ThreadedSteps), "count");
  R.set("threaded.ns_per_step", ratio(L.InvokeNs[Threaded], L.Work[Threaded]),
        "ns");
  R.set("machine.exec.ms", med(L, "machine.exec"), "ms");
  R.set("machine.modeled_cycles", double(C.ModeledCycles), "count");
  double JitNs = 0, JitCycles = 0;
  for (int T = Spc; T < NumTiers; ++T) {
    JitNs += L.InvokeNs[T];
    JitCycles += L.Work[T];
  }
  R.set("machine.ns_per_modeled_cycle", ratio(JitNs, JitCycles), "ns");
  for (int T = Spc; T < NumTiers; ++T)
    R.set(std::string("machine.ns_per_modeled_cycle.") + TierNames[T],
          ratio(L.InvokeNs[T], L.Work[T]), "ns");

  R.set("runtime.instantiate.ms", median(D.InstantiateMs), "ms");
  R.set("runtime.image_instantiate.ms", median(D.ImageInstantiateMs), "ms");
  R.set("runtime.pool_hit_ratio",
        ratio(double(C.PoolHits), double(C.PoolHits + C.PoolMisses)),
        "ratio");

  R.set("cache.hit_ratio",
        ratio(double(C.CacheHits), double(C.CacheHits + C.CacheMisses)),
        "ratio");
  R.set("cache.saved_ms", ratio(double(L.CacheSavedNs) / 1e6, double(L.Jobs)),
        "ms");
  R.set("cache.disk.load.ms", median(D.DiskLoadMs), "ms");
  R.set("cache.disk.hit_ratio",
        ratio(double(C.DiskHits), double(C.DiskHits + C.DiskMisses)),
        "ratio");
  R.set("cache.disk.rejected", double(C.DiskRejected + D.DiskRejected),
        "count");
  R.set("cache.disk.store.ms", median(D.DiskStoreMs), "ms");
  R.set("cache.disk.store_fails", double(C.DiskStoreFails + D.DiskStoreFails),
        "count");

  R.set("engine.load.ms", med(L, "engine.load"), "ms");
  R.set("engine.invoke.ms", med(L, "engine.invoke"), "ms");
  R.set("engine.unattributed.ms", med(L, "engine.unattributed"), "ms");

  R.set("service.queue_wait.ms", L.Service.QueueWaitMs, "ms");
  R.set("service.service_ms_p50", L.Service.ServiceP50Ms, "ms");
  R.set("service.rejected", double(L.Service.Rejected), "count");
  R.set("service.late_ms_max", L.Service.LateMaxMs, "ms");

  R.set("trace.overhead_ms", L.OverheadMs, "ms");
  R.set("trace.attributed_frac", ratio(L.AttributedNs, L.JobNs), "ratio");
  R.set("trace.spans", double(L.Spans), "count");
  R.set("trace.deterministic", L.Deterministic ? 1 : 0, "bool");
}

bool traceChecksPass(const LayerSamples &L, const DirectLayers &D) {
  double Frac = ratio(L.AttributedNs, L.JobNs);
  bool Reconciled = Frac >= 0.97 && L.Overruns == 0;
  printf("# trace: %zu spans, layers cover %.4f of job time, %zu overruns, "
         "tracing overhead %.4f ms/job, %llu verifier findings\n",
         L.Spans, Frac, L.Overruns, L.OverheadMs,
         (unsigned long long)D.Findings);
  if (!Reconciled)
    fprintf(stderr, "e2ebench: layer-sum reconciliation failed\n");
  return Reconciled && D.Findings == 0;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB on Linux.
}

void freshDir(const std::string &Dir) {
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
}

} // namespace e2ebench
