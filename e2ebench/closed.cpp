//===- e2ebench/closed.cpp - the startup workload -------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The closed-loop workload, startup: one client runs a job, checks its
// output and only then starts the next. A pass runs every (input, tier) job
// once in a seeded order; a run is whole passes until the next would
// overrun --seconds. Per-job latency runs from engine construction to the
// checked result.
//
// The inputs are seeded, distinct random modules (tens of KB of code), each
// loaded once per tier and invoked once; each job gets a fresh engine and a
// fresh private compile cache (decode and validate every time, like a new
// process) with artifact verification on. Shows decode, validate, the
// compilers, verify, predecode and instantiate. No disk cache: creating its
// per-artifact files on a shared virtual disk made whole passes vary
// 1.2-8 s; the store path is timed per artifact in the traced run and runs
// on serve's blocking path for the one-off modules.
//
//===----------------------------------------------------------------------===//

#include "layers.h"
#include "workload.h"

#include "support/format.h"
#include "support/rng.h"

#include <algorithm>
#include <map>

using namespace wisp;

namespace e2ebench {

namespace {

/// Distinct generated modules per startup pass: x 6 tiers = 1008 jobs.
constexpr int StartupModules = 168;
/// Setup repetitions whose median is setup_s (one takes about half a
/// second: it runs the interpreter references).
constexpr int StartupSetupReps = 5;

/// The inputs of the closed-loop workload.
struct Inputs {
  std::vector<std::vector<uint8_t>> Modules;
  std::vector<std::string> Expect; ///< Per module: Outcome::exact().
  EngineConfig Cfgs[NumTiers];
};

/// Runs whole passes over every (module, tier) job until the next pass
/// would overrun the budget. With tracing, passes alternate untraced and
/// traced so the tracing overhead is measured under the same conditions.
RunOutcome runClosedLoop(const Options &O, Inputs &In, double SetupS) {
  RunOutcome Out;
  std::vector<JobSpec> Jobs;
  for (uint32_t M = 0; M < In.Modules.size(); ++M)
    for (int T = 0; T < NumTiers; ++T) {
      JobSpec J;
      J.TierIdx = T;
      J.Item = M;
      J.Bytes = &In.Modules[M];
      J.Invoke = "f";
      J.Args = &generatedArgs();
      J.Expect = &In.Expect[M];
      J.Cfg = &In.Cfgs[T];
      Jobs.push_back(J);
    }

  Rng R(O.Seed ^ 0x6a09e667f3bcc908ull);
  std::vector<JobSample> Samples, Traced;
  std::map<std::pair<int, uint32_t>, double> BestCycle;
  LayerSamples L;
  Tracer Tr(O.Trace);
  Tracer Off(false);
  ExactCounters FirstPass;
  double Wall = 0, LastPass = 0;
  std::vector<double> PassMs;
  HostSpeed Speed;
  size_t MinPasses = O.Trace ? 4 : 2;
  uint64_t JobId = 0;
  for (size_t Pass = 0;
       Pass < MinPasses || Wall + LastPass <= O.Seconds * 1e3; ++Pass) {
    // Seeded Fisher-Yates: the seed sets the job order, nothing else.
    for (size_t I = Jobs.size(); I > 1; --I)
      std::swap(Jobs[I - 1], Jobs[R.below(I)]);
    bool Tracing = O.Trace && Pass % 2 == 1;
    for (int I = 0; I < 3; ++I)
      Speed.sample();
    ExactCounters Counters;
    double P0 = nowMs();
    for (const JobSpec &J : Jobs) {
      JobResult Res = runJob(J, Tracing ? Tr : Off, JobId++);
      ++Out.Attempted;
      if (!Res.Ok) {
        ++Out.Failed;
        fprintf(stderr, "e2ebench: job %s on %s: got %s, want %s\n",
                std::to_string(J.Item).c_str(), TierNames[J.TierIdx],
                Res.Got.c_str(), J.Expect->c_str());
      }
      Counters += Res.Counters;
      (Tracing ? Traced : Samples).push_back({J.TierIdx, J.Item, Res.Ms});
      auto [It, New] = BestCycle.try_emplace({J.TierIdx, J.Item}, Res.CycleMs);
      if (!New)
        It->second = std::min(It->second, Res.CycleMs);
      if (Tracing)
        addJob(&L, J, Res);
    }
    LastPass = nowMs() - P0;
    Wall += LastPass;
    PassMs.push_back(LastPass);
    // Determinism self-check: every pass runs the same jobs in fresh
    // engines, so its exact counters must repeat.
    if (Pass == 0) {
      FirstPass = Counters;
    } else if (!(Counters == FirstPass)) {
      L.Deterministic = false;
      fprintf(stderr, "e2ebench: pass %zu counters differ:\n  %s\n  %s\n",
              Pass, FirstPass.text().c_str(), Counters.text().c_str());
    }
  }
  std::string PassText;
  for (double Ms : PassMs)
    PassText += strFormat(" %.0f", Ms);
  printf("# %zu passes over %zu jobs, ms:%s (spread %.3f)\n"
         "# counters per pass: %s\n",
         PassMs.size(), Jobs.size(), PassText.c_str(),
         relativeSpread(PassMs), FirstPass.text().c_str());
  Out.Correct = Out.Failed == 0 && L.Deterministic;
  if (!O.Trace) {
    // Contention from other tenants of a shared host only ever slows a
    // job, in phases lasting seconds, so a job's latency is the fastest of
    // its repeats (one per pass): per-item medians over passes spread
    // 16-24% from run to run on a 4-core VM, per-item bests 4-8%.
    std::map<std::pair<int, uint32_t>, double> Best;
    for (const JobSample &S : Samples) {
      auto [It, New] = Best.try_emplace({S.TierIdx, S.Item}, S.Ms);
      if (!New)
        It->second = std::min(It->second, S.Ms);
    }
    std::vector<JobSample> Bests;
    for (auto &[Key, Ms] : Best)
      Bests.push_back({Key.first, Key.second, Ms});
    // Times are scaled by the host-speed kernel's fastest sample: like the
    // jobs' bests, it comes from the host's fast moments. Over eight seeds
    // this cut the spread of the time metrics from 8-13% to 2-4.5%
    // (scaling by the median sample: 7-9%).
    //
    // One client, one job at a time: throughput is jobs per second of the
    // client's whole time on them, engine teardown included, each job at
    // its fastest for the same reason. (The fastest whole pass spread 16%
    // over ten seeds; this sum, 3-4%.)
    double CycleMs = 0;
    for (auto &[Key, Ms] : BestCycle)
      CycleMs += Ms;
    reportEndToEnd(Out.Metrics, SetupS,
                   double(BestCycle.size()) / (CycleMs / 1e3), Bests,
                   Out.Attempted, Out.Failed, Speed, Speed.fastestMs());
    return Out;
  }

  collectLayers(Tr, &L);
  L.Counters = FirstPass;
  std::vector<double> Untraced, TracedMs;
  for (const JobSample &S : Samples)
    Untraced.push_back(S.Ms);
  for (const JobSample &S : Traced)
    TracedMs.push_back(S.Ms);
  L.OverheadMs = median(TracedMs) - median(Untraced);
  std::vector<const std::vector<uint8_t> *> Mods;
  for (const std::vector<uint8_t> &M : In.Modules)
    Mods.push_back(&M);
  std::string LayerDir = O.WorkDir + "/layers-disk";
  freshDir(LayerDir);
  DirectLayers D = measureLayers(Mods, LayerDir);
  reportLayers(Out.Metrics, L, D);
  Tr.write(O.WorkDir + "/trace-" + O.Workload + ".jsonl");

  Out.Correct = Out.Correct && traceChecksPass(L, D);
  return Out;
}

} // namespace

RunOutcome runStartup(const Options &O) {
  Inputs In;
  std::string Why;
  bool Ok = true;
  double SetupS = timedSetup(StartupSetupReps, [&] {
    In.Modules.clear();
    In.Expect.clear();
    Rng R(O.Seed);
    for (int I = 0; I < StartupModules; ++I) {
      In.Modules.push_back(generateModule(R.next()));
      Outcome Ref;
      if (!interpreterReference(In.Modules.back(), &Ref, &Why))
        Ok = false;
      In.Expect.push_back(Ref.exact());
    }
  });
  if (!Ok) {
    fprintf(stderr, "e2ebench: interpreters disagree: %s\n", Why.c_str());
    RunOutcome Out;
    Out.Correct = false;
    return Out;
  }
  for (int T = 0; T < NumTiers; ++T) {
    In.Cfgs[T] = tierConfig(T);
    In.Cfgs[T].VerifyArtifacts = true;
  }
  return runClosedLoop(O, In, SetupS);
}

} // namespace e2ebench
