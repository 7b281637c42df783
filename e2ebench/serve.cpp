//===- e2ebench/serve.cpp - the serve workload ------------------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Warm service, open loop. One in-process runServe session with two
// workers reads job lines from a pipe; one benchmark thread sends them on a
// fixed schedule and reads the `done` lines from another pipe (four threads
// on a four-core machine). A job's latency runs from its scheduled send
// time to the moment its done line is read, so a stall also charges the
// jobs queued behind it.
//
// Job stream (seeded): suite items at scale 1 on the six tiers, each
// (item, tier) pair in proportion to a Zipf popularity over the 468 pairs,
// plus a fixed share of one-off generated modules written to files at
// set-up. Popularity ranks and job counts are fixed, not seeded, so every
// seed offers the same mix of work; the seed sets the job order and the
// one-off modules. The
// disk cache is pre-warmed at set-up for the most popular pairs only, so a
// session exercises disk reads with re-verification on first contact,
// process-cache hits and pooled re-imaging afterwards, and full compiles,
// disk stores and static prechecks for the one-off modules.
//
// The offered rate climbs a fixed ladder inside each session, one phase per
// rung, so the cold start falls on the lowest rate and every rung has
// enough samples for its p99. A session starts fresh, with a
// fresh copy of the pre-warmed disk directory, and the run repeats the same
// session (same jobs at the same offsets) as often as --seconds allows; a
// job's latency is its best over the repeats, since contention from other
// tenants of a shared host only ever slows a session. The latency metrics
// come from the highest rung whose p99 meets the latency limit without a
// growing backlog. jobs_per_s is the workers' capacity: served jobs per
// second of worker busy time, times the worker count.
//
//===----------------------------------------------------------------------===//

#include "layers.h"
#include "workload.h"

#include "service/serve.h"
#include "suites/suites.h"
#include "support/format.h"
#include "support/rng.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace wisp;

namespace e2ebench {

namespace {

constexpr int Workers = 2;
/// Offered rates of the ladder's rungs, ascending (jobs/s). Two rungs keep
/// a session short (6.2 s), so a 50 s run repeats it eight times and each
/// job's best latency comes from eight tries.
constexpr double Ladder[] = {350, 600};
constexpr size_t NumRungs = std::size(Ladder);
/// Jobs per rung: at least 1000, for a p99 with ten samples beyond it. The
/// top rung, which normally gives the metrics, gets twice that: its p99
/// falls among the one-off modules, and more of them steady it.
constexpr size_t PhaseJobs[NumRungs] = {1000, 2000};
/// The p99 latency limit a rung must meet.
constexpr double LimitMs = 100;
/// Share of jobs that run a one-off generated module: large enough that a
/// rung's p99 falls among them (30 per 1000 jobs) rather than on the edge
/// between them and warm jobs.
constexpr double OneOffShare = 0.03;
/// Most popular (item, tier) pairs whose artifacts are on disk at start.
constexpr size_t WarmPairs = 48;
constexpr double ZipfS = 1.0;
constexpr int SetupReps = 5;

struct Pair {
  uint32_t Item = 0;
  int TierIdx = 0;
};

struct ServeInputs {
  std::vector<LineItem> Items;       ///< Scale-1 suite items.
  std::vector<std::string> ItemText; ///< Per item: expected serve text.
  std::vector<std::string> ItemExact;
  std::vector<Pair> ByRank;   ///< Pairs in fixed popularity order.
  std::vector<double> ZipfPmf; ///< Popularity share by rank.
  std::vector<std::string> OneOffPath;
  std::vector<std::vector<uint8_t>> OneOffBytes;
  std::vector<std::string> OneOffText, OneOffExact;
  std::string WarmDir; ///< The pre-warmed disk template.
};

/// One scheduled job of a rung.
struct Job {
  std::string Line;
  double DueMs = 0;
  int TierIdx = 0;
  uint32_t Item = 0; ///< Suite item index, or 1000 + one-off index.
  size_t Rung = 0;
  bool OneOff = false;
  const std::string *Expect = nullptr; ///< Serve text.
};

/// Turns an Outcome::exact() text into the serve protocol's text.
bool serveTextOfExact(const std::string &Exact, std::string *Out) {
  if (Exact.rfind("trap:", 0) == 0) {
    *Out = "trap: " + Exact.substr(5);
    return true;
  }
  Outcome O;
  O.Loaded = true;
  size_t Colon = Exact.find(':');
  if (Colon == std::string::npos)
    return false;
  std::string Ty = Exact.substr(0, Colon);
  Value V;
  V.Bits = strtoull(Exact.c_str() + Colon + 1, nullptr, 16);
  if (Ty == "i32")
    V.Type = ValType::I32;
  else if (Ty == "i64")
    V.Type = ValType::I64;
  else if (Ty == "f32")
    V.Type = ValType::F32;
  else if (Ty == "f64")
    V.Type = ValType::F64;
  else
    return false;
  O.Results.push_back(V);
  *Out = O.serveText();
  return true;
}

std::string jobLine(const ServeInputs &In, const Job &J, size_t Id) {
  if (J.OneOff)
    return strFormat("%s tier=%s invoke=f args=7,13,1.5,-2.25 id=%zu\n",
                     In.OneOffPath[J.Item - 1000].c_str(),
                     TierNames[J.TierIdx], Id);
  const LineItem &I = In.Items[J.Item];
  return strFormat("%s/%s tier=%s id=%zu\n", I.Suite.c_str(), I.Name.c_str(),
                   TierNames[J.TierIdx], Id);
}

/// One-off jobs in rung \p K: a fixed share of its jobs.
size_t oneOffJobs(size_t K) {
  return size_t(std::lround(double(PhaseJobs[K]) * OneOffShare));
}

/// The seeded job stream of one session: PhaseJobs[K] jobs for rung K,
/// evenly spaced at its rate, rungs in ascending order. Each rung's mix is
/// fixed: its one-off jobs spread evenly over the tiers, and each (item,
/// tier) pair gets its Zipf share of the rest (largest remainders). The
/// seed sets the order of a rung's jobs and the one-off modules, so every
/// seed offers the same mix of work.
std::vector<Job> makeStream(const ServeInputs &In, uint64_t Seed) {
  Rng R(Seed);
  std::vector<Job> Jobs;
  size_t NextOneOff = 0;
  double Due = 0;
  for (size_t K = 0; K < NumRungs; ++K) {
    std::vector<Job> Rung;
    for (size_t I = 0; I < oneOffJobs(K); ++I) {
      Job J;
      J.OneOff = true;
      J.Item = uint32_t(1000 + NextOneOff);
      J.TierIdx = int(I % NumTiers);
      J.Expect = &In.OneOffText[NextOneOff++];
      Rung.push_back(std::move(J));
    }
    size_t Warm = PhaseJobs[K] - Rung.size(), Given = 0;
    std::vector<size_t> Count(In.ByRank.size());
    std::vector<std::pair<double, size_t>> Rest; // (fraction, rank)
    for (size_t Rank = 0; Rank < Count.size(); ++Rank) {
      double Share = In.ZipfPmf[Rank] * double(Warm);
      Count[Rank] = size_t(Share);
      Given += Count[Rank];
      Rest.push_back({Share - double(Count[Rank]), Rank});
    }
    std::stable_sort(Rest.begin(), Rest.end(),
                     [](const auto &A, const auto &B) {
                       return A.first > B.first;
                     });
    for (size_t I = 0; Given < Warm; ++I, ++Given)
      ++Count[Rest[I].second];
    for (size_t Rank = 0; Rank < Count.size(); ++Rank)
      for (size_t C = 0; C < Count[Rank]; ++C) {
        Job J;
        J.Item = In.ByRank[Rank].Item;
        J.TierIdx = In.ByRank[Rank].TierIdx;
        J.Expect = &In.ItemText[J.Item];
        Rung.push_back(std::move(J));
      }
    for (size_t I = Rung.size(); I > 1; --I)
      std::swap(Rung[I - 1], Rung[R.below(I)]);
    for (Job &J : Rung) {
      J.DueMs = Due;
      J.Rung = K;
      J.Line = jobLine(In, J, Jobs.size());
      Jobs.push_back(std::move(J));
      Due += 1e3 / Ladder[K];
    }
  }
  return Jobs;
}

/// What one session measured.
struct SessionResult {
  std::vector<double> LatMs; ///< Per job: due -> done line read.
  std::vector<double> ReadMs; ///< Per job: done line read, from start.
  std::vector<double> Outstanding; ///< Per job: sampled at its send.
  std::vector<char> Wrong; ///< Per job: wrong output, error or reject.
  std::vector<char> Rejected; ///< Per job: answered with a reject line.
  /// Per job: the service's own latency (admission to done line) and
  /// worker service time, from ServeStats; -1 for jobs never accepted.
  std::vector<double> ServeLatMs, ServiceMs;
  size_t Failed = 0;
  double LateMaxMs = 0;
  ServeStats Stats;
};

/// Runs \p Jobs through one serve session on schedule.
SessionResult runSession(const std::vector<Job> &Jobs,
                         const std::string &CacheDir) {
  SessionResult S;
  int InPipe[2], OutPipe[2];
  if (pipe(InPipe) != 0 || pipe(OutPipe) != 0) {
    S.Failed = Jobs.size();
    return S;
  }
  FILE *ServeIn = fdopen(InPipe[0], "r");
  FILE *ServeOut = fdopen(OutPipe[1], "w");
  ServeOptions Opts;
  Opts.Workers = Workers;
  Opts.QueueCap = 4096; // Latency is measured, not shedding.
  Opts.CacheDir = CacheDir;
  std::thread Server([&] {
    S.Stats = runServe(ServeIn, ServeOut, Opts);
    fclose(ServeOut); // EOF for the reader below.
    fclose(ServeIn);
  });

  S.LatMs.assign(Jobs.size(), -1);
  S.ReadMs.assign(Jobs.size(), 0);
  S.Wrong.assign(Jobs.size(), 0);
  S.Rejected.assign(Jobs.size(), 0);
  size_t Next = 0, Answered = 0;
  std::string Buf;
  char Chunk[65536];
  double T0 = nowMs();
  bool OutOpen = true;
  auto Handle = [&](const std::string &Line, double Now) {
    // "done <id> <body> ms=<latency>" or "reject <id> <why>".
    bool Done = Line.rfind("done ", 0) == 0;
    if (!Done && Line.rfind("reject ", 0) != 0)
      return; // '#' chatter.
    size_t IdEnd = Line.find(' ', Done ? 5 : 7);
    size_t Id = strtoull(Line.c_str() + (Done ? 5 : 7), nullptr, 10);
    if (Id >= Jobs.size() || S.LatMs[Id] >= 0)
      return;
    ++Answered;
    S.Rejected[Id] = !Done;
    S.LatMs[Id] = Now - T0 - Jobs[Id].DueMs;
    S.ReadMs[Id] = Now - T0;
    size_t MsAt = Line.rfind(" ms=");
    std::string Body = Done && IdEnd != std::string::npos && MsAt > IdEnd
                           ? Line.substr(IdEnd + 1, MsAt - IdEnd - 1)
                           : std::string();
    if (!Done || Body != *Jobs[Id].Expect) {
      ++S.Failed;
      S.Wrong[Id] = 1;
      fprintf(stderr, "e2ebench: serve job %zu (%s): got '%s', want '%s'\n",
              Id, Jobs[Id].Line.substr(0, Jobs[Id].Line.size() - 1).c_str(),
              Line.c_str(), Jobs[Id].Expect->c_str());
    }
  };
  while (OutOpen) {
    double Now = nowMs() - T0;
    if (Next < Jobs.size() && Now >= Jobs[Next].DueMs) {
      S.LateMaxMs = std::max(S.LateMaxMs, Now - Jobs[Next].DueMs);
      S.Outstanding.push_back(double(Next - Answered));
      const std::string &L = Jobs[Next].Line;
      if (write(InPipe[1], L.data(), L.size()) != ssize_t(L.size()))
        break;
      if (++Next == Jobs.size())
        close(InPipe[1]); // EOF: the session drains and returns.
      continue;
    }
    double WaitMs = Next < Jobs.size() ? Jobs[Next].DueMs - Now : 100;
    struct timespec Ts;
    Ts.tv_sec = time_t(WaitMs / 1e3);
    Ts.tv_nsec = long(std::fmod(WaitMs, 1e3) * 1e6);
    struct pollfd P = {OutPipe[0], POLLIN, 0};
    if (ppoll(&P, 1, &Ts, nullptr) <= 0)
      continue;
    ssize_t Got = read(OutPipe[0], Chunk, sizeof(Chunk));
    if (Got <= 0) {
      OutOpen = false;
      break;
    }
    double ReadAt = nowMs();
    Buf.append(Chunk, size_t(Got));
    size_t Nl;
    while ((Nl = Buf.find('\n')) != std::string::npos) {
      Handle(Buf.substr(0, Nl), ReadAt);
      Buf.erase(0, Nl + 1);
    }
  }
  if (Next < Jobs.size())
    close(InPipe[1]);
  Server.join();
  close(OutPipe[0]);
  S.Failed += Jobs.size() - Answered;
  // ServeStats index jobs in acceptance order: the order they were sent,
  // without the rejected ones.
  S.ServeLatMs.assign(Jobs.size(), -1);
  S.ServiceMs.assign(Jobs.size(), -1);
  for (size_t I = 0, K = 0; I < Next && K < S.Stats.ServiceMs.size(); ++I)
    if (!S.Rejected[I]) {
      S.ServeLatMs[I] = S.Stats.LatenciesMs[K];
      S.ServiceMs[I] = S.Stats.ServiceMs[K++];
    }
  return S;
}

/// Copies the pre-warmed disk template into a fresh session directory.
void warmCopy(const ServeInputs &In, const std::string &Dir) {
  freshDir(Dir);
  std::filesystem::copy(In.WarmDir, Dir,
                        std::filesystem::copy_options::recursive);
}

/// Scheduled length of one session in seconds.
double sessionSeconds() {
  double S = 0;
  for (size_t K = 0; K < NumRungs; ++K)
    S += double(PhaseJobs[K]) / Ladder[K];
  return S;
}

bool setupServe(const Options &O, ServeInputs *In, std::string *Err) {
  *In = ServeInputs();
  Expected Exp;
  if (!Exp.load(O.BenchDir + "/expected.txt", Err))
    return false;
  In->Items = allSuites(1);
  for (const LineItem &I : In->Items) {
    const std::string *E = Exp.find(1, I.Suite + "/" + I.Name);
    std::string Text;
    if (!E || !serveTextOfExact(*E, &Text)) {
      *Err = "no expected outcome for " + I.Suite + "/" + I.Name;
      return false;
    }
    In->ItemExact.push_back(*E);
    In->ItemText.push_back(Text);
  }
  // Fixed popularity ranks: a constant shuffle of all (item, tier) pairs.
  for (uint32_t I = 0; I < In->Items.size(); ++I)
    for (int T = 0; T < NumTiers; ++T)
      In->ByRank.push_back({I, T});
  Rng Fixed(0x5eed);
  for (size_t I = In->ByRank.size(); I > 1; --I)
    std::swap(In->ByRank[I - 1], In->ByRank[Fixed.below(I)]);
  double Sum = 0;
  for (size_t R = 0; R < In->ByRank.size(); ++R) {
    In->ZipfPmf.push_back(1.0 / std::pow(double(R + 1), ZipfS));
    Sum += In->ZipfPmf.back();
  }
  for (double &P : In->ZipfPmf)
    P /= Sum;

  // One module per one-off job of a session.
  std::string Dir = O.WorkDir + "/serve-oneoff";
  freshDir(Dir);
  size_t Need = 0;
  for (size_t K = 0; K < NumRungs; ++K)
    Need += oneOffJobs(K);
  Rng R(O.Seed ^ 0x0ff0ff);
  for (size_t K = 0; K < Need; ++K) {
    std::vector<uint8_t> Bytes = generateModule(R.next());
    Outcome Ref;
    std::string Why, Text;
    if (!interpreterReference(Bytes, &Ref, &Why) ||
        !serveTextOfExact(Ref.exact(), &Text)) {
      *Err = "interpreters disagree on a one-off module: " + Why;
      return false;
    }
    std::string Path = strFormat("%s/m%zu.wasm", Dir.c_str(), K);
    std::ofstream(Path, std::ios::binary)
        .write(reinterpret_cast<const char *>(Bytes.data()),
               std::streamsize(Bytes.size()));
    In->OneOffPath.push_back(Path);
    In->OneOffBytes.push_back(std::move(Bytes));
    In->OneOffExact.push_back(Ref.exact());
    In->OneOffText.push_back(Text);
  }

  // Pre-warm the disk template through a serve session of its own, so
  // the artifacts carry exactly the keys the measured sessions look up.
  In->WarmDir = O.WorkDir + "/serve-warm";
  freshDir(In->WarmDir);
  std::vector<Job> Warm;
  for (size_t P = 0; P < WarmPairs; ++P) {
    Job J;
    J.Item = In->ByRank[P].Item;
    J.TierIdx = In->ByRank[P].TierIdx;
    J.Expect = &In->ItemText[J.Item];
    J.Line = jobLine(*In, J, P);
    Warm.push_back(std::move(J));
  }
  SessionResult S = runSession(Warm, In->WarmDir);
  if (S.Failed) {
    *Err = "disk pre-warm session failed";
    return false;
  }
  return true;
}

/// The traced run's replay of one rung's job stream through the same
/// public calls a serve worker makes (warm governed engine per tier,
/// shared compile cache, instance pool, disk level), single-threaded so
/// the engine's counters can be read after every call.
ExactCounters replay(const Options &O, const ServeInputs &In,
                     const std::vector<Job> &Jobs, Tracer &Tr,
                     LayerSamples *L, std::vector<double> *JobMs,
                     size_t *Failed) {
  std::string Dir = O.WorkDir + "/serve-replay-disk";
  warmCopy(In, Dir);
  CompileCache Cache;
  InstancePool Pool;
  std::unique_ptr<Engine> Engines[NumTiers];
  EngineConfig Cfgs[NumTiers];
  for (int T = 0; T < NumTiers; ++T) {
    Cfgs[T] = tierConfig(T);
    Cfgs[T].DiskCacheDir = Dir;
    Cfgs[T].Interruptible = true; // Serve engines are governed.
    Engines[T] = std::make_unique<Engine>(Cfgs[T], &Cache, &Pool);
    installGcHostFuncs(*Engines[T]);
  }
  static const std::vector<Value> NoArgs;
  ExactCounters C;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const Job &J = Jobs[I];
    JobSpec S;
    S.TierIdx = J.TierIdx;
    S.Item = J.Item;
    S.Bytes = J.OneOff ? &In.OneOffBytes[J.Item - 1000] : &In.Items[J.Item].Bytes;
    S.Invoke = J.OneOff ? "f" : "run";
    S.Args = J.OneOff ? &generatedArgs() : &NoArgs;
    S.Expect = J.OneOff ? &In.OneOffExact[J.Item - 1000]
                        : &In.ItemExact[J.Item];
    S.Cfg = &Cfgs[J.TierIdx];
    JobResult R = runJob(S, Tr, I, Engines[J.TierIdx].get());
    if (!R.Ok)
      ++*Failed;
    C += R.Counters;
    JobMs->push_back(R.Ms);
    if (L)
      addJob(L, S, R);
  }
  return C;
}

} // namespace

RunOutcome runServeWorkload(const Options &O) {
  RunOutcome Out;
  ServeInputs In;
  std::string Err;
  bool Ok = true;
  double SetupS = timedSetup(SetupReps, [&] {
    Ok = Ok && setupServe(O, &In, &Err);
  });
  if (!Ok) {
    fprintf(stderr, "e2ebench: serve set-up: %s\n", Err.c_str());
    Out.Correct = false;
    return Out;
  }
  std::string SessionDir = O.WorkDir + "/serve-disk";
  std::vector<Job> Stream = makeStream(In, O.Seed);
  size_t N = Stream.size();

  if (!O.Trace) {
    int Repeats = std::max(1, int(O.Seconds / sessionSeconds()));
    std::vector<double> Best(N, -1), BestService(N, -1), SessionP50;
    std::vector<Rung> Rungs(NumRungs);
    HostSpeed Speed;
    for (int Rep = 0; Rep < Repeats; ++Rep) {
      for (int I = 0; I < 3; ++I)
        Speed.sample();
      warmCopy(In, SessionDir);
      SessionResult S = runSession(Stream, SessionDir);
      Out.Attempted += N;
      Out.Failed += S.Failed;
      for (size_t I = 0; I < N; ++I) {
        if (S.LatMs[I] >= 0 && (Best[I] < 0 || S.LatMs[I] < Best[I]))
          Best[I] = S.LatMs[I];
        if (S.ServiceMs[I] >= 0 &&
            (BestService[I] < 0 || S.ServiceMs[I] < BestService[I]))
          BestService[I] = S.ServiceMs[I];
      }
      for (size_t K = 0, Lo = 0; K < NumRungs; Lo += PhaseJobs[K++]) {
        size_t Hi = Lo + PhaseJobs[K];
        std::vector<double> Lat(S.LatMs.begin() + Lo, S.LatMs.begin() + Hi);
        std::vector<double> Backlog(S.Outstanding.begin() + Lo,
                                    S.Outstanding.begin() + Hi);
        size_t Failed = 0;
        for (size_t I = Lo; I < Hi; ++I)
          Failed += S.LatMs[I] < 0 || S.Wrong[I];
        bool Growing = backlogGrowing(Backlog);
        Rungs[K].OfferedPerS = Ladder[K];
        Rungs[K].Growing = Rungs[K].Growing || Growing;
        Rungs[K].Failed += Failed;
        printf("# session %d, rung %.0f jobs/s: p50 %.3f ms, p99 %.3f ms, "
               "backlog %s, %zu failed\n",
               Rep, Ladder[K], median(Lat), percentile(Lat, 99).Value,
               Growing ? "growing" : "steady", Failed);
      }
      printf("# session %d: generator late by up to %.3f ms\n", Rep,
             S.LateMaxMs);
      SessionP50.push_back(median(S.LatMs));
    }
    std::vector<JobSample> Samples[NumRungs];
    for (size_t I = 0; I < N; ++I)
      if (Best[I] >= 0)
        Samples[Stream[I].Rung].push_back(
            {Stream[I].TierIdx, Stream[I].Item, Best[I]});
    for (size_t K = 0; K < NumRungs; ++K) {
      std::vector<double> Lat;
      for (const JobSample &S : Samples[K])
        Lat.push_back(S.Ms);
      Rungs[K].P99Ms = percentile(Lat, 99).Value;
    }
    int Top = highestPassingRung(Rungs, LimitMs);
    size_t K = Top >= 0 ? size_t(Top) : 0;
    // The workers' capacity: served jobs per second of worker busy time
    // (each job's best service time over the sessions), times the worker
    // count. The ladder's top rung sits below saturation, so the highest
    // passing rate would read the same for any regression short of about
    // 60%; busy time moves with every change to a worker's path.
    double BusyMs = 0;
    size_t Served = 0;
    for (double Ms : BestService)
      if (Ms >= 0) {
        BusyMs += Ms;
        ++Served;
      }
    double JobsPerS = BusyMs > 0 ? Workers * double(Served) / (BusyMs / 1e3)
                                 : 0;
    printf("# %d session(s), spread of their p50 %.3f; highest passing "
           "rung: %s (limit p99 <= %.0f ms over each job's best)\n",
           Repeats, relativeSpread(SessionP50),
           Top >= 0 ? strFormat("%.0f jobs/s", Ladder[Top]).c_str() : "none",
           LimitMs);
    // Times are scaled by the host-speed kernel's median sample. Serve's
    // threads run against each other and the host, and its jobs' bests did
    // not follow the kernel's fastest moments: over six seeds, scaling by
    // the fastest sample widened the spreads (p50 11% to 15%), by the
    // median it narrowed them (to 8%; jobs_per_s 11% to 7%).
    reportEndToEnd(Out.Metrics, SetupS, JobsPerS, Samples[K], Out.Attempted,
                   Out.Failed, Speed, Speed.medianMs());
    Out.Correct = Out.Failed == 0;
    return Out;
  }

  // Traced run: one top-rung session for the service's own numbers, then
  // two replays of its job stream, traced and untraced: their counters
  // must agree (the determinism self-check) and the difference of their
  // median job latency is the tracing overhead.
  warmCopy(In, SessionDir);
  SessionResult Session = runSession(Stream, SessionDir);
  // The session's per-job spans: due -> done read, with the service's own
  // queue wait and service time (ServeStats) derived inside.
  Tracer SessionTr(true);
  for (size_t I = 0; I < Stream.size(); ++I) {
    if (Session.LatMs[I] < 0)
      continue;
    uint64_t Due = uint64_t((Session.ReadMs[I] - Session.LatMs[I]) * 1e6);
    int32_t Root = SessionTr.add("serve.job", I, -1, Due,
                                 uint64_t(Session.ReadMs[I] * 1e6), false);
    if (Session.ServiceMs[I] < 0)
      continue; // Rejected: no service time.
    SessionTr.derived(
        Root, "service.queue_wait",
        uint64_t((Session.ServeLatMs[I] - Session.ServiceMs[I]) * 1e6));
    SessionTr.derived(Root, "service.run",
                      uint64_t(Session.ServiceMs[I] * 1e6));
  }
  Out.Attempted = N;
  Out.Failed = Session.Failed;

  LayerSamples L;
  std::vector<double> Wait;
  for (size_t I = 0; I < Session.Stats.ServiceMs.size(); ++I)
    Wait.push_back(Session.Stats.LatenciesMs[I] - Session.Stats.ServiceMs[I]);
  L.Service.QueueWaitMs = median(Wait);
  L.Service.ServiceP50Ms = median(Session.Stats.ServiceMs);
  L.Service.Rejected = Session.Stats.Rejected;
  L.Service.LateMaxMs = Session.LateMaxMs;

  Tracer Tr(true), Off(false);
  size_t ReplayFailed = 0;
  std::vector<double> TracedMs, UntracedMs;
  L.Counters = replay(O, In, Stream, Tr, &L, &TracedMs, &ReplayFailed);
  ExactCounters Again =
      replay(O, In, Stream, Off, nullptr, &UntracedMs, &ReplayFailed);
  L.OverheadMs = median(TracedMs) - median(UntracedMs);
  L.Deterministic = Again == L.Counters;
  if (!L.Deterministic)
    fprintf(stderr, "e2ebench: replay counters differ:\n  %s\n  %s\n",
            L.Counters.text().c_str(), Again.text().c_str());
  Out.Attempted += 2 * N;
  Out.Failed += ReplayFailed;
  collectLayers(Tr, &L);

  std::vector<const std::vector<uint8_t> *> Mods;
  for (const LineItem &I : In.Items)
    Mods.push_back(&I.Bytes);
  for (size_t K = 0; K < In.OneOffBytes.size() && K < 8; ++K)
    Mods.push_back(&In.OneOffBytes[K]);
  std::string LayerDir = O.WorkDir + "/layers-disk";
  freshDir(LayerDir);
  DirectLayers D = measureLayers(Mods, LayerDir);
  reportLayers(Out.Metrics, L, D);
  Tr.write(O.WorkDir + "/trace-serve-replay.jsonl");
  SessionTr.write(O.WorkDir + "/trace-serve-session.jsonl");

  Out.Correct = Out.Failed == 0 && L.Deterministic && traceChecksPass(L, D);
  return Out;
}

} // namespace e2ebench
