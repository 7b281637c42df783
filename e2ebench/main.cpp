//===- e2ebench/main.cpp - the wisp end-to-end benchmark --------------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   e2ebench --workload startup|serve --seed N --seconds S --trace 0|1
//            --bench-dir DIR --work-dir DIR
//   e2ebench --write-expected FILE
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs report the per-layer metrics.
// Lines starting with '#' before it are diagnostics. Exits 1 when any
// output was wrong or a self-check failed, 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "workload.h"

#include "support/parse.h"

#include <filesystem>

using namespace e2ebench;

namespace {

int usage(const char *Msg) {
  fprintf(stderr,
          "e2ebench: %s\nusage: e2ebench --workload startup|serve "
          "--seed N --seconds S --trace 0|1 --bench-dir DIR --work-dir DIR\n"
          "       e2ebench --write-expected FILE\n",
          Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Val = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--write-expected") {
      // The suite references at the scale the serve workload uses.
      if (!writeExpected(Val, {1}))
        return fprintf(stderr, "e2ebench: cannot write %s\n", Val.c_str()), 1;
      return 0;
    } else if (Flag == "--workload") {
      O.Workload = Val;
    } else if (Flag == "--seed") {
      if (!wisp::parseU64(Val.c_str(), &N))
        return usage("bad --seed");
      O.Seed = N;
    } else if (Flag == "--seconds") {
      if (!wisp::parseU64(Val.c_str(), &N) || N == 0 || N > 600)
        return usage("bad --seconds");
      O.Seconds = double(N);
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      if (Val != "0" && Val != "1")
        return usage("bad --trace");
      O.Trace = Val == "1";
    } else if (Flag == "--bench-dir") {
      O.BenchDir = Val;
    } else if (Flag == "--work-dir") {
      O.WorkDir = Val;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveSeconds || O.BenchDir.empty() || O.WorkDir.empty())
    return usage("--seconds, --bench-dir and --work-dir are required");
  std::filesystem::create_directories(O.WorkDir);

  RunOutcome Out;
  if (O.Workload == "startup")
    Out = runStartup(O);
  else if (O.Workload == "serve")
    Out = runServeWorkload(O);
  else
    return usage("unknown workload");
  if (Out.Metrics.rows().empty())
    return 1; // Set-up failed; the cause is on stderr.
  if (Out.Attempted == 0)
    Out.Correct = false;
  printf("%s\n", Out.Metrics.json(Out.Correct, Out.Attempted, Out.Failed)
                     .c_str());
  return Out.Correct ? 0 : 1;
}
