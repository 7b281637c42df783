//===- e2ebench/stats_test.cpp - tests of the statistics helpers ------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Checks the helpers in stats.h against hand-computed values and against
// what Python's statistics.quantiles(values, n=4) returns. Exits nonzero on
// the first failed check; run it with `ctest --test-dir .bench_build`.
//
//===----------------------------------------------------------------------===//

#include "stats.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace e2ebench;

namespace {

int Failures = 0;

void check(bool Cond, const char *What) {
  if (!Cond) {
    fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

bool near(double A, double B) { return std::fabs(A - B) <= 1e-9; }

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(double(I));
  return V;
}

void testPercentile() {
  // Nearest rank: p99 of 1..1000 is the 990th value with 10 beyond it.
  Percentile P = percentile(iota(1000), 99);
  check(near(P.Value, 990) && P.Beyond == 10 && P.trustworthy(),
        "p99 of 1000 samples has ten beyond");
  P = percentile(iota(999), 99);
  check(P.Beyond == 9 && !P.trustworthy(),
        "p99 of 999 samples has fewer than ten beyond");
  check(percentile(iota(20), 50).Beyond == 10, "p50 of 20 has ten beyond");
  // Order does not matter; the median of an even count is the lower one.
  check(near(median({4, 1, 3, 2}), 2), "median of 1..4 by nearest rank");
  check(near(percentile({7}, 99).Value, 7), "single sample");
  check(percentile({}, 50).Samples == 0, "empty sample");
  check(near(percentile(iota(10), 100).Value, 10), "p100 is the maximum");
}

void testGeomean() {
  check(near(geomean({1, 4, 16}), 4), "geomean of 1, 4, 16");
  check(near(geomean({2, 8}), 4), "geomean of 2, 8");
  check(near(geomean({3, 0, 3}), 3), "non-positive values are skipped");
  check(geomean({}) == 0, "empty geomean");
}

void testQuartiles() {
  // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
  //   == [2.75, 5.5, 8.25]
  std::array<double, 3> Q = quartiles(iota(10));
  check(near(Q[0], 2.75) && near(Q[1], 5.5) && near(Q[2], 8.25),
        "quartiles of 1..10");
  // statistics.quantiles([5, 1, 4], n=4) == [1.0, 4.0, 5.0]
  Q = quartiles({5, 1, 4});
  check(near(Q[0], 1) && near(Q[1], 4) && near(Q[2], 5), "quartiles of 3");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  Q = quartiles({1, 2});
  check(near(Q[0], 0.75) && near(Q[1], 1.5) && near(Q[2], 2.25),
        "quartiles of 2 extrapolate like Python");
  check(near(relativeSpread(iota(10)), (8.25 - 2.75) / 5.5),
        "relative spread is IQR over median");
}

void testBacklog() {
  check(!backlogGrowing(std::vector<double>(100, 3)), "flat backlog");
  std::vector<double> Ramp;
  for (int I = 0; I < 100; ++I)
    Ramp.push_back(I);
  check(backlogGrowing(Ramp), "linearly growing backlog");
  std::vector<double> Burst(100, 1);
  for (int I = 0; I < 10; ++I)
    Burst[size_t(I)] = 20; // Cold start, then steady.
  check(!backlogGrowing(Burst), "an early burst that drains is not growth");
  std::vector<double> Stall(100, 2);
  for (int I = 90; I < 98; ++I)
    Stall[size_t(I)] = 40; // A short stall near the end.
  check(!backlogGrowing(Stall), "a late stall that drains is not growth");
  check(!backlogGrowing({0, 0, 0, 9}), "too few samples to call a trend");
}

void testLadder() {
  std::vector<Rung> L = {{200, 8, false, 0}, {400, 12, false, 0},
                         {600, 80, false, 0}};
  check(highestPassingRung(L, 50) == 1, "third rung misses the limit");
  L[2].P99Ms = 20;
  check(highestPassingRung(L, 50) == 2, "all rungs pass");
  L[1].Growing = true;
  check(highestPassingRung(L, 50) == 0,
        "a growing backlog fails a rung and stops the climb");
  L[1].Growing = false;
  L[0].Failed = 1;
  check(highestPassingRung(L, 50) == -1, "a failed job fails the rung");
}

} // namespace

int main() {
  testPercentile();
  testGeomean();
  testQuartiles();
  testBacklog();
  testLadder();
  if (Failures)
    return fprintf(stderr, "%d check(s) failed\n", Failures), 1;
  printf("e2ebench stats: all checks passed\n");
  return 0;
}
