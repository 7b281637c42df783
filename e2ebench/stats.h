//===- e2ebench/stats.h - the benchmark's statistics helpers -----*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pure statistics used to turn samples into reported metrics: nearest-rank
/// percentiles with the "at least ten samples beyond" rule, medians,
/// geometric means, quartiles computed exactly like Python's
/// `statistics.quantiles(values, n=4)`, and the serve workload's backlog and
/// rate-ladder decisions. Header-only and free of wisp dependencies so
/// stats_test.cpp can check it in isolation.
///
//===----------------------------------------------------------------------===//

#ifndef WISP_E2EBENCH_STATS_H
#define WISP_E2EBENCH_STATS_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

namespace e2ebench {

/// A percentile read from a sample, with how much evidence backs it.
struct Percentile {
  double Value = 0;
  size_t Samples = 0; ///< Sample count it was read from.
  size_t Beyond = 0;  ///< Samples strictly after its rank.
  /// A tail percentile is only reported as such with >= 10 samples beyond.
  bool trustworthy() const { return Beyond >= 10; }
};

/// 1-based nearest rank of percentile \p P (0 < P <= 100) among \p N
/// samples: ceil(P/100 * N), clamped to [1, N].
inline size_t nearestRank(double P, size_t N) {
  // The epsilon keeps exact products (99/100 * 1000) from rounding up.
  size_t Rank = size_t(std::ceil(P / 100.0 * double(N) - 1e-9));
  return std::clamp<size_t>(Rank, 1, std::max<size_t>(N, 1));
}

/// Nearest-rank percentile \p P of \p V. Empty input yields a zero
/// Percentile.
inline Percentile percentile(std::vector<double> V, double P) {
  Percentile R;
  R.Samples = V.size();
  if (V.empty())
    return R;
  std::sort(V.begin(), V.end());
  size_t Rank = nearestRank(P, V.size());
  R.Value = V[Rank - 1];
  R.Beyond = V.size() - Rank;
  return R;
}

inline double median(const std::vector<double> &V) {
  return percentile(V, 50).Value;
}

/// Geometric mean of positive values; non-positive entries are skipped
/// (a latency of 0 cannot occur, and the log would be undefined).
inline double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  size_t N = 0;
  for (double X : V)
    if (X > 0) {
      LogSum += std::log(X);
      ++N;
    }
  return N ? std::exp(LogSum / double(N)) : 0;
}

/// First, second and third quartile, exactly as Python's
/// `statistics.quantiles(V, n=4)` (its default 'exclusive' method)
/// computes them. Needs at least two values; returns zeros otherwise.
inline std::array<double, 3> quartiles(std::vector<double> V) {
  std::array<double, 3> Q{0, 0, 0};
  size_t N = V.size();
  if (N < 2)
    return Q;
  std::sort(V.begin(), V.end());
  size_t M = N + 1;
  for (size_t I = 1; I < 4; ++I) {
    size_t J = std::clamp<size_t>(I * M / 4, 1, N - 1);
    double Delta = double(I * M) - double(J * 4);
    Q[I - 1] = (V[J - 1] * (4 - Delta) + V[J] * Delta) / 4;
  }
  return Q;
}

/// Interquartile distance as a share of the median: the spread measure the
/// benchmark's bounds are checked with across runs, and the one the run
/// prints for its passes or sessions.
inline double relativeSpread(const std::vector<double> &V) {
  std::array<double, 3> Q = quartiles(V);
  return Q[1] != 0 ? (Q[2] - Q[0]) / Q[1] : 0;
}

/// Open-loop backlog test. \p Outstanding holds the number of jobs sent but
/// not yet answered, sampled at each scheduled send. A backlog is growing
/// when the last quarter's median exceeds 1.5x the first half's median plus
/// two jobs: a queue that keeps pace fluctuates around a level (ratio ~1),
/// one that falls behind grows linearly (ratio ~3.5), and medians ignore a
/// short stall that drains again. Fewer than eight samples cannot show a
/// trend and never count as growing.
inline bool backlogGrowing(const std::vector<double> &Outstanding) {
  size_t N = Outstanding.size();
  if (N < 8)
    return false;
  std::vector<double> Head(Outstanding.begin(), Outstanding.begin() + N / 2);
  std::vector<double> Tail(Outstanding.end() - N / 4, Outstanding.end());
  return percentile(Tail, 50).Value > 1.5 * percentile(Head, 50).Value + 2;
}

/// One rung of the serve workload's offered-rate ladder, as measured.
struct Rung {
  double OfferedPerS = 0;
  double P99Ms = 0;
  bool Growing = false;
  size_t Failed = 0; ///< Wrong, errored or rejected jobs.
};

/// True when \p R meets the latency limit: p99 within \p LimitMs, no
/// growing backlog and no failed job (a failed or refused job counts as
/// missing any latency limit).
inline bool rungPasses(const Rung &R, double LimitMs) {
  return R.P99Ms <= LimitMs && !R.Growing && R.Failed == 0;
}

/// Index of the highest rung, climbing \p Ladder in ascending rate order,
/// that passes while every rung below it passed too; -1 when the lowest
/// rung already fails.
inline int highestPassingRung(const std::vector<Rung> &Ladder,
                              double LimitMs) {
  int Best = -1;
  for (size_t I = 0; I < Ladder.size(); ++I) {
    if (!rungPasses(Ladder[I], LimitMs))
      break;
    Best = int(I);
  }
  return Best;
}

} // namespace e2ebench

#endif // WISP_E2EBENCH_STATS_H
