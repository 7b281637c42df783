//===- e2ebench/layers.h - timed direct calls into each layer ----*- C++ -*-===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's second source of per-layer numbers: timed direct calls
/// of each layer's public function on the workload's own modules, for work
/// the engine's counters lump together (LoadStats::CompileNs holds compile,
/// verify and disk time in one number).
///
//===----------------------------------------------------------------------===//

#ifndef WISP_E2EBENCH_LAYERS_H
#define WISP_E2EBENCH_LAYERS_H

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// Compiled pipelines in tier order: spc, copypatch, twopass, opt.
constexpr int NumCompilers = 4;

struct DirectLayers {
  size_t Modules = 0;
  /// Per-module milliseconds (each entry sums the module's functions).
  std::vector<double> DecodeMs, ValidateMs, AnalyzeMs, PredecodeMs,
      InstantiateMs, ImageInstantiateMs;
  /// The serve reader's first-contact admission precheck, per module:
  /// decode, validate, analyze and the static-bounds decision under the
  /// session's default caps (repeat contacts hit its memo).
  std::vector<double> PrecheckMs;
  std::vector<double> CompileMs[NumCompilers];
  /// Verification of the SPC artifacts, as the engine runs it (per-function
  /// analyzer facts, then verifyMachineCode), per module.
  std::vector<double> VerifySpcMs;
  /// Per-artifact disk milliseconds: serialize + store, and load +
  /// deserialize + re-verify (the disk read path).
  std::vector<double> DiskStoreMs, DiskLoadMs;
  double CodeBytes = 0; ///< Wasm function-body bytes over all modules.
  double ValidateNs = 0;
  double CompileNs[NumCompilers] = {};
  double VerifySpcNs = 0;
  /// Findings over every verified artifact (all four pipelines' MCode and
  /// the threaded IR, plus every disk-loaded artifact); must stay 0.
  uint64_t Findings = 0;
  uint64_t DiskRejected = 0;
  uint64_t DiskStoreFails = 0;
};

/// Runs every layer function on each of \p Modules once. \p DiskDir is an
/// empty scratch directory for the DiskCache calls.
DirectLayers
measureLayers(const std::vector<const std::vector<uint8_t> *> &Modules,
              const std::string &DiskDir);

} // namespace e2ebench

#endif // WISP_E2EBENCH_LAYERS_H
