//===- e2ebench/layers.cpp - timed direct calls into each layer -------------===//
//
// Part of the wisp project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "layers.h"
#include "workload.h"

#include "analysis/analysis.h"
#include "baselines/copypatch.h"
#include "baselines/twopass.h"
#include "cache/diskcache.h"
#include "interp/predecode.h"
#include "opt/optcompiler.h"
#include "runtime/instance.h"
#include "service/serve.h"
#include "spc/compiler.h"
#include "verify/verifier.h"
#include "wasm/reader.h"
#include "wasm/validator.h"

using namespace wisp;

namespace e2ebench {

namespace {

std::unique_ptr<MCode> compileWith(int T, const Module &M, const FuncDecl &F,
                                   const CompilerOptions &Opts) {
  switch (T) {
  case CopyPatch:
    return compileCopyPatch(M, F, Opts);
  case TwoPass:
    return compileTwoPass(M, F, Opts);
  case Opt:
    return compileOptimizing(M, F, Opts);
  default:
    return compileFunction(M, F, Opts);
  }
}

/// Verifies \p Code the way the engine does before admitting it: the
/// pipeline's scope, tightened with per-function analyzer facts.
VerifyReport verifyAsEngine(int T, const Module &M, const FuncDecl &F,
                            const MCode &Code) {
  VerifyScope Scope =
      T == Opt ? VerifyScope::optimizing() : VerifyScope::baseline();
  return verifyMachineCode(M, F, Code,
                           Scope.withFacts(analyzeFunction(M, F).StackBound));
}

double msSince(uint64_t T0) { return double(nowNs() - T0) / 1e6; }

} // namespace

DirectLayers
measureLayers(const std::vector<const std::vector<uint8_t> *> &Modules,
              const std::string &DiskDir) {
  DirectLayers D;
  std::unique_ptr<DiskCache> Disk = DiskCache::open(DiskDir);
  warmCopyPatchTemplates(); // Engine start-up work, not compilation.
  HostRegistry Hosts;
  GcHeap Heap;
  const ServeOptions Caps;
  for (const std::vector<uint8_t> *Bytes : Modules) {
    WasmError Err;
    uint64_t T0 = nowNs();
    std::unique_ptr<Module> M = decodeModule(*Bytes, &Err);
    D.DecodeMs.push_back(msSince(T0));
    if (!M)
      continue;
    T0 = nowNs();
    if (!validateModule(*M, &Err))
      continue;
    uint64_t ValNs = nowNs() - T0;
    D.ValidateMs.push_back(double(ValNs) / 1e6);
    D.ValidateNs += double(ValNs);
    D.CodeBytes += double(M->codeBytes());
    ++D.Modules;

    T0 = nowNs();
    ModuleAnalysis A = analyzeModule(*M);
    D.AnalyzeMs.push_back(msSince(T0));
    const char *Invoke =
        M->findExport("run", ExternKind::Func) ? "run" : "f";
    std::string Reason;
    T0 = nowNs();
    staticBoundsReject(*M, A, Invoke, Caps.MaxCallDepth, Caps.MaxMemoryPages,
                       Caps.MaxTableElems, &Reason);
    D.PrecheckMs.push_back(D.DecodeMs.back() + D.ValidateMs.back() +
                           D.AnalyzeMs.back() + msSince(T0));

    uint64_t Ctx = moduleContextDigest(*M);
    for (int T = Spc; T < NumTiers; ++T) {
      const CompilerOptions Opts = tierConfig(T).Opts;
      uint64_t CompileNs = 0, VerifyNs = 0;
      for (const FuncDecl &F : M->Funcs) {
        if (F.Imported)
          continue;
        uint64_t C0 = nowNs();
        std::unique_ptr<MCode> Code = compileWith(T, *M, F, Opts);
        uint64_t C1 = nowNs();
        VerifyReport R = verifyAsEngine(T, *M, F, *Code);
        VerifyNs += nowNs() - C1;
        CompileNs += C1 - C0;
        D.Findings += R.Findings.size();
        if (T != Spc || !Disk)
          continue;
        // The disk level's write path (serialize + publish) and read path
        // (read + checksum + deserialize + re-verify), per artifact.
        CacheKey K = codeCacheKey(Ctx, *M, F, tierCompiler(T), Opts, true);
        uint64_t S0 = nowNs();
        if (!Disk->store(K, DiskArtifactKind::Code, serializeMCode(*Code),
                         C1 - C0))
          ++D.DiskStoreFails;
        D.DiskStoreMs.push_back(msSince(S0));
        uint64_t L0 = nowNs();
        std::vector<uint8_t> Payload;
        std::shared_ptr<MCode> Back;
        if (Disk->load(K, DiskArtifactKind::Code, &Payload))
          Back = deserializeMCode(Payload);
        if (Back)
          D.Findings += verifyAsEngine(T, *M, F, *Back).Findings.size();
        else
          ++D.DiskRejected;
        D.DiskLoadMs.push_back(msSince(L0));
      }
      D.CompileMs[T - Spc].push_back(double(CompileNs) / 1e6);
      D.CompileNs[T - Spc] += double(CompileNs);
      if (T == Spc) {
        D.VerifySpcMs.push_back(double(VerifyNs) / 1e6);
        D.VerifySpcNs += double(VerifyNs);
      }
    }

    uint64_t PredecodeNs = 0;
    for (const FuncDecl &F : M->Funcs) {
      if (F.Imported)
        continue;
      uint64_t P0 = nowNs();
      std::unique_ptr<ThreadedCode> TC =
          predecodeFunction(*M, F, nullptr, /*EnableFusion=*/true);
      PredecodeNs += nowNs() - P0;
      D.Findings += verifyThreadedCode(*M, F, *TC).Findings.size();
    }
    D.PredecodeMs.push_back(double(PredecodeNs) / 1e6);

    T0 = nowNs();
    std::unique_ptr<Instance> Fresh = instantiate(*M, Hosts, &Heap, &Err);
    D.InstantiateMs.push_back(msSince(T0));
    if (std::unique_ptr<InstanceImage> Img = buildInstanceImage(*M, &Err)) {
      T0 = nowNs();
      std::unique_ptr<Instance> Imaged =
          instantiateFromImage(*M, *Img, Hosts, &Heap, &Err);
      D.ImageInstantiateMs.push_back(msSince(T0));
    }
  }
  return D;
}

} // namespace e2ebench
