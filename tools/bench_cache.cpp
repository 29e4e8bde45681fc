//===- tools/bench_cache.cpp - Compile-cache benchmark --------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Measures what the content-addressed compile cache buys on the serving
// path: for every built-in workload and allocator, the cold end-to-end
// compileTextModule time (parse + lower + DCE + allocate + print) against
// the warm cache-hit time for the identical request, asserting along the
// way that the warm result is byte-identical to both the cold result and
// an uncached compile. A second, cross-process section forks a child that
// compiles every workload into a shared-memory L2 segment and then times
// the parent's first compile of the same modules through a fresh L1 — the
// cross-process warm-start path (L2 probe + fill + promotion) against the
// cold pipeline. Writes BENCH_cache.json (per record: workload, allocator,
// cold/warm best-of-N seconds, speedup, identical flag; xproc rows carry
// kind="xproc" with cold_s/l2_warm_s/l2_speedup) plus a trailing summary
// record with the aggregate cache statistics.
//
// Usage: bench-cache [output.json]   (default BENCH_cache.json)
//
//===----------------------------------------------------------------------===//

#include "cache/CompileCache.h"
#include "cache/SharedCache.h"
#include "driver/Pipeline.h"
#include "ir/Printer.h"
#include "obs/Json.h"
#include "regalloc/Registry.h"
#include "support/Timer.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace lsra;

namespace {

struct Record {
  std::string Workload;
  const char *Allocator;
  double ColdSeconds;
  double WarmSeconds;
  bool Identical;

  double speedup() const {
    return WarmSeconds > 0 ? ColdSeconds / WarmSeconds : 0;
  }
};

std::vector<AllocatorKind> allKinds() {
  return AllocatorRegistry::global().kinds();
}

Record measure(const WorkloadSpec &W, AllocatorKind K,
               cache::CompileCache &Cache) {
  Record R;
  R.Workload = W.Name;
  R.Allocator = allocatorName(K);
  TargetDesc TD = TargetDesc::alphaLike();
  std::string Text = toString(*W.Build());

  // Uncached reference, and cold best-of-five (each rep does the full
  // pipeline; the cache is only consulted afterwards).
  TextCompileResult Ref = compileTextModule(Text, TD, K);
  R.ColdSeconds = 1e9;
  ExecOptions Cacheless;
  for (int Rep = 0; Rep < 5; ++Rep) {
    Timer T;
    T.start();
    TextCompileResult C = compileTextModule(Text, TD, K, {}, Cacheless);
    T.stop();
    R.ColdSeconds = std::min(R.ColdSeconds, T.seconds());
    if (!C.Ok || C.AllocatedText != Ref.AllocatedText)
      R.Identical = false;
  }

  // Populate, then warm best-of-twenty.
  ExecOptions EO;
  EO.Cache = &Cache;
  TextCompileResult Fill = compileTextModule(Text, TD, K, {}, EO);
  R.Identical = Fill.Ok && !Fill.CacheHit &&
                Fill.AllocatedText == Ref.AllocatedText;
  R.WarmSeconds = 1e9;
  for (int Rep = 0; Rep < 20; ++Rep) {
    Timer T;
    T.start();
    TextCompileResult Hit = compileTextModule(Text, TD, K, {}, EO);
    T.stop();
    R.WarmSeconds = std::min(R.WarmSeconds, T.seconds());
    R.Identical = R.Identical && Hit.Ok && Hit.CacheHit &&
                  Hit.AllocatedText == Ref.AllocatedText;
  }
  return R;
}

struct XprocRecord {
  std::string Workload;
  const char *Allocator;
  double ColdSeconds;
  double L2WarmSeconds;
  bool Identical;

  double speedup() const {
    return L2WarmSeconds > 0 ? ColdSeconds / L2WarmSeconds : 0;
  }
};

/// Cross-process warm start: a forked child cold-compiles every workload
/// with an L1+L2 stack (publishing each module result into the shared
/// segment), then the parent times its own first compile of the same
/// modules through a FRESH L1 per rep — so every timed run pays the real
/// L2 path (probe + validate + copy + L1 promotion), never an L1 hit.
std::vector<XprocRecord> measureCrossProcess() {
  std::vector<XprocRecord> Out;
  AllocatorKind K = AllocatorKind::SecondChanceBinpack;
  TargetDesc TD = TargetDesc::alphaLike();
  std::string SegPath =
      "/tmp/bench-cache-l2." + std::to_string(::getpid()) + ".seg";
  ::unlink(SegPath.c_str());
  cache::SharedCacheConfig SC;
  SC.Path = SegPath;
  SC.MaxBytes = 64u << 20;
  SC.StartAgent = false; // deterministic: publishes land synchronously

  std::vector<std::string> Texts;
  std::vector<std::string> Refs;
  std::vector<const char *> Names;
  for (const WorkloadSpec &W : allWorkloads()) {
    Texts.push_back(toString(*W.Build()));
    Refs.push_back(compileTextModule(Texts.back(), TD, K).AllocatedText);
    Names.push_back(W.Name);
  }

  // The child owns the segment's cold fill. Forked before this process
  // maps the segment, so the parent's first probe is a true cross-process
  // read of memory it never wrote.
  pid_t Child = ::fork();
  if (Child == 0) {
    std::string Err;
    auto L2 = cache::SharedCache::open(SC, Err);
    if (!L2)
      ::_exit(2);
    cache::CompileCache L1;
    L1.attachL2(L2.get());
    ExecOptions EO;
    EO.Cache = &L1;
    for (const std::string &Text : Texts) {
      TextCompileResult R = compileTextModule(Text, TD, K, {}, EO);
      if (!R.Ok || R.CacheHit)
        ::_exit(3);
    }
    ::_exit(0);
  }
  int Status = 0;
  if (Child < 0 || ::waitpid(Child, &Status, 0) != Child ||
      !WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    std::fprintf(stderr, "bench-cache: xproc child failed (status %d)\n",
                 Status);
    ::unlink(SegPath.c_str());
    return Out;
  }

  std::string Err;
  auto L2 = cache::SharedCache::open(SC, Err);
  if (!L2) {
    std::fprintf(stderr, "bench-cache: xproc reopen: %s\n", Err.c_str());
    return Out;
  }
  for (size_t I = 0; I < Texts.size(); ++I) {
    XprocRecord R;
    R.Workload = Names[I];
    R.Allocator = allocatorName(K);
    R.Identical = true;

    R.ColdSeconds = 1e9;
    for (int Rep = 0; Rep < 3; ++Rep) {
      Timer T;
      T.start();
      TextCompileResult C = compileTextModule(Texts[I], TD, K);
      T.stop();
      R.ColdSeconds = std::min(R.ColdSeconds, T.seconds());
      R.Identical = R.Identical && C.Ok && C.AllocatedText == Refs[I];
    }

    R.L2WarmSeconds = 1e9;
    for (int Rep = 0; Rep < 5; ++Rep) {
      cache::CompileCache L1; // fresh per rep: no L1 shortcut
      L1.attachL2(L2.get());
      ExecOptions EO;
      EO.Cache = &L1;
      Timer T;
      T.start();
      TextCompileResult Warm = compileTextModule(Texts[I], TD, K, {}, EO);
      T.stop();
      R.L2WarmSeconds = std::min(R.L2WarmSeconds, T.seconds());
      R.Identical = R.Identical && Warm.Ok && Warm.CacheHit && Warm.CacheL2 &&
                    Warm.AllocatedText == Refs[I];
      L1.attachL2(nullptr);
    }
    std::printf("xproc %-10s %-22s cold %8.5fs l2-warm %9.6fs speedup "
                "%6.1fx %s\n",
                R.Workload.c_str(), R.Allocator, R.ColdSeconds,
                R.L2WarmSeconds, R.speedup(),
                R.Identical ? "" : "OUTPUT MISMATCH!");
    Out.push_back(std::move(R));
  }
  L2.reset();
  ::unlink(SegPath.c_str());
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = argc > 1 ? argv[1] : "BENCH_cache.json";
  cache::CompileCache Cache; // one cache across the whole run, like a server

  std::vector<Record> Records;
  bool AllIdentical = true;
  double MinSpeedup = 1e9;
  for (const WorkloadSpec &W : allWorkloads())
    for (AllocatorKind K : allKinds()) {
      Record R = measure(W, K, Cache);
      AllIdentical = AllIdentical && R.Identical;
      MinSpeedup = std::min(MinSpeedup, R.speedup());
      std::printf("%-10s %-22s cold %8.5fs warm %9.6fs speedup %8.1fx %s\n",
                  R.Workload.c_str(), R.Allocator, R.ColdSeconds,
                  R.WarmSeconds, R.speedup(),
                  R.Identical ? "" : "OUTPUT MISMATCH!");
      Records.push_back(std::move(R));
    }

  std::vector<XprocRecord> Xproc = measureCrossProcess();
  for (const XprocRecord &R : Xproc) {
    AllIdentical = AllIdentical && R.Identical;
    MinSpeedup = std::min(MinSpeedup, R.speedup());
  }

  cache::CacheStats CS = Cache.stats();
  std::ofstream OS(OutPath);
  if (!OS.good()) {
    std::fprintf(stderr, "bench-cache: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  OS << "[\n";
  for (const Record &R : Records) {
    obs::JsonObject O;
    O.field("workload", R.Workload)
        .field("allocator", R.Allocator)
        .field("cold_s", R.ColdSeconds)
        .field("warm_s", R.WarmSeconds)
        .field("speedup", R.speedup())
        .field("identical", R.Identical ? 1 : 0);
    OS << "  " << O.str() << ",\n";
  }
  for (const XprocRecord &R : Xproc) {
    obs::JsonObject O;
    O.field("kind", "xproc")
        .field("workload", R.Workload)
        .field("allocator", R.Allocator)
        .field("cold_s", R.ColdSeconds)
        .field("l2_warm_s", R.L2WarmSeconds)
        .field("l2_speedup", R.speedup())
        .field("identical", R.Identical ? 1 : 0);
    OS << "  " << O.str() << ",\n";
  }
  obs::JsonObject Sum;
  Sum.field("kind", "summary")
      .field("min_speedup", MinSpeedup)
      .field("all_identical", AllIdentical ? 1 : 0)
      .field("cache_hits", CS.Hits)
      .field("cache_misses", CS.Misses)
      .field("cache_insertions", CS.Insertions)
      .field("cache_evictions", CS.Evictions)
      .field("cache_bytes", static_cast<uint64_t>(CS.Bytes))
      .field("cache_entries", static_cast<uint64_t>(CS.Entries));
  OS << "  " << Sum.str() << "\n]\n";
  std::printf("bench-cache: min speedup %.1fx, %s; wrote %s\n", MinSpeedup,
              AllIdentical ? "all outputs identical" : "OUTPUT MISMATCHES",
              OutPath.c_str());
  return AllIdentical ? 0 : 1;
}
