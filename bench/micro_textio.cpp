//===- bench/micro_textio.cpp - parse/print throughput ---------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Textual-IR throughput on the google-benchmark harness: parseModule and
// toString(Module) in MB/s over two kinds of text.
//
//   corpus  the eleven Table-1 programs, printed. Mostly the memory image:
//           one "mem ADDR 0xVALUE" line per non-zero word.
//   cold    twenty default buildRandomProgram modules (~26 KB and ~1,160
//           instructions each, no memory image), shaped like the requests
//           of a cold compile server.
//
// Run:  ./build/bench/micro_textio
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

using namespace lsra;

namespace {

const std::vector<std::string> &corpusTexts() {
  static const std::vector<std::string> Texts = [] {
    std::vector<std::string> T;
    for (const WorkloadSpec &W : allWorkloads())
      T.push_back(toString(*W.Build()));
    return T;
  }();
  return Texts;
}

const std::vector<std::string> &coldTexts() {
  static const std::vector<std::string> Texts = [] {
    std::vector<std::string> T;
    for (uint64_t I = 0; I < 20; ++I)
      T.push_back(toString(*buildRandomProgram((uint64_t(1) << 32) + I)));
    return T;
  }();
  return Texts;
}

int64_t totalBytes(const std::vector<std::string> &Texts) {
  int64_t N = 0;
  for (const std::string &T : Texts)
    N += static_cast<int64_t>(T.size());
  return N;
}

void runParse(benchmark::State &State, const std::vector<std::string> &Texts) {
  for (auto _ : State)
    for (const std::string &T : Texts) {
      ParseResult R = parseModule(T);
      if (!R.ok())
        State.SkipWithError(R.Error.c_str());
      benchmark::DoNotOptimize(R.M.get());
    }
  State.SetBytesProcessed(State.iterations() * totalBytes(Texts));
}

void runPrint(benchmark::State &State, const std::vector<std::string> &Texts) {
  std::vector<std::unique_ptr<Module>> Modules;
  for (const std::string &T : Texts)
    Modules.push_back(parseModule(T).M);
  for (auto _ : State)
    for (const auto &M : Modules) {
      std::string S = toString(*M);
      benchmark::DoNotOptimize(S.data());
    }
  State.SetBytesProcessed(State.iterations() * totalBytes(Texts));
}

void BM_ParseCorpus(benchmark::State &State) { runParse(State, corpusTexts()); }
void BM_ParseCold(benchmark::State &State) { runParse(State, coldTexts()); }
void BM_PrintCorpus(benchmark::State &State) { runPrint(State, corpusTexts()); }
void BM_PrintCold(benchmark::State &State) { runPrint(State, coldTexts()); }

} // namespace

BENCHMARK(BM_ParseCorpus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParseCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PrintCorpus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PrintCold)->Unit(benchmark::kMillisecond);
