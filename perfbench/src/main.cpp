//===- perfbench/src/main.cpp - The lsra benchmark driver -----------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload W --seed N --seconds S --trace 0|1 --lsra PATH
//           --run-dir DIR
//
// Runs one workload and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones (timed with no tracing); with --trace 1 they are
// the per-layer ones from a separate traced run. See README.md.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Inputs.h"
#include "Layers.h"
#include "RefKernel.h"
#include "Wire.h"

#include "driver/Pipeline.h"
#include "regalloc/Registry.h"
#include "workloads/RandomProgram.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace lsra;
using namespace perfbench;

namespace {

/// The reference kernel's time on the host the README describes. Timed
/// figures are reported as (program time / kernel time) x this constant:
/// seconds on that host, at its steady speed.
constexpr double KernelRefSeconds = 0.005;

/// Closed-loop concurrency: two connections from one client thread, into
/// one server worker (3 busy threads with the server's event loop).
constexpr unsigned Connections = 2;
/// Programs per cold-serving batch, and the fixed quality set's size.
/// check::verifyAllocation costs 50-70 ms on one of these programs (~30x
/// its compile) and does not speed up on more threads, so check (b) proves
/// the whole quality set and one seeded reply per timed batch; checks (a)
/// and (c) cover every reply.
constexpr unsigned ColdBatch = 20;
constexpr unsigned ColdQualityPrograms = 40;
/// Requests per repeated-job batch (rounded up to whole rounds).
constexpr unsigned WarmBatchRequests = 500;
/// The serving workloads read the server's VmHWM once this many timed
/// requests have been answered (or at the end, if fewer were): the
/// compile cache grows with every cold request, so a peak taken after a
/// fixed amount of work does not depend on how fast the host ran.
constexpr uint64_t RssSampleRequests = 600;
/// Threads for output checks. Checks never overlap a timed interval (no
/// request is outstanding and no compile is being timed), so they may use
/// every CPU.
constexpr unsigned CheckThreads = 4;

const int64_t ProcessStartNs = nowNs();

double secondsSince(int64_t T0) { return double(nowNs() - T0) * 1e-9; }

/// Nearest-rank quantile of \p V (0 for an empty set).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * double(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}
double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// Fn(0) .. Fn(N-1) on CheckThreads threads.
void parallelChecks(size_t N, const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < CheckThreads; ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next++) < N;)
        Fn(I);
    });
  for (std::thread &T : Pool)
    T.join();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Lsra;
  std::string RunDir = ".";
};

/// The result line, plus the first failure's diagnostic (on stderr).
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Broken = false; ///< the benchmark itself could not run
  std::string FirstError;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  void fail(uint64_t N, const std::string &Why) {
    Failed += N;
    if (FirstError.empty())
      FirstError = Why;
  }
  void print() const {
    std::string S = "{\"correct\": ";
    S += Failed == 0 && !Broken ? "true" : "false";
    S += ", \"attempted\": " + std::to_string(Attempted);
    S += ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
    for (size_t I = 0; I < Metrics.size(); ++I) {
      char Num[64];
      std::snprintf(Num, sizeof(Num), "%.17g", Metrics[I].second.first);
      S += (I ? ", \"" : "\"") + Metrics[I].first + "\": {\"value\": " + Num +
           ", \"unit\": \"" + Metrics[I].second.second + "\"}";
    }
    S += "}}";
    std::printf("%s\n", S.c_str());
  }
};

const char *shortName(AllocatorKind K) {
  return AllocatorRegistry::global().info(K).Aliases[0];
}

/// One compile the workload asks for: a program and the backend for it.
struct Job {
  const Program *P;
  AllocatorKind K;
};

/// The fixed part of a workload. Offline workloads time exactly these jobs;
/// the serving workloads use them as the warm-up (cold: the fixed quality
/// set; warm: the corpus every later request repeats).
struct Workload {
  bool Serving = false;
  bool ColdStream = false; ///< timed requests are new random programs
  std::vector<Program> Programs;
  std::vector<Job> Jobs;
};

Workload makeWorkload(const std::string &Name) {
  Workload W;
  if (Name == "corpus") {
    W.Programs = corpusPrograms();
    for (const Program &P : W.Programs)
      for (AllocatorKind K : AllocatorRegistry::global().kinds())
        W.Jobs.push_back({&P, K});
    return W;
  }
  if (Name == "table3") {
    W.Programs = table3Programs();
    for (const Program &P : W.Programs)
      W.Jobs.push_back({&P, AllocatorKind::SecondChanceBinpack});
    return W;
  }
  W.Serving = true;
  if (Name == "serve-cold") {
    W.ColdStream = true;
    for (unsigned I = 1; I <= ColdQualityPrograms; ++I)
      W.Programs.push_back(
          {"random-" + std::to_string(I), printToText(*buildRandomProgram(I))});
  } else {
    W.Programs = corpusPrograms();
  }
  // The server's tier-0 policy answers every cold request with the EBB
  // backend (see requestPayload).
  for (const Program &P : W.Programs)
    W.Jobs.push_back({&P, AllocatorKind::EbbScan});
  return W;
}

// --- offline: compileTextModule -------------------------------------------

/// Kernel-normalised timings of the timed phase. Each pass (offline: one
/// round of the jobs; serving: one batch) is scaled by the mean of the
/// kernel runs just before and just after it. compile_s and req_per_s are
/// medians over passes, so a host stall that hits a few passes does not
/// move them.
struct Timing {
  std::vector<double> RoundS;  ///< per pass: normalised time per round, s
  std::vector<double> Rate;    ///< per pass: operations per normalised s
  std::vector<double> Latency; ///< per operation, s
  uint64_t Ops = 0;
  double LastKernelS = 0;

  void record(double PassS, uint64_t PassOps, const std::vector<double> &LatS,
              double KernelS, double PassRounds) {
    double Scale = KernelRefSeconds /
                   (LastKernelS > 0 ? (LastKernelS + KernelS) / 2 : KernelS);
    LastKernelS = KernelS;
    RoundS.push_back(PassS * Scale / PassRounds);
    Rate.push_back(double(PassOps) / (PassS * Scale));
    for (double L : LatS)
      Latency.push_back(L * Scale);
    Ops += PassOps;
  }
  void report(Result &R) const {
    R.metric("compile_s", median(RoundS), "s");
    R.metric("req_per_s", median(Rate), "req/s");
    R.metric("latency_p50_ms", quantile(Latency, 0.50) * 1e3, "ms");
    R.metric("latency_p99_ms", quantile(Latency, 0.99) * 1e3, "ms");
  }
};

/// Checks (a)-(c) on each job's verified answer and sums the quality
/// counts. \p Uses[j] is how many replies equalled job j's answer: all of
/// them fail when it does.
Quality checkAnswers(const Workload &W, const std::vector<std::string> &Text,
                     const std::vector<unsigned> &Spills,
                     const std::vector<uint64_t> &Uses, const TargetDesc &TD,
                     Result &R) {
  std::map<const Program *, size_t> RefOf;
  std::vector<const Program *> Progs;
  for (const Job &J : W.Jobs)
    if (RefOf.emplace(J.P, Progs.size()).second)
      Progs.push_back(J.P);
  std::vector<Reference> Refs(Progs.size());
  parallelChecks(Progs.size(), [&](size_t I) {
    Refs[I] = makeReference(Progs[I]->Text, TD);
  });
  std::vector<Quality> Q(W.Jobs.size());
  std::vector<std::string> Why(W.Jobs.size());
  parallelChecks(W.Jobs.size(), [&](size_t J) {
    Why[J] = checkOutput(Refs[RefOf.at(W.Jobs[J].P)], Text[J], Spills[J], TD,
                         &Q[J]);
  });
  Quality Total;
  for (size_t J = 0; J < W.Jobs.size(); ++J) {
    if (!Why[J].empty())
      R.fail(Uses[J], W.Jobs[J].P->Name + "/" + shortName(W.Jobs[J].K) +
                          ": " + Why[J]);
    Total += Q[J];
  }
  return Total;
}

/// setup_s: one cold set-up, from the process's start to the first timed
/// operation, normalised by the median of three kernel runs right after it:
/// one set-up is a single sample, so its scale should not rest on a single
/// kernel run either.
double reportSetup(RefKernel &Kern, Result &R) {
  double SetupS = secondsSince(ProcessStartNs);
  double K[3] = {Kern.run(), Kern.run(), Kern.run()};
  std::sort(K, K + 3);
  double KernelS = K[1];
  R.metric("setup_s", SetupS * KernelRefSeconds / KernelS, "s");
  return KernelS;
}

void reportQuality(const Quality &Q, Result &R) {
  R.metric("dyn_instrs", double(Q.DynInstrs), "count");
  R.metric("dyn_spill_instrs", double(Q.DynSpillInstrs), "count");
  R.metric("code_instrs", double(Q.CodeInstrs), "count");
}

void runOffline(const Workload &W, const Options &O, const TargetDesc &TD,
                RefKernel &Kern, Result &R) {
  size_t N = W.Jobs.size();
  std::vector<std::string> Answer(N);
  std::vector<unsigned> Spills(N);
  std::vector<uint64_t> Uses(N, 1);
  // Warm-up pass: its outputs are the ones checked against the reference.
  for (size_t J = 0; J < N; ++J) {
    TextCompileResult C = compileTextModule(W.Jobs[J].P->Text, TD, W.Jobs[J].K);
    ++R.Attempted;
    Answer[J] = C.Ok ? C.AllocatedText : "";
    Spills[J] = C.Stats.staticSpillInstrs();
  }
  Timing T;
  T.LastKernelS = reportSetup(Kern, R);
  std::mt19937_64 Rng(O.Seed);
  std::vector<size_t> Order(N);
  for (size_t J = 0; J < N; ++J)
    Order[J] = J;
  std::vector<double> Lat(N);
  int64_t Deadline = nowNs() + int64_t(O.Seconds * 1e9);
  while (nowNs() < Deadline) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    double Pass = 0;
    for (size_t I = 0; I < N; ++I) {
      const Job &Jb = W.Jobs[Order[I]];
      int64_t T0 = nowNs();
      TextCompileResult C = compileTextModule(Jb.P->Text, TD, Jb.K);
      double Dt = double(nowNs() - T0) * 1e-9;
      Pass += Dt;
      Lat[I] = Dt;
      ++R.Attempted;
      // (d) for offline compiles: every later output equals the answer
      // that is checked in full below.
      std::string Err = C.Ok ? checkSameAnswer(Answer[Order[I]],
                                               C.AllocatedText)
                             : C.Error;
      if (Err.empty() && C.Stats.staticSpillInstrs() != Spills[Order[I]])
        Err = "static spill count changed between compiles";
      if (Err.empty())
        ++Uses[Order[I]];
      else
        R.fail(1, Jb.P->Name + "/" + shortName(Jb.K) + ": " + Err);
    }
    T.record(Pass, N, Lat, Kern.run(), 1);
  }
  T.report(R);
  // Peak of the compiling process, before the checks add their own.
  rusage RU{};
  ::getrusage(RUSAGE_SELF, &RU);
  double PeakMiB = double(RU.ru_maxrss) / 1024.0;
  reportQuality(checkAnswers(W, Answer, Spills, Uses, TD, R), R);
  R.metric("peak_rss_mb", PeakMiB, "MiB");
}

// --- serving: lsra serve over the wire ------------------------------------

struct ServeRun {
  Timing T;
  std::vector<double> RawLatencyUs; ///< client-side, not normalised
  uint64_t PeakRssBytes = 0;
  std::string Stats;      ///< `lsra stats` JSON taken before shutdown
  Quality Q;              ///< of the verified warm-up answers
};

/// The wire request for \p J. The serving workloads ask for the default
/// allocator (binpack) under the server's tier-0 policy, so the EBB backend
/// answers (J.K); offline workloads' jobs, served in the traced run, name
/// their backend and turn tiering off.
std::string requestPayload(const Job &J, bool Serving) {
  server::CompileRequest Req;
  if (Serving) {
    Req.Allocator = shortName(AllocatorKind::SecondChanceBinpack);
  } else {
    Req.Allocator = shortName(J.K);
    Req.Tier = "off";
  }
  Req.IRText = J.P->Text;
  return server::encodeCompileRequest(Req);
}

/// One fresh server, loaded for \p Seconds with the workload's stream.
bool serve(const Workload &W, const Options &O, double Seconds,
           const std::string &RequestLog, const TargetDesc &TD,
           RefKernel &Kern, bool IsTimedRun, ServeRun &Out, Result &R) {
  std::string Tag = std::to_string(::getpid());
  std::string Sock = O.RunDir + "/lsra-" + Tag + ".sock";
  std::vector<std::string> Args = {"serve", "--socket=" + Sock,
                                   "--tier=tier0", "--no-l2", "--workers=1"};
  if (!RequestLog.empty())
    Args.push_back("--request-log=" + RequestLog);
  ::unlink(Sock.c_str());
  ServerProcess S;
  std::string Err;
  std::vector<Conn> Conns(Connections);
  bool Up = S.start(O.Lsra, Args, Err);
  for (Conn &C : Conns)
    Up = Up && C.connect(Sock, 20000, Err);
  if (!Up) {
    R.Broken = true;
    R.fail(0, "server: " + Err);
    return false;
  }

  std::vector<std::string> Fixed;
  for (const Job &J : W.Jobs)
    Fixed.push_back(requestPayload(J, W.Serving));
  std::vector<const std::string *> Batch;
  for (const std::string &P : Fixed)
    Batch.push_back(&P);
  std::vector<Reply> Warm;
  if (!runClosedLoop(Conns, Batch, Warm, Err)) {
    R.Broken = true;
    R.fail(0, "warm-up: " + Err);
    return false;
  }
  R.Attempted += Warm.size();
  std::vector<std::string> Answer(W.Jobs.size());
  std::vector<unsigned> Spills(W.Jobs.size());
  std::vector<uint64_t> Uses(W.Jobs.size(), 1);
  for (size_t J = 0; J < Warm.size(); ++J) {
    Answer[J] = Warm[J].Resp.ok() ? Warm[J].Resp.IRText : "";
    Spills[J] = Warm[J].Resp.StaticSpills;
  }
  Out.T.LastKernelS = IsTimedRun ? reportSetup(Kern, R) : Kern.run();

  std::mt19937_64 Rng(O.Seed);
  uint64_t NextCold = 0;
  unsigned Rounds = W.ColdStream
                        ? 1
                        : (WarmBatchRequests + W.Jobs.size() - 1) /
                              W.Jobs.size();
  std::vector<size_t> JobOf;
  std::vector<std::string> ColdPayloads;
  std::vector<std::unique_ptr<Module>> ColdModules;
  std::vector<Reply> Replies;
  std::vector<double> Lat;
  int64_t Deadline = nowNs() + int64_t(Seconds * 1e9);
  while (nowNs() < Deadline) {
    Batch.clear();
    if (W.ColdStream) {
      ColdPayloads.clear();
      ColdModules.clear();
      for (unsigned I = 0; I < ColdBatch; ++I) {
        ColdModules.push_back(
            buildRandomProgram(coldProgramSeed(O.Seed, NextCold++)));
        Program P{"", printToText(*ColdModules.back())};
        ColdPayloads.push_back(requestPayload({&P, AllocatorKind::EbbScan},
                                              true));
      }
      for (const std::string &P : ColdPayloads)
        Batch.push_back(&P);
    } else {
      JobOf.clear();
      for (unsigned Rd = 0; Rd < Rounds; ++Rd)
        for (size_t J = 0; J < W.Jobs.size(); ++J)
          JobOf.push_back(J);
      std::shuffle(JobOf.begin(), JobOf.end(), Rng);
      for (size_t J : JobOf)
        Batch.push_back(&Fixed[J]);
    }
    int64_t T0 = nowNs();
    if (!runClosedLoop(Conns, Batch, Replies, Err)) {
      R.Broken = true;
      R.fail(0, "load: " + Err);
      return false;
    }
    double BatchS = double(nowNs() - T0) * 1e-9;
    // No request is outstanding here.
    double KernelS = Kern.run();
    size_t Proved = Rng() % Replies.size();
    // Latency samples leave out each connection's first request of the
    // batch: it meets a server idled by the benchmark's own pause.
    Lat.clear();
    for (const Reply &Rep : Replies)
      if (!Rep.First) {
        Lat.push_back(double(Rep.LatencyNs) * 1e-9);
        Out.RawLatencyUs.push_back(double(Rep.LatencyNs) * 1e-3);
      }
    Out.T.record(BatchS, Replies.size(), Lat, KernelS, Rounds);
    if (!Out.PeakRssBytes && Out.T.Ops >= RssSampleRequests)
      Out.PeakRssBytes = S.peakRssBytes();
    R.Attempted += Replies.size();
    std::vector<std::string> Why(Replies.size());
    parallelChecks(Replies.size(), [&](size_t I) {
      const server::CompileResponse &Resp = Replies[I].Resp;
      if (!Replies[I].Transport)
        Why[I] = "undecodable reply: " + Resp.Message;
      else if (!Resp.ok())
        Why[I] = std::string(server::frameTypeName(Resp.Status)) + ": " +
                 Resp.Message;
      else if (W.ColdStream)
        Why[I] = checkOutput(makeReference(std::move(ColdModules[I]), TD),
                             Resp.IRText, Resp.StaticSpills, TD, nullptr,
                             I == Proved);
      else if (Resp.StaticSpills != Spills[JobOf[I]])
        Why[I] = "static spill count differs from the verified answer";
      else
        Why[I] = checkSameAnswer(Answer[JobOf[I]], Resp.IRText);
    });
    for (size_t I = 0; I < Replies.size(); ++I) {
      if (!Why[I].empty())
        R.fail(1, "reply " + std::to_string(I) + ": " + Why[I]);
      else if (!W.ColdStream)
        ++Uses[JobOf[I]];
    }
  }
  if (!Out.PeakRssBytes)
    Out.PeakRssBytes = S.peakRssBytes();
  if (!RequestLog.empty() && !fetchStats(Conns[0], Out.Stats, Err)) {
    R.Broken = true;
    R.fail(0, "stats: " + Err);
  }
  Conns.clear();
  int Exit = S.stop();
  ::unlink(Sock.c_str());
  if (Exit != 0) {
    R.Broken = true;
    R.fail(0, "lsra serve exited with status " + std::to_string(Exit));
  }
  Out.Q = checkAnswers(W, Answer, Spills, Uses, TD, R);
  return true;
}

void runServing(const Workload &W, const Options &O, const TargetDesc &TD,
                RefKernel &Kern, Result &R) {
  ServeRun S;
  if (!serve(W, O, O.Seconds, "", TD, Kern, true, S, R))
    return;
  S.T.report(R);
  reportQuality(S.Q, R);
  R.metric("peak_rss_mb", double(S.PeakRssBytes) / (1024.0 * 1024.0), "MiB");
}

// --- traced run: per-layer metrics ----------------------------------------

/// A number from the `lsra stats` JSON: the first "Key": value after the
/// first occurrence of \p Within (or from the start). NaN when absent.
double statNumber(const std::string &Doc, const std::string &Within,
                  const std::string &Key) {
  size_t Pos = Within.empty() ? 0 : Doc.find("\"" + Within + "\"");
  if (Pos == std::string::npos)
    return NAN;
  Pos = Doc.find("\"" + Key + "\": ", Pos);
  if (Pos == std::string::npos)
    return NAN;
  return std::strtod(Doc.c_str() + Pos + Key.size() + 4, nullptr);
}

double orZero(double V) { return std::isnan(V) ? 0 : V; }

/// Requests that shared a worker batch with another: the mass of the
/// server.batch.requests histogram above size 1.
double batchedRequests(const std::string &Doc) {
  size_t Pos = Doc.find("\"server.batch.requests\"");
  if (Pos == std::string::npos)
    return 0;
  Pos = Doc.find("\"buckets\": [", Pos);
  size_t End = Doc.find("]]", Pos);
  if (Pos == std::string::npos || End == std::string::npos)
    return 0;
  double Total = 0;
  for (size_t P = Doc.find('[', Pos + 12); P < End; P = Doc.find('[', P + 1)) {
    char *E = nullptr;
    double Size = std::strtod(Doc.c_str() + P + 1, &E);
    double Count = std::strtod(E + 1, nullptr);
    if (Size > 1)
      Total += Size * Count;
  }
  return Total;
}

/// Median duration of each request-log phase, in microseconds.
std::map<std::string, double> phaseMedians(const std::string &Path) {
  std::map<std::string, std::vector<double>> Durs;
  std::ifstream IS(Path);
  std::string Line;
  const std::string NameKey = "{\"name\": \"", DurKey = "\"dur_us\": ";
  while (std::getline(IS, Line))
    for (size_t P = Line.find(NameKey); P != std::string::npos;
         P = Line.find(NameKey, P + 1)) {
      size_t NameEnd = Line.find('"', P + NameKey.size());
      size_t D = Line.find(DurKey, NameEnd);
      if (NameEnd == std::string::npos || D == std::string::npos)
        break;
      Durs[Line.substr(P + NameKey.size(), NameEnd - P - NameKey.size())]
          .push_back(std::strtod(Line.c_str() + D + DurKey.size(), nullptr));
    }
  std::map<std::string, double> Out;
  for (auto &[Name, V] : Durs)
    Out[Name] = median(V);
  return Out;
}

template <typename Fn>
double medianOf(const std::vector<LayerTotals> &Reps, Fn &&Field) {
  std::vector<double> V;
  for (const LayerTotals &L : Reps)
    V.push_back(double(Field(L)));
  return median(V);
}

void runTraced(const Workload &W, const Options &O, const TargetDesc &TD,
               RefKernel &Kern, Result &R) {
  // 1. Offline replay, layer by layer, of the workload's own jobs; every
  //    backend's regalloc.* figures come from its inputs too.
  std::vector<AllocatorKind> Kinds = AllocatorRegistry::global().kinds();
  std::vector<LayerTotals> Own;
  std::map<AllocatorKind, std::vector<LayerTotals>> PerBackend;
  int64_t ReplayEnd = nowNs() + int64_t(O.Seconds * 0.4e9);
  do {
    LayerTotals OwnRep;
    for (AllocatorKind K : Kinds) {
      LayerTotals Rep;
      for (const Program &P : W.Programs) {
        bool IsOwn =
            std::any_of(W.Jobs.begin(), W.Jobs.end(),
                        [&](const Job &J) { return J.P == &P && J.K == K; });
        LayerTotals One;
        std::string Err;
        ++R.Attempted;
        if (!replayLayers(P.Text, TD, K, One, Err)) {
          R.fail(1, P.Name + "/" + shortName(K) + ": " + Err);
          continue;
        }
        Rep += One;
        if (IsOwn)
          OwnRep += One;
      }
      PerBackend[K].push_back(Rep);
    }
    Own.push_back(OwnRep);
  } while (nowNs() < ReplayEnd);

  auto M = [&](const char *Name, auto Field, const char *Unit) {
    R.metric(Name, medianOf(Own, Field), Unit);
  };
  M("ir.parse_s", [](const LayerTotals &L) { return L.ParseS; }, "s");
  M("ir.print_s", [](const LayerTotals &L) { return L.PrintS; }, "s");
  M("ir.verify_s", [](const LayerTotals &L) { return L.VerifyS; }, "s");
  M("ir.text_bytes", [](const LayerTotals &L) { return L.TextBytes; }, "bytes");
  M("ir.parse_allocs", [](const LayerTotals &L) { return L.ParseAllocs; },
    "count");
  M("target.lower_s", [](const LayerTotals &L) { return L.LowerS; }, "s");
  M("target.callee_saves_s",
    [](const LayerTotals &L) { return L.CalleeSavesS; }, "s");
  M("passes.dce_s", [](const LayerTotals &L) { return L.DceS; }, "s");
  M("passes.dce_removed", [](const LayerTotals &L) { return L.DceRemoved; },
    "count");
  M("passes.dce_allocs", [](const LayerTotals &L) { return L.DceAllocs; },
    "count");
  M("passes.peephole_s", [](const LayerTotals &L) { return L.PeepholeS; }, "s");
  M("analysis.liveness_s", [](const LayerTotals &L) { return L.LivenessS; },
    "s");
  M("analysis.lifetimes_s", [](const LayerTotals &L) { return L.LifetimesS; },
    "s");
  M("analysis.loops_s", [](const LayerTotals &L) { return L.LoopsS; }, "s");
  M("analysis.allocs", [](const LayerTotals &L) { return L.AnalysisAllocs; },
    "count");
  for (AllocatorKind K : Kinds) {
    const std::vector<LayerTotals> &B = PerBackend[K];
    std::string S = shortName(K);
    R.metric("regalloc.scan_s." + S,
             medianOf(B, [](const LayerTotals &L) { return L.ScanS; }), "s");
    R.metric("regalloc.allocs." + S,
             medianOf(B, [](const LayerTotals &L) { return L.ScanAllocs; }),
             "count");
    const AllocStats &St = B.front().Stats; // deterministic
    R.metric("regalloc.static_spill_instrs." + S, St.staticSpillInstrs(),
             "count");
    R.metric("regalloc.spilled_temps." + S, St.SpilledTemps, "count");
    R.metric("regalloc.splits." + S, St.LifetimeSplits, "count");
    R.metric("regalloc.dataflow_iterations." + S, St.DataflowIterations,
             "count");
  }
  M("driver.compile_text_s",
    [](const LayerTotals &L) { return L.CompileTextS; }, "s");
  M("driver.unattributed_s",
    [](const LayerTotals &L) { return L.CompileTextS - L.layerSum(); }, "s");
  M("driver.trace_overhead_s",
    [](const LayerTotals &L) { return L.ReplayS - L.CompileTextS; }, "s");
  M("driver.replay_stale", [](const LayerTotals &L) { return L.Stale; },
    "count");

  // 2. The same stream through lsra serve, untraced and then traced
  //    (request log on); each on a fresh server.
  ServeRun Plain, Traced;
  std::string Log =
      O.RunDir + "/requests-" + std::to_string(::getpid()) + ".jsonl";
  ::unlink(Log.c_str());
  double Share = O.Seconds * 0.25;
  if (!serve(W, O, Share, "", TD, Kern, false, Plain, R) ||
      !serve(W, O, Share, Log, TD, Kern, false, Traced, R)) {
    ::unlink(Log.c_str());
    return;
  }
  std::map<std::string, double> Phases = phaseMedians(Log);
  ::unlink(Log.c_str());
  for (const char *P : {"recv", "queue-wait", "cache-probe", "parse", "alloc",
                        "alloc:dce", "tier0-alloc", "emit", "reply"}) {
    std::string Name = P;
    std::replace(Name.begin(), Name.end(), ':', '_');
    std::replace(Name.begin(), Name.end(), '-', '_');
    R.metric("server.phase." + Name + "_us", Phases.count(P) ? Phases[P] : 0,
             "us");
  }
  const std::string &Doc = Traced.Stats;
  double LatencyUs = orZero(statNumber(Doc, "server.latency_us", "p50"));
  R.metric("server.queue_wait_us",
           orZero(statNumber(Doc, "server.queue_wait_us", "p50")), "us");
  R.metric("server.latency_us", LatencyUs, "us");
  R.metric("server.batched_requests", batchedRequests(Doc), "count");
  double Hits = orZero(statNumber(Doc, "", "cache.hits"));
  double Misses = orZero(statNumber(Doc, "", "cache.misses"));
  R.metric("cache.hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
           "ratio");
  R.metric("cache.inserts", orZero(statNumber(Doc, "", "cache.insertions")),
           "count");
  R.metric("net.client_overhead_us",
           median(Traced.RawLatencyUs) - LatencyUs, "us");
  R.metric("server.trace_overhead_us",
           (median(Traced.T.Latency) - median(Plain.T.Latency)) * 1e6, "us");
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--lsra")
      O.Lsra = V;
    else if (K == "--run-dir")
      O.RunDir = V;
    else
      return false;
  }
  return Argc % 2 == 1 && !O.Workload.empty() && O.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload corpus|table3|serve-cold|"
                 "serve-warm --seed N --seconds S --trace 0|1 --lsra PATH "
                 "[--run-dir DIR]\n");
    return 2;
  }
  static const char *const Known[] = {"corpus", "table3", "serve-cold",
                                      "serve-warm"};
  if (std::find_if(std::begin(Known), std::end(Known), [&](const char *K) {
        return O.Workload == K;
      }) == std::end(Known)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  RefKernel Kern;
  TargetDesc TD = TargetDesc::alphaLike();
  Workload W = makeWorkload(O.Workload);
  Result R;
  if (O.Trace)
    runTraced(W, O, TD, Kern, R);
  else if (W.Serving)
    runServing(W, O, TD, Kern, R);
  else
    runOffline(W, O, TD, Kern, R);
  if (!R.FirstError.empty())
    std::fprintf(stderr, "perfbench: %s\n", R.FirstError.c_str());
  if (R.Broken)
    return 1;
  R.print();
  return 0;
}
