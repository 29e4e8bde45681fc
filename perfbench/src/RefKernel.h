//===- perfbench/src/RefKernel.h - Host-speed reference kernel -*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed amount of the benchmark's own work, timed right after each timed
/// rep of the program, so that a rep's time can be expressed relative to
/// the host's speed at that moment (see README.md, "Timing method").
///
/// The work resembles a compiler front end, because that is what tracked
/// the host's speed swings best in the measurements the README records: it
/// splits a private ~1 MiB text of IR-like lines into tokens, copies each
/// token into a string and hashes it. The strings live in a private arena
/// (std::pmr), so the kernel calls no code of the program (not even its
/// counting operator new) and shares no memory or threads with it; the
/// serving client runs it only while no request is outstanding.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFKERNEL_H
#define PERFBENCH_REFKERNEL_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory_resource>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class RefKernel {
public:
  static constexpr unsigned Lines = 60000;
  static constexpr size_t TokensPerFlush = 1024;

  /// Run the kernel once; returns its wall time in seconds. The first call
  /// builds the text and the arena before its timed interval starts, so a
  /// RefKernel costs nothing until it is first used (the benchmark's
  /// set-up time does not include it).
  double run() {
    if (Text.empty())
      prepare();
    auto T0 = std::chrono::steady_clock::now();
    uint64_t H = 0;
    {
      std::pmr::vector<std::pmr::string> Toks(&*Arena);
      Toks.reserve(TokensPerFlush);
      auto IsSep = [](char C) { return C == ' ' || C == '\n' || C == ','; };
      for (size_t I = 0, N = Text.size(); I < N;) {
        while (I < N && IsSep(Text[I]))
          ++I;
        size_t S = I;
        while (I < N && !IsSep(Text[I]))
          ++I;
        if (I == S)
          continue;
        Toks.emplace_back(std::string_view(Text).substr(S, I - S));
        if (Toks.size() == TokensPerFlush) {
          for (const std::pmr::string &T : Toks)
            H += std::hash<std::string_view>()(T);
          Toks.clear();
        }
      }
    }
    Arena->release();
    Sink = H;
    auto T1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(T1 - T0).count();
  }

private:
  void prepare() {
    uint64_t X = 0x9e3779b97f4a7c15ull;
    for (unsigned I = 0; I < Lines; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      Text += "  add $" + std::to_string(X % 32) + ", $" +
              std::to_string((X >> 8) % 32) + ", " +
              std::to_string((X >> 16) % 1000) + "\n";
    }
    ArenaBytes.resize(2u << 20);
    Arena.emplace(ArenaBytes.data(), ArenaBytes.size(),
                  std::pmr::null_memory_resource());
  }

  std::string Text;
  /// Tokens are short (SSO) but the vector and any long token come from
  /// here: 2 MiB covers one run's allocations.
  std::vector<std::byte> ArenaBytes;
  std::optional<std::pmr::monotonic_buffer_resource> Arena;
  volatile uint64_t Sink = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REFKERNEL_H
