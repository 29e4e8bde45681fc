//===- perfbench/src/Wire.h - Server process and wire client ---*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own load client: it starts `lsra serve` as a separate
/// process and speaks the framed wire protocol to it over a unix socket,
/// one thread driving a fixed set of connections in a closed loop (each
/// connection has at most one request outstanding). Only the protocol's
/// encoders and decoders come from the program; the load engine is the
/// benchmark's, so it does not change when the program's own load
/// generator does.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WIRE_H
#define PERFBENCH_WIRE_H

#include "server/Protocol.h"

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// Monotonic clock, nanoseconds.
int64_t nowNs();

/// `lsra serve` in a child process. The child dies with the benchmark
/// (PR_SET_PDEATHSIG), and the destructor kills and reaps it if stop() was
/// never called.
class ServerProcess {
public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  bool start(const std::string &Lsra, const std::vector<std::string> &Args,
             std::string &Err);
  /// Peak resident set of the server (VmHWM), in bytes; 0 if unreadable.
  uint64_t peakRssBytes() const;
  /// Graceful drain (SIGTERM) and reap. Returns the exit status, or -1.
  int stop();

private:
  pid_t Pid = -1;
};

/// One client connection to the server.
class Conn {
public:
  Conn() = default;
  ~Conn();
  Conn(Conn &&O) noexcept;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  /// Connect to \p Path, retrying until \p TimeoutMs passes (the server
  /// may still be binding), then round-trip one ping.
  bool connect(const std::string &Path, int TimeoutMs, std::string &Err);
  bool sendFrame(uint32_t Id, lsra::server::FrameType T,
                 const std::string &Payload, std::string &Err);
  /// Block until one whole frame has arrived (or \p TimeoutMs passes).
  bool recvFrame(lsra::server::FrameDecoder::Frame &Out, int TimeoutMs,
                 std::string &Err);
  int fd() const { return Fd; }
  /// Read what the socket holds into the decoder (non-blocking after poll).
  bool pump(std::string &Err);
  lsra::server::FrameDecoder &decoder() { return Dec; }

private:
  int Fd = -1;
  lsra::server::FrameDecoder Dec;
};

/// One answered request of a closed-loop batch.
struct Reply {
  bool Transport = true; ///< false when the frame did not decode
  lsra::server::CompileResponse Resp;
  int64_t LatencyNs = 0; ///< send start to reply decoded
  /// The first request of the batch on its connection: it meets a server
  /// that has been idle since the previous batch.
  bool First = false;
};

/// Issue every payload (encoded CompileRequests) over \p Conns, each
/// connection holding one request at a time, and wait for every reply.
/// Replies come back in payload order. Nothing is outstanding on return.
bool runClosedLoop(std::vector<Conn> &Conns,
                   const std::vector<const std::string *> &Payloads,
                   std::vector<Reply> &Out, std::string &Err);

/// The server's metrics snapshot (`lsra stats` JSON) over \p C.
bool fetchStats(Conn &C, std::string &Doc, std::string &Err);

} // namespace perfbench

#endif // PERFBENCH_WIRE_H
