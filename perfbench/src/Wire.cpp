//===- perfbench/src/Wire.cpp ---------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "Wire.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace lsra::server;

namespace perfbench {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- ServerProcess ---------------------------------------------------------

ServerProcess::~ServerProcess() {
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    int St = 0;
    ::waitpid(Pid, &St, 0);
  }
}

bool ServerProcess::start(const std::string &Lsra,
                          const std::vector<std::string> &Args,
                          std::string &Err) {
  std::vector<char *> Argv;
  Argv.push_back(const_cast<char *>(Lsra.c_str()));
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  pid_t Parent = ::getpid();
  pid_t P = ::fork();
  if (P < 0) {
    Err = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (P == 0) {
    // Die with the benchmark, whatever happens to it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != Parent)
      ::_exit(127);
    // The server's banner and drain messages are not the benchmark's
    // output: keep stdout for the result line.
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    ::execv(Argv[0], Argv.data());
    ::_exit(127);
  }
  Pid = P;
  return true;
}

uint64_t ServerProcess::peakRssBytes() const {
  std::ifstream IS("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(Line.c_str() + 6, nullptr, 10) * 1024;
  return 0;
}

int ServerProcess::stop() {
  if (Pid <= 0)
    return -1;
  ::kill(Pid, SIGTERM);
  int St = 0;
  pid_t R;
  do
    R = ::waitpid(Pid, &St, 0);
  while (R < 0 && errno == EINTR);
  Pid = -1;
  if (R < 0)
    return -1;
  return WIFEXITED(St) ? WEXITSTATUS(St) : 128 + WTERMSIG(St);
}

// --- Conn ------------------------------------------------------------------

Conn::~Conn() {
  if (Fd >= 0)
    ::close(Fd);
}

Conn::Conn(Conn &&O) noexcept : Fd(O.Fd), Dec(std::move(O.Dec)) { O.Fd = -1; }

bool Conn::connect(const std::string &Path, int TimeoutMs, std::string &Err) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Path;
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int64_t Deadline = nowNs() + int64_t(TimeoutMs) * 1000000;
  while (true) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0) {
      Err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      break;
    ::close(Fd);
    Fd = -1;
    if (nowNs() > Deadline) {
      Err = "cannot connect to " + Path + ": " + std::strerror(errno);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!sendFrame(0, FrameType::Ping, "", Err))
    return false;
  FrameDecoder::Frame F;
  if (!recvFrame(F, TimeoutMs, Err))
    return false;
  if (F.Type != FrameType::Pong) {
    Err = std::string("expected pong, got ") + frameTypeName(F.Type);
    return false;
  }
  return true;
}

bool Conn::sendFrame(uint32_t Id, FrameType T, const std::string &Payload,
                     std::string &Err) {
  std::string Header =
      encodeFrameHeader(static_cast<uint32_t>(Payload.size()), Id, T);
  iovec Iov[2] = {{Header.data(), Header.size()},
                  {const_cast<char *>(Payload.data()), Payload.size()}};
  size_t Left = Header.size() + Payload.size();
  int Idx = 0;
  while (Left > 0) {
    ssize_t N = ::writev(Fd, Iov + Idx, 2 - Idx);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = std::string("send: ") + std::strerror(errno);
      return false;
    }
    Left -= static_cast<size_t>(N);
    while (Idx < 2 && static_cast<size_t>(N) >= Iov[Idx].iov_len) {
      N -= static_cast<ssize_t>(Iov[Idx].iov_len);
      ++Idx;
    }
    if (Idx < 2) {
      Iov[Idx].iov_base = static_cast<char *>(Iov[Idx].iov_base) + N;
      Iov[Idx].iov_len -= static_cast<size_t>(N);
    }
  }
  return true;
}

bool Conn::pump(std::string &Err) {
  char Buf[1 << 16];
  while (true) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
    if (N > 0) {
      Dec.append(Buf, static_cast<size_t>(N));
      if (static_cast<size_t>(N) < sizeof(Buf))
        return true;
      continue;
    }
    if (N == 0) {
      Err = "server closed the connection";
      return false;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return true;
    Err = std::string("recv: ") + std::strerror(errno);
    return false;
  }
}

bool Conn::recvFrame(FrameDecoder::Frame &Out, int TimeoutMs,
                     std::string &Err) {
  int64_t Deadline = nowNs() + int64_t(TimeoutMs) * 1000000;
  while (true) {
    switch (Dec.next(Out)) {
    case FrameDecoder::Status::Frame:
      return true;
    case FrameDecoder::Status::Error:
      Err = "bad frame: " + Out.Err;
      return false;
    case FrameDecoder::Status::NeedMore:
      break;
    }
    int Left = static_cast<int>((Deadline - nowNs()) / 1000000);
    if (Left <= 0) {
      Err = "timed out waiting for a reply";
      return false;
    }
    pollfd P{Fd, POLLIN, 0};
    if (::poll(&P, 1, Left) < 0 && errno != EINTR) {
      Err = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    if (!pump(Err))
      return false;
  }
}

// --- closed loop -----------------------------------------------------------

bool runClosedLoop(std::vector<Conn> &Conns,
                   const std::vector<const std::string *> &Payloads,
                   std::vector<Reply> &Out, std::string &Err) {
  constexpr int ReplyTimeoutMs = 60000;
  size_t N = Payloads.size(), Next = 0, Done = 0;
  Out.assign(N, Reply());
  std::vector<size_t> Slot(Conns.size(), SIZE_MAX);
  std::vector<int64_t> Sent(Conns.size(), 0);
  auto Issue = [&](size_t C) {
    if (Next >= N)
      return true;
    size_t I = Next++;
    Out[I].First = I < Conns.size();
    Slot[C] = I;
    Sent[C] = nowNs();
    return Conns[C].sendFrame(static_cast<uint32_t>(I + 1),
                              FrameType::CompileRequest, *Payloads[I], Err);
  };
  for (size_t C = 0; C < Conns.size(); ++C)
    if (!Issue(C))
      return false;
  std::vector<pollfd> Fds(Conns.size());
  while (Done < N) {
    for (size_t C = 0; C < Conns.size(); ++C)
      Fds[C] = {Slot[C] == SIZE_MAX ? -1 : Conns[C].fd(), POLLIN, 0};
    int R = ::poll(Fds.data(), Fds.size(), ReplyTimeoutMs);
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0) {
      Err = R == 0 ? "timed out waiting for replies" : "poll failed";
      return false;
    }
    for (size_t C = 0; C < Conns.size(); ++C) {
      if (!(Fds[C].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      if (!Conns[C].pump(Err))
        return false;
      FrameDecoder::Frame F;
      FrameDecoder::Status St = Conns[C].decoder().next(F);
      if (St == FrameDecoder::Status::NeedMore)
        continue;
      if (St == FrameDecoder::Status::Error) {
        Err = "bad frame: " + F.Err;
        return false;
      }
      int64_t T = nowNs();
      size_t I = Slot[C];
      if (F.RequestId != I + 1) {
        Err = "reply for request " + std::to_string(F.RequestId) +
              ", expected " + std::to_string(I + 1);
        return false;
      }
      Reply &Rep = Out[I];
      Rep.LatencyNs = T - Sent[C];
      std::string DecodeErr;
      Rep.Transport = decodeCompileResponse(F.Type, F.Payload, Rep.Resp,
                                            DecodeErr);
      if (!Rep.Transport)
        Rep.Resp.Message = DecodeErr;
      ++Done;
      Slot[C] = SIZE_MAX;
      if (!Issue(C))
        return false;
    }
  }
  return true;
}

bool fetchStats(Conn &C, std::string &Doc, std::string &Err) {
  StatsRequest Req;
  if (!C.sendFrame(0x7fffffff, FrameType::StatsRequest,
                   encodeStatsRequest(Req), Err))
    return false;
  FrameDecoder::Frame F;
  if (!C.recvFrame(F, 10000, Err))
    return false;
  if (F.Type != FrameType::StatsReply) {
    Err = std::string("expected a stats reply, got ") + frameTypeName(F.Type);
    return false;
  }
  Doc = std::move(F.Payload);
  return true;
}

} // namespace perfbench
