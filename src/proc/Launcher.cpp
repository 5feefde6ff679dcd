//===- proc/Launcher.cpp - Real-process world supervisor ------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "proc/Launcher.h"

#include "scenario/Parse.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <mutex>
#include <netinet/in.h>
#include <poll.h>
#include <sstream>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace cliffedge;
using namespace cliffedge::proc;

namespace {

// --- Zombie-proofing ---------------------------------------------------
// Every spawned daemon is registered here until reaped. The atexit hook
// SIGKILLs whatever is left, so even an abort() in unrelated code cannot
// leak a child; the campaign runs launchers from worker threads, hence
// the mutex.

std::mutex GReapMu;
std::vector<pid_t> GReapPids;

void reapAllAtExit() {
  std::lock_guard<std::mutex> Lock(GReapMu);
  for (pid_t P : GReapPids) {
    kill(P, SIGKILL);
    waitpid(P, nullptr, 0);
  }
  GReapPids.clear();
}

void installReaper() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    signal(SIGPIPE, SIG_IGN);
    atexit(reapAllAtExit);
  });
}

void registerPid(pid_t P) {
  std::lock_guard<std::mutex> Lock(GReapMu);
  GReapPids.push_back(P);
}

void unregisterPid(pid_t P) {
  std::lock_guard<std::mutex> Lock(GReapMu);
  GReapPids.erase(std::remove(GReapPids.begin(), GReapPids.end(), P),
                  GReapPids.end());
}

// --- Per-child state ---------------------------------------------------

struct Child {
  pid_t Pid = -1;
  int In = -1;  ///< Write end of the child's stdin.
  int Out = -1; ///< Read end of the child's stdout.
  LineReader Reader;
  std::vector<NodeId> Nodes;
  bool Doomed = false;
  uint64_t KillAtMs = 0; ///< Offset from GO; meaningful when Doomed.
  uint16_t Port = 0;
  bool Hello = false, Ready = false, Bye = false;
  bool Killed = false; ///< SIGKILL dispatched per the plan.
  bool Eof = false;
  bool Reaped = false;
  int WaitStatus = 0;
  /// Kernel accounting from the reap (wait4): peak RSS and CPU burned by
  /// this daemon. Valid only when HaveUsage — ECHILD races (the atexit
  /// reaper got there first) leave it unset rather than zero-filled.
  struct rusage Usage = {};
  bool HaveUsage = false;
  bool BadLine = false;
  report::ProcEventStream Stream;
  bool HaveStats = false;
  report::ProcStats Stats;
  uint64_t PollSeen = 0; ///< Highest poll id answered.
  bool PollIdle = false;
  uint64_t PollMask = 0, PollSent = 0, PollDelivered = 0;
};

bool parseU64(const std::string &S, uint64_t &V) {
  if (S.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  V = strtoull(S.c_str(), &End, 10);
  return errno == 0 && End && *End == '\0';
}

std::vector<std::string> splitWords(const std::string &Line) {
  std::vector<std::string> Words;
  std::istringstream Is(Line);
  std::string W;
  while (Is >> W)
    Words.push_back(W);
  return Words;
}

/// One run's mutable machinery; Launcher::run drives it and copies the
/// verdict out. Destruction reaps everything still alive.
class WorldRun {
public:
  WorldRun(const scenario::Spec &S, uint64_t Seed,
           const LauncherOptions &Opts, std::vector<pid_t> &LiveOut)
      : S(S), Seed(Seed), Opts(Opts), Live(LiveOut) {}

  ~WorldRun() { killEverything(); }

  bool run(ProcResult &Out, std::string &Err);

private:
  const scenario::Spec &S;
  uint64_t Seed;
  const LauncherOptions &Opts;
  std::vector<pid_t> &Live;

  scenario::MaterializedRun Run;
  std::vector<Child> Children;
  uint64_t KilledMask = 0;
  uint64_t GoMs = 0;

  bool partition(ProcResult &Out, std::string &Err);
  bool spawnOne(Child &C, const std::string &Bin);
  void pumpChild(Child &C);
  void pollChildren(int TimeoutMs);
  void handleLine(Child &C, const std::string &Line);
  void killChild(Child &C);
  void reapChild(Child &C, uint64_t DeadlineMs);
  void killEverything();
  void accountUsage(ProcResult &Out);
  bool infraFail(ProcResult &Out, FailureClass Why, const std::string &Msg);
};

bool WorldRun::partition(ProcResult &Out, std::string &Err) {
  // First crash time per doomed node, in plan order.
  std::map<NodeId, SimTime> CrashAt;
  for (const workload::TimedCrash &C : Run.Plan.Crashes) {
    auto It = CrashAt.find(C.Node);
    if (It == CrashAt.end() || C.When < It->second)
      CrashAt[C.Node] = C.When;
  }
  std::vector<std::pair<SimTime, NodeId>> Doomed;
  for (const auto &[Node, When] : CrashAt)
    Doomed.push_back({When, Node});
  std::sort(Doomed.begin(), Doomed.end());

  std::vector<NodeId> Survivors;
  graph::Region Faulty = Run.Plan.faultySet();
  for (NodeId N = 0; N < Run.Topo->G.numNodes(); ++N)
    if (!Faulty.contains(N))
      Survivors.push_back(N);
  if (Survivors.empty()) {
    Err = "crash plan leaves no correct node; the process transport "
          "needs at least one survivor to observe quiescence";
    return false;
  }

  // Quantize distinct crash times into at most MaxKillGroups kill
  // groups, preserving plan order: group g dies at GO + (g+1)*spacing.
  // Absolute tick values are not mapped to wall clock — any spacing
  // yields a legal execution of the same fault set, which is all the
  // CD properties constrain.
  std::vector<SimTime> Times;
  for (const auto &[When, Node] : Doomed)
    if (Times.empty() || Times.back() != When)
      Times.push_back(When);
  uint16_t SurvShards = static_cast<uint16_t>(
      std::min<size_t>(std::max<uint16_t>(Opts.SurvivorShards, 1),
                       Survivors.size()));
  uint16_t MaxGroups = static_cast<uint16_t>(std::min<int>(
      std::max<uint16_t>(Opts.MaxKillGroups, 1), kMaxShards - SurvShards));
  size_t NumGroups = std::min<size_t>(Times.size(), MaxGroups);
  std::vector<std::vector<NodeId>> Groups(NumGroups);
  for (const auto &[When, Node] : Doomed) {
    size_t Rank = static_cast<size_t>(
        std::lower_bound(Times.begin(), Times.end(), When) - Times.begin());
    Groups[Rank * NumGroups / Times.size()].push_back(Node);
  }

  Children.clear();
  for (uint16_t I = 0; I < SurvShards; ++I) {
    Child C;
    // Contiguous id chunks: deterministic and co-locates neighbours.
    size_t Lo = Survivors.size() * I / SurvShards;
    size_t Hi = Survivors.size() * (I + 1) / SurvShards;
    C.Nodes.assign(Survivors.begin() + Lo, Survivors.begin() + Hi);
    Children.push_back(std::move(C));
  }
  for (size_t G = 0; G < Groups.size(); ++G) {
    Child C;
    C.Nodes = Groups[G];
    C.Doomed = true;
    C.Stream.Killed = true;
    C.KillAtMs = (G + 1) * static_cast<uint64_t>(Opts.T.KillSpacingMs);
    KilledMask |= 1ull << Children.size();
    Children.push_back(std::move(C));
  }
  Out.NumShards = static_cast<uint16_t>(Children.size());
  Out.KilledShards = static_cast<uint16_t>(Groups.size());
  Out.Faulty = Faulty;
  return true;
}

bool WorldRun::spawnOne(Child &C, const std::string &Bin) {
  int InPipe[2], OutPipe[2];
  if (pipe2(InPipe, O_CLOEXEC) != 0)
    return false;
  if (pipe2(OutPipe, O_CLOEXEC) != 0) {
    close(InPipe[0]);
    close(InPipe[1]);
    return false;
  }
  // Only async-signal-safe calls between fork and exec: the campaign may
  // be running several launchers from different threads.
  std::vector<std::string> EnvStore;
  EnvStore.reserve(Opts.ExtraEnv.size()); // Pointers below must not move.
  std::vector<char *> Envp;
  for (char **E = environ; *E; ++E)
    Envp.push_back(*E);
  for (const auto &[K, V] : Opts.ExtraEnv) {
    EnvStore.push_back(K + "=" + V);
    Envp.push_back(EnvStore.back().data());
  }
  Envp.push_back(nullptr);
  char *Argv[2] = {const_cast<char *>(Bin.c_str()), nullptr};
  pid_t Pid = fork();
  if (Pid < 0) {
    close(InPipe[0]);
    close(InPipe[1]);
    close(OutPipe[0]);
    close(OutPipe[1]);
    return false;
  }
  if (Pid == 0) {
    dup2(InPipe[0], STDIN_FILENO);
    dup2(OutPipe[1], STDOUT_FILENO);
    execve(Bin.c_str(), Argv, Envp.data());
    _exit(127);
  }
  close(InPipe[0]);
  close(OutPipe[1]);
  C.Pid = Pid;
  C.In = InPipe[1];
  C.Out = OutPipe[0];
  int Flags = fcntl(C.Out, F_GETFL, 0);
  fcntl(C.Out, F_SETFL, Flags | O_NONBLOCK);
  registerPid(Pid);
  Live.push_back(Pid);
  return true;
}

void WorldRun::pumpChild(Child &C) {
  if (C.Eof || C.Out < 0)
    return;
  char Buf[8192];
  while (true) {
    ssize_t N = read(C.Out, Buf, sizeof(Buf));
    if (N > 0) {
      C.Reader.feed(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N == 0)
      C.Eof = true;
    break;
  }
  std::string Line;
  while (C.Reader.pop(Line))
    handleLine(C, Line);
}

void WorldRun::pollChildren(int TimeoutMs) {
  std::vector<struct pollfd> Fds;
  std::vector<size_t> Idx;
  for (size_t I = 0; I < Children.size(); ++I)
    if (!Children[I].Eof && Children[I].Out >= 0) {
      Fds.push_back({Children[I].Out, POLLIN, 0});
      Idx.push_back(I);
    }
  if (Fds.empty()) {
    struct timespec Ts = {0, std::min(std::max(TimeoutMs, 0), 50) * 1000000L};
    nanosleep(&Ts, nullptr);
    return;
  }
  int R = poll(Fds.data(), Fds.size(), TimeoutMs);
  if (R <= 0)
    return;
  for (size_t I = 0; I < Fds.size(); ++I)
    if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR))
      pumpChild(Children[Idx[I]]);
}

void WorldRun::handleLine(Child &C, const std::string &Line) {
  std::vector<std::string> W = splitWords(Line);
  if (W.empty())
    return;
  if (W[0] == "HELLO" && W.size() == 2) {
    uint64_t Port = 0;
    if (parseU64(W[1], Port) && Port > 0 && Port < 65536) {
      C.Port = static_cast<uint16_t>(Port);
      C.Hello = true;
      return;
    }
  } else if (W[0] == "READY" && W.size() == 1) {
    C.Ready = true;
    return;
  } else if (W[0] == "EV") {
    C.Stream.Lines.push_back(Line);
    return;
  } else if (W[0] == "STATUS" && W.size() == 6) {
    uint64_t Id = 0, Idle = 0, Sent = 0, Delivered = 0;
    uint64_t Mask = strtoull(W[3].c_str(), nullptr, 16);
    if (parseU64(W[1], Id) && parseU64(W[2], Idle) && parseU64(W[4], Sent) &&
        parseU64(W[5], Delivered)) {
      C.PollSeen = Id;
      C.PollIdle = Idle == 1;
      C.PollMask = Mask;
      C.PollSent = Sent;
      C.PollDelivered = Delivered;
      return;
    }
  } else if (W[0] == "STATS") {
    if (report::parseStatsLine(Line, C.Stats)) {
      C.HaveStats = true;
      C.Stream.DeclaredEvents = C.Stats.Events;
      return;
    }
  } else if (W[0] == "BYE" && W.size() == 1) {
    C.Bye = true;
    return;
  }
  C.BadLine = true;
}

void WorldRun::killChild(Child &C) {
  if (C.Pid > 0 && !C.Reaped)
    kill(C.Pid, SIGKILL);
  C.Killed = true;
}

/// Drains remaining output, then waits for the child with WNOHANG,
/// escalating to SIGKILL at \p DeadlineMs.
void WorldRun::reapChild(Child &C, uint64_t DeadlineMs) {
  if (C.Reaped)
    return;
  while (!C.Eof) {
    struct pollfd Fd = {C.Out, POLLIN, 0};
    if (poll(&Fd, 1, 50) <= 0 && nowMs() >= DeadlineMs)
      break;
    pumpChild(C);
    if (nowMs() >= DeadlineMs)
      break;
  }
  bool Escalated = false;
  while (true) {
    // wait4 rather than waitpid: the reap is the one moment the kernel
    // hands over the child's lifetime accounting (peak RSS, CPU), and it
    // is equally valid for SIGKILLed daemons — usage accrues up to the
    // kill, so doomed shards report real numbers too.
    pid_t R = wait4(C.Pid, &C.WaitStatus, WNOHANG, &C.Usage);
    if (R == C.Pid) {
      C.HaveUsage = true;
      break;
    }
    if (R < 0 && errno == ECHILD)
      break;
    if (nowMs() >= DeadlineMs && !Escalated) {
      kill(C.Pid, SIGKILL);
      Escalated = true;
    }
    struct timespec Ts = {0, 10000000L}; // 10ms
    nanosleep(&Ts, nullptr);
  }
  C.Reaped = true;
  unregisterPid(C.Pid);
  Live.erase(std::remove(Live.begin(), Live.end(), C.Pid), Live.end());
  if (C.In >= 0) {
    close(C.In);
    C.In = -1;
  }
  if (C.Out >= 0) {
    close(C.Out);
    C.Out = -1;
  }
}

void WorldRun::killEverything() {
  for (Child &C : Children)
    if (C.Pid > 0 && !C.Reaped)
      kill(C.Pid, SIGKILL);
  uint64_t Deadline = nowMs() + 5000;
  for (Child &C : Children)
    if (C.Pid > 0)
      reapChild(C, Deadline);
}

/// Folds every reaped child's wait4 accounting into the result: max peak
/// RSS (the interesting number — daemons run concurrently, but each has
/// its own address space, so the max bounds any one shard's footprint)
/// and summed CPU (the world's total compute bill).
void WorldRun::accountUsage(ProcResult &Out) {
  // Recomputed from scratch: run() accounts after the STOP reap and
  // infraFail accounts again on late failures — += without the reset
  // would double-bill the CPU column on that path.
  Out.DaemonPeakRssKb = 0;
  Out.DaemonCpuMs = 0;
  for (const Child &C : Children) {
    if (!C.HaveUsage)
      continue;
    // Linux ru_maxrss is already in kilobytes.
    Out.DaemonPeakRssKb = std::max(
        Out.DaemonPeakRssKb, static_cast<uint64_t>(C.Usage.ru_maxrss));
    uint64_t CpuUs =
        static_cast<uint64_t>(C.Usage.ru_utime.tv_sec) * 1000000 +
        static_cast<uint64_t>(C.Usage.ru_utime.tv_usec) +
        static_cast<uint64_t>(C.Usage.ru_stime.tv_sec) * 1000000 +
        static_cast<uint64_t>(C.Usage.ru_stime.tv_usec);
    Out.DaemonCpuMs += CpuUs / 1000;
  }
}

bool WorldRun::infraFail(ProcResult &Out, FailureClass Why,
                         const std::string &Msg) {
  killEverything();
  // Even a failed world reports what its daemons cost — useful when the
  // failure *is* resource-related (an OOM-killed shard shows up here).
  accountUsage(Out);
  Out.Infra = Why;
  Out.Error = Msg;
  return true;
}

bool WorldRun::run(ProcResult &Out, std::string &Err) {
  installReaper();
  std::string Why;
  if (!specSupportsProc(S, Why)) {
    Err = Why;
    return false;
  }
  if (!scenario::materializeSingle(S, Seed, Run, Err))
    return false;
  if (!partition(Out, Err))
    return false;

  // Probe UDP loopback before spawning anything: some sandboxes have no
  // network stack at all, and that is a skip, not a failure.
  {
    int Probe = socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in A;
    memset(&A, 0, sizeof(A));
    A.sin_family = AF_INET;
    A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bool OkProbe =
        Probe >= 0 &&
        bind(Probe, reinterpret_cast<sockaddr *>(&A), sizeof(A)) == 0;
    if (Probe >= 0)
      close(Probe);
    if (!OkProbe) {
      Err = "udp loopback unavailable";
      return false;
    }
  }

  std::string Bin = Opts.NodeBinary.empty() ? defaultNodeBinary()
                                            : Opts.NodeBinary;
  if (access(Bin.c_str(), X_OK) != 0)
    return infraFail(Out, FailureClass::SpawnFailure,
                     "cliffedge-node binary not executable: " + Bin);
  for (Child &C : Children)
    if (!spawnOne(C, Bin))
      return infraFail(Out, FailureClass::SpawnFailure,
                       std::string("spawn failed: ") + strerror(errno));

  // --- HELLO ------------------------------------------------------------
  uint64_t ReadyDeadline = nowMs() + Opts.T.ReadyMs;
  auto AllOf = [&](auto Pred) {
    return std::all_of(Children.begin(), Children.end(), Pred);
  };
  while (!AllOf([](const Child &C) { return C.Hello; })) {
    for (const Child &C : Children)
      if (C.Eof && !C.Hello)
        return infraFail(Out, FailureClass::SpawnFailure,
                         "daemon exited before HELLO");
    if (nowMs() >= ReadyDeadline)
      return infraFail(Out, FailureClass::ReadinessTimeout,
                       "HELLO deadline expired");
    pollChildren(50);
  }

  // --- CONFIG / SPEC / ASSIGN ------------------------------------------
  std::string SpecText = scenario::writeSpec(S);
  size_t SpecLines =
      static_cast<size_t>(std::count(SpecText.begin(), SpecText.end(), '\n'));
  for (size_t I = 0; I < Children.size(); ++I) {
    Child &C = Children[I];
    std::string Cfg = "CONFIG " + std::to_string(I) + " " +
                      std::to_string(Children.size()) + " " +
                      std::to_string(Seed) + " " +
                      std::to_string(Opts.T.HeartbeatMs) + " " +
                      std::to_string(Opts.T.SuspectMs) + " " +
                      std::to_string(Opts.T.RtoMs) + " " +
                      std::to_string(Opts.T.RtoMaxMs);
    bool W = writeLine(C.In, Cfg) &&
             writeLine(C.In, "SPEC " + std::to_string(SpecLines)) &&
             writeAll(C.In, SpecText.data(), SpecText.size());
    for (size_t J = 0; W && J < Children.size(); ++J) {
      std::string Csv;
      for (NodeId N : Children[J].Nodes) {
        if (!Csv.empty())
          Csv += ',';
        Csv += std::to_string(N);
      }
      W = writeLine(C.In, "ASSIGN " + std::to_string(J) + " " +
                              std::to_string(Children[J].Port) + " " + Csv);
    }
    if (!W)
      return infraFail(Out, FailureClass::SpawnFailure,
                       "control pipe write failed");
  }

  // --- READY / GO -------------------------------------------------------
  while (!AllOf([](const Child &C) { return C.Ready; })) {
    for (const Child &C : Children)
      if (C.Eof && !C.Ready)
        return infraFail(Out, FailureClass::UnexpectedExit,
                         "daemon exited before READY");
    if (nowMs() >= ReadyDeadline)
      return infraFail(Out, FailureClass::ReadinessTimeout,
                       "READY deadline expired");
    pollChildren(50);
  }
  for (Child &C : Children)
    if (!writeLine(C.In, "GO"))
      return infraFail(Out, FailureClass::UnexpectedExit,
                       "daemon lost before GO");
  GoMs = nowMs();

  // --- Supervision: kills, events, quiescence ---------------------------
  uint64_t LastKillOffset = 0;
  for (const Child &C : Children)
    if (C.Doomed)
      LastKillOffset = std::max(LastKillOffset, C.KillAtMs);
  uint64_t QuiesceFromMs =
      GoMs + LastKillOffset +
      (KilledMask ? Opts.T.SuspectMs + 200 : 200);
  uint64_t WatchdogAt = GoMs + Opts.T.WatchdogMs;
  uint64_t PollId = 0, NextPollAt = QuiesceFromMs;
  bool PrevRoundGood = false;
  uint64_t PrevSent = 0, PrevDelivered = 0;
  bool Quiesced = false;

  while (!Quiesced) {
    uint64_t Now = nowMs();
    if (Now >= WatchdogAt)
      return infraFail(Out, FailureClass::WatchdogTimeout,
                       "world failed to quiesce within watchdog");
    // Dispatch due kills — the crash plan, for real.
    uint64_t NextTimer = WatchdogAt;
    for (Child &C : Children) {
      if (!C.Doomed || C.Killed)
        continue;
      if (Now >= GoMs + C.KillAtMs)
        killChild(C);
      else
        NextTimer = std::min(NextTimer, GoMs + C.KillAtMs);
    }
    // Reap killed children once their stream hits EOF.
    for (Child &C : Children) {
      if (C.Killed && C.Eof && !C.Reaped)
        reapChild(C, Now + 2000);
      if (!C.Killed && C.Eof && !C.Reaped)
        return infraFail(Out, FailureClass::UnexpectedExit,
                         "daemon died outside the crash plan");
      if (C.BadLine)
        return infraFail(Out, FailureClass::UnexpectedExit,
                         "daemon spoke out of protocol");
    }
    // Quiescence polling.
    if (Now >= NextPollAt) {
      bool RoundComplete = true;
      uint64_t SumSent = 0, SumDelivered = 0;
      bool AllIdle = true, MasksOk = true;
      for (Child &C : Children) {
        if (C.Doomed)
          continue;
        if (C.PollSeen != PollId || PollId == 0) {
          RoundComplete = false;
          break;
        }
        AllIdle = AllIdle && C.PollIdle;
        MasksOk = MasksOk && C.PollMask == KilledMask;
        SumSent += C.PollSent;
        SumDelivered += C.PollDelivered;
      }
      if (PollId > 0 && RoundComplete) {
        bool Good = AllIdle && MasksOk;
        if (Good && PrevRoundGood && SumSent == PrevSent &&
            SumDelivered == PrevDelivered) {
          Quiesced = true;
          break;
        }
        PrevRoundGood = Good;
        PrevSent = SumSent;
        PrevDelivered = SumDelivered;
      }
      ++PollId;
      for (Child &C : Children)
        if (!C.Doomed)
          if (!writeLine(C.In, "POLL " + std::to_string(PollId)))
            return infraFail(Out, FailureClass::UnexpectedExit,
                             "survivor lost its control pipe");
      NextPollAt = Now + Opts.T.PollIntervalMs;
    }
    NextTimer = std::min(NextTimer, NextPollAt);
    uint64_t Wait = NextTimer > Now ? NextTimer - Now : 0;
    pollChildren(static_cast<int>(std::min<uint64_t>(Wait, 50)));
  }
  Out.WallMs = nowMs() - GoMs;

  // --- STOP / STATS / BYE ----------------------------------------------
  for (Child &C : Children)
    if (!C.Doomed)
      writeLine(C.In, "STOP");
  uint64_t StopDeadline = nowMs() + 10000;
  while (true) {
    bool AllDone = true;
    for (Child &C : Children)
      if (!C.Doomed && !(C.Bye || C.Eof))
        AllDone = false;
    if (AllDone)
      break;
    if (nowMs() >= StopDeadline)
      return infraFail(Out, FailureClass::UnexpectedExit,
                       "survivor ignored STOP");
    pollChildren(50);
  }
  for (Child &C : Children)
    reapChild(C, nowMs() + 2000);
  accountUsage(Out);
  for (Child &C : Children) {
    if (C.Doomed)
      continue;
    if (!C.Bye || !C.HaveStats)
      return infraFail(Out, FailureClass::UnexpectedExit,
                       "survivor stream ended without STATS/BYE");
    if (!WIFEXITED(C.WaitStatus) || WEXITSTATUS(C.WaitStatus) != 0)
      return infraFail(Out, FailureClass::UnexpectedExit,
                       "survivor exited with non-zero status");
    Out.Stats.merge(C.Stats);
  }

  // --- Merge + CD1..CD7 -------------------------------------------------
  std::vector<report::ProcEventStream> Streams;
  for (Child &C : Children)
    Streams.push_back(std::move(C.Stream));
  std::string MergeErr;
  if (!report::mergeEventStreams(Streams, Run.Topo->G.numNodes(), Out.Trace,
                                 MergeErr))
    return infraFail(Out, FailureClass::UnexpectedExit,
                     "event merge failed: " + MergeErr);
  for (NodeId N : Out.Faulty)
    if (Out.Trace.CrashTimes[N] == TimeNever)
      return infraFail(Out, FailureClass::UnexpectedExit,
                       "killed node " + std::to_string(N) +
                           " was never suspected despite quiescence");
  trace::CheckInput In;
  In.G = &Run.Topo->G;
  In.Faulty = Out.Faulty;
  In.CrashTimes = Out.Trace.CrashTimes;
  In.Decisions = Out.Trace.Decisions;
  In.SendLog = nullptr; // CD3 needs a global send log; see the docs.
  Out.Check = trace::checkAll(In);
  return true;
}

} // namespace

bool proc::specSupportsProc(const scenario::Spec &Sp, std::string &Why) {
  if (Sp.ServiceEpochs > 0) {
    Why = "transport proc does not support service mode";
    return false;
  }
  if (Sp.Epochs.size() != 1) {
    Why = "transport proc supports single-epoch scenarios only";
    return false;
  }
  return true;
}

std::string proc::defaultNodeBinary() {
  if (const char *Env = getenv("CLIFFEDGE_NODE_BIN"))
    return Env;
  char Buf[4096];
  ssize_t N = readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return "cliffedge-node";
  Buf[N] = '\0';
  std::string Path(Buf);
  size_t Slash = Path.rfind('/');
  if (Slash == std::string::npos)
    return "cliffedge-node";
  return Path.substr(0, Slash + 1) + "cliffedge-node";
}

Launcher::Launcher(scenario::Spec InS, uint64_t InSeed, LauncherOptions InOpts)
    : S(std::move(InS)), Seed(InSeed), Opts(std::move(InOpts)) {}

Launcher::~Launcher() {
  for (pid_t P : Live) {
    kill(P, SIGKILL);
    waitpid(P, nullptr, 0);
    unregisterPid(P);
  }
  Live.clear();
}

bool Launcher::run(ProcResult &Out, std::string &Err) {
  WorldRun W(S, Seed, Opts, Live);
  return W.run(Out, Err);
}
