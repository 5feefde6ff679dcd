//===- proc/Daemon.cpp - cliffedge-node daemon --------------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
//
// One shard process. Structure of the event loop:
//
//   poll({stdin, udp}) with a timeout bounded by the next timer
//   -> control lines (POLL / STOP, or EOF = supervisor death)
//   -> datagrams: ARQ accept, ack, in-order protocol delivery
//   -> timers: shim releases, heartbeats, suspicion, retransmits
//   -> local mail (frames between co-hosted nodes take the same encoded
//      path as remote ones, minus the socket)
//
// Everything is single-threaded; protocol callbacks re-enter nothing —
// multicasts append to queues, crash notifications drain from a queue at
// the top level, so a node is never dispatched from inside another
// node's dispatch.
//
//===----------------------------------------------------------------------===//

#include "proc/Daemon.h"

#include "core/CliffEdgeNode.h"
#include "core/ViewTable.h"
#include "core/Wire.h"
#include "net/Channel.h"
#include "net/Link.h"
#include "proc/Proto.h"
#include "scenario/Parse.h"
#include "scenario/Spec.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <memory>
#include <netinet/in.h>
#include <poll.h>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

using namespace cliffedge;
using namespace cliffedge::proc;

namespace {

/// One frame between co-hosted nodes, or released by the ARQ.
struct Mail {
  NodeId From = 0;
  NodeId To = 0;
  uint64_t Lamport = 0;
  std::shared_ptr<const std::vector<uint8_t>> Bytes;
};

/// A shim-delayed outgoing datagram (the reorder half of the loss model).
struct DelayedDgram {
  uint64_t ReleaseMs = 0;
  uint16_t PeerShard = 0;
  std::shared_ptr<const std::vector<uint8_t>> Bytes;
  bool operator>(const DelayedDgram &O) const {
    return ReleaseMs > O.ReleaseMs;
  }
};

bool setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// Splits a control line on single spaces.
std::vector<std::string> splitWords(const std::string &Line) {
  std::vector<std::string> Words;
  std::istringstream Is(Line);
  std::string W;
  while (Is >> W)
    Words.push_back(W);
  return Words;
}

bool parseU64(const std::string &S, uint64_t &V) {
  if (S.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  V = strtoull(S.c_str(), &End, 10);
  return errno == 0 && End && *End == '\0';
}

class Daemon {
public:
  int run();

private:
  // --- Configuration (CONFIG / SPEC / ASSIGN) ---------------------------
  uint16_t MyShard = 0;
  uint16_t NumShards = 0;
  uint64_t Seed = 1;
  Timing T = defaultTiming();
  scenario::Spec Spec;
  scenario::MaterializedRun Run;
  std::vector<std::vector<NodeId>> ShardNodes; ///< Indexed by shard.
  std::vector<uint16_t> ShardPort;
  std::vector<uint16_t> NodeShard; ///< Indexed by node id.

  // --- Sockets ----------------------------------------------------------
  int Udp = -1;
  std::vector<sockaddr_in> PeerAddr;

  // --- Protocol hosting -------------------------------------------------
  /// The daemon's core::NodeHost: one object serves every hosted node.
  struct Host final : core::NodeHost {
    explicit Host(Daemon &D) : D(D) {}
    void multicast(NodeId From, const graph::Region &To,
                   const core::Message &M) override;
    void monitorCrash(NodeId From, const graph::Region &Targets) override;
    void decide(NodeId From, const graph::Region &View,
                core::Value Chosen) override;
    core::Value selectValue(NodeId From,
                            const graph::Region &View) override;
    Daemon &D;
  };
  Host HostObj{*this};
  std::unique_ptr<core::ViewTable> Views;
  /// The daemon's one execution domain, shared by its hosted nodes.
  std::unique_ptr<core::NodeContext> Ctx;
  std::vector<std::unique_ptr<core::CliffEdgeNode>> Nodes; ///< By node id.
  uint64_t Lamport = 0;

  // --- Fault plane ------------------------------------------------------
  std::unique_ptr<net::LinkModel> Shim; ///< Null when the spec is lossless.
  std::priority_queue<DelayedDgram, std::vector<DelayedDgram>,
                      std::greater<DelayedDgram>>
      Delayed;
  std::vector<net::ReliableChannelSend<std::vector<uint8_t>>> SendCh;
  std::vector<net::ReliableChannelRecv<Mail>> RecvCh;

  // --- Failure detection ------------------------------------------------
  std::vector<uint64_t> LastHeardMs;
  std::vector<bool> Suspected;     ///< By shard.
  graph::Region CrashedKnown;      ///< Nodes of suspected shards.
  std::vector<std::vector<NodeId>> WatchersOf; ///< By watched node id.
  std::deque<std::pair<NodeId, NodeId>> PendingNotify; ///< (watcher, dead).
  std::set<uint64_t> NotifiedPairs;

  // --- Queues & counters ------------------------------------------------
  std::deque<Mail> LocalMail;
  uint64_t NextHbMs = 0;
  LineReader Control;
  bool StopRequested = false;
  bool ControlEof = false;
  struct {
    uint64_t Sent = 0, Delivered = 0, EventLines = 0;
    uint64_t ReorderDropped = 0;
    net::ChannelStats Channel;
  } Stats;
  core::Message Scratch;
  std::vector<Mail> Released;

  // --- Phases -----------------------------------------------------------
  bool handshake();
  bool buildWorld(std::string &Err);
  void eventLoop();
  void emitStatsAndBye();

  // --- Plumbing ---------------------------------------------------------
  bool readControlLine(std::string &Line, uint64_t DeadlineMs);
  void pumpControl();
  void drainSocket();
  void onDatagram(const uint8_t *Data, size_t Len);
  void deliver(const Mail &M);
  void drainLocalMail();
  void sendData(NodeId From, NodeId To,
                const std::shared_ptr<const std::vector<uint8_t>> &Frame);
  void shimSend(uint16_t PeerShard, std::vector<uint8_t> Dgram);
  void rawSend(uint16_t PeerShard, const std::vector<uint8_t> &Dgram);
  void sendPureAck(uint16_t PeerShard);
  void sendHeartbeats(uint64_t Now);
  void checkSuspicions(uint64_t Now);
  void suspectShard(uint16_t S);
  void drainNotifies();
  void retransmitOverdue(uint64_t Now);
  void releaseDelayed(uint64_t Now);
  uint64_t nextDeadline(uint64_t Now) const;
  bool idle() const;
  void writeEv(const std::string &Line);
  void handlePoll(const std::string &PollId);
};

void maybeStall(const char *Phase) {
  const char *Env = getenv("CLIFFEDGE_NODE_TEST_STALL");
  if (Env && !strcmp(Env, Phase))
    for (;;)
      pause();
}

int Daemon::run() {
  // The launcher owns this process's lifetime; a write to a closed pipe
  // must surface as an error return, not a fatal signal.
  signal(SIGPIPE, SIG_IGN);
  if (!setNonBlocking(STDIN_FILENO))
    return 1;
  Udp = socket(AF_INET, SOCK_DGRAM, 0);
  if (Udp < 0)
    return 1;
  sockaddr_in Addr;
  memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = 0;
  if (bind(Udp, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      !setNonBlocking(Udp))
    return 1;
  socklen_t Len = sizeof(Addr);
  if (getsockname(Udp, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0)
    return 1;
  maybeStall("hello");
  if (!writeLine(STDOUT_FILENO,
                 "HELLO " + std::to_string(ntohs(Addr.sin_port))))
    return 1;
  if (!handshake())
    return 1;
  eventLoop();
  if (!StopRequested)
    return 1; // Control channel died under us.
  emitStatsAndBye();
  return 0;
}

/// Reads control lines until GO, collecting CONFIG/SPEC/ASSIGN and
/// acknowledging with READY once the world is built.
bool Daemon::handshake() {
  uint64_t Deadline = nowMs() + T.ReadyMs;
  std::string Line, SpecText;
  bool HaveConfig = false;
  size_t AssignsSeen = 0;
  while (true) {
    if (!readControlLine(Line, Deadline))
      return false;
    std::vector<std::string> W = splitWords(Line);
    if (W.empty())
      continue;
    if (W[0] == "CONFIG" && W.size() == 8) {
      uint64_t V[7];
      for (int I = 0; I < 7; ++I)
        if (!parseU64(W[I + 1], V[I]))
          return false;
      MyShard = static_cast<uint16_t>(V[0]);
      NumShards = static_cast<uint16_t>(V[1]);
      Seed = V[2];
      T.HeartbeatMs = static_cast<uint32_t>(V[3]);
      T.SuspectMs = static_cast<uint32_t>(V[4]);
      T.RtoMs = static_cast<uint32_t>(V[5]);
      T.RtoMaxMs = static_cast<uint32_t>(V[6]);
      if (NumShards == 0 || NumShards > kMaxShards || MyShard >= NumShards)
        return false;
      ShardNodes.assign(NumShards, {});
      ShardPort.assign(NumShards, 0);
      HaveConfig = true;
    } else if (W[0] == "SPEC" && W.size() == 2 && HaveConfig) {
      uint64_t N = 0;
      if (!parseU64(W[1], N) || N > 100000)
        return false;
      for (uint64_t I = 0; I < N; ++I) {
        if (!readControlLine(Line, Deadline))
          return false;
        SpecText += Line;
        SpecText += '\n';
      }
    } else if (W[0] == "ASSIGN" && W.size() == 4 && HaveConfig) {
      uint64_t S = 0, Port = 0;
      if (!parseU64(W[1], S) || S >= NumShards || !parseU64(W[2], Port))
        return false;
      ShardPort[S] = static_cast<uint16_t>(Port);
      std::istringstream Csv(W[3]);
      std::string Tok;
      while (std::getline(Csv, Tok, ',')) {
        uint64_t Id = 0;
        if (!parseU64(Tok, Id))
          return false;
        ShardNodes[S].push_back(static_cast<NodeId>(Id));
      }
      ++AssignsSeen;
      if (AssignsSeen == NumShards) {
        scenario::ParseResult P = scenario::parseSpec(SpecText);
        if (!P.Ok)
          return false;
        Spec = P.S;
        std::string Err;
        if (!buildWorld(Err))
          return false;
        maybeStall("ready");
        if (!writeLine(STDOUT_FILENO, "READY"))
          return false;
      }
    } else if (W[0] == "GO") {
      if (AssignsSeen != NumShards)
        return false;
      uint64_t Now = nowMs();
      LastHeardMs.assign(NumShards, Now);
      NextHbMs = Now;
      for (NodeId N : ShardNodes[MyShard])
        Nodes[N]->start();
      drainNotifies();
      drainLocalMail();
      return true;
    } else {
      return false;
    }
  }
}

bool Daemon::buildWorld(std::string &Err) {
  if (!scenario::materializeSingle(Spec, Seed, Run, Err))
    return false;
  const graph::Graph &G = Run.Topo->G;
  uint32_t N = G.numNodes();
  NodeShard.assign(N, NumShards); // Sentinel: unassigned.
  for (uint16_t S = 0; S < NumShards; ++S)
    for (NodeId Id : ShardNodes[S]) {
      if (Id >= N || NodeShard[Id] != NumShards)
        return false;
      NodeShard[Id] = S;
    }
  PeerAddr.assign(NumShards, sockaddr_in());
  for (uint16_t S = 0; S < NumShards; ++S) {
    memset(&PeerAddr[S], 0, sizeof(sockaddr_in));
    PeerAddr[S].sin_family = AF_INET;
    PeerAddr[S].sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    PeerAddr[S].sin_port = htons(ShardPort[S]);
  }
  SendCh.assign(NumShards, {});
  RecvCh.assign(NumShards, {});
  LastHeardMs.assign(NumShards, 0);
  Suspected.assign(NumShards, false);
  WatchersOf.assign(N, {});
  if (Spec.Link.lossy())
    Shim = std::make_unique<net::LinkModel>(Spec.Link, Seed,
                                            Spec.Perturb.LinkSalt);
  Views = std::make_unique<core::ViewTable>(G, Spec.Ranking);
  Nodes.resize(N);
  core::Config Cfg;
  Cfg.Ranking = Spec.Ranking;
  Cfg.EarlyTermination = Spec.EarlyTermination;
  Ctx = std::make_unique<core::NodeContext>(G, *Views, Cfg, HostObj);
  for (NodeId Self : ShardNodes[MyShard])
    Nodes[Self] = std::make_unique<core::CliffEdgeNode>(Self, *Ctx);
  return true;
}

void Daemon::Host::multicast(NodeId From, const graph::Region &To,
                             const core::Message &M) {
  ++D.Lamport;
  auto Bytes =
      std::make_shared<const std::vector<uint8_t>>(core::encodeMessage(M));
  for (NodeId R : To) {
    ++D.Stats.Sent;
    if (D.NodeShard[R] == D.MyShard)
      D.LocalMail.push_back(Mail{From, R, D.Lamport, Bytes});
    else
      D.sendData(From, R, Bytes);
  }
}

void Daemon::Host::monitorCrash(NodeId From, const graph::Region &Targets) {
  for (NodeId Q : Targets) {
    std::vector<NodeId> &Ws = D.WatchersOf[Q];
    if (std::find(Ws.begin(), Ws.end(), From) == Ws.end())
      Ws.push_back(From);
    if (D.CrashedKnown.contains(Q))
      D.PendingNotify.emplace_back(From, Q);
  }
}

void Daemon::Host::decide(NodeId From, const graph::Region &View,
                          core::Value Chosen) {
  ++D.Lamport;
  std::string Csv;
  for (NodeId M : View) {
    if (!Csv.empty())
      Csv += ',';
    Csv += std::to_string(M);
  }
  D.writeEv("EV DECIDE " + std::to_string(From) + " " +
            std::to_string(D.Lamport) + " " + std::to_string(Chosen) + " " +
            Csv);
}

// Mirrors trace::withRunnerDefaults: a proposer offers its own id.
core::Value Daemon::Host::selectValue(NodeId From, const graph::Region &) {
  return static_cast<core::Value>(From);
}

void Daemon::eventLoop() {
  while (!StopRequested) {
    uint64_t Now = nowMs();
    uint64_t Deadline = nextDeadline(Now);
    int TimeoutMs =
        Deadline <= Now ? 0
                        : static_cast<int>(std::min<uint64_t>(Deadline - Now,
                                                              50));
    struct pollfd Fds[2];
    Fds[0] = {STDIN_FILENO, POLLIN, 0};
    Fds[1] = {Udp, POLLIN, 0};
    int R = poll(Fds, 2, TimeoutMs);
    if (R < 0 && errno != EINTR)
      return;
    if (R > 0) {
      if (Fds[0].revents & (POLLIN | POLLHUP | POLLERR))
        pumpControl();
      // EOF on stdin means the supervisor is gone: drain any buffered
      // STOP, then die rather than run orphaned.
      if (ControlEof && !StopRequested)
        return;
      if (Fds[1].revents & POLLIN)
        drainSocket();
    }
    Now = nowMs();
    releaseDelayed(Now);
    sendHeartbeats(Now);
    checkSuspicions(Now);
    retransmitOverdue(Now);
    drainNotifies();
    drainLocalMail();
  }
}

/// Reads one line from stdin, polling until \p DeadlineMs. Used only
/// before GO, where the launcher speaks promptly or not at all.
bool Daemon::readControlLine(std::string &Line, uint64_t DeadlineMs) {
  while (true) {
    if (Control.pop(Line))
      return true;
    uint64_t Now = nowMs();
    if (Now >= DeadlineMs)
      return false;
    struct pollfd Fd = {STDIN_FILENO, POLLIN, 0};
    int R = poll(&Fd, 1, static_cast<int>(std::min<uint64_t>(
                             DeadlineMs - Now, 100)));
    if (R < 0 && errno != EINTR)
      return false;
    if (R <= 0)
      continue;
    char Buf[4096];
    ssize_t N = read(STDIN_FILENO, Buf, sizeof(Buf));
    if (N > 0)
      Control.feed(Buf, static_cast<size_t>(N));
    else if (N == 0 || (N < 0 && errno != EAGAIN && errno != EINTR))
      return false;
  }
}

void Daemon::pumpControl() {
  char Buf[4096];
  while (true) {
    ssize_t N = read(STDIN_FILENO, Buf, sizeof(Buf));
    if (N > 0) {
      Control.feed(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N == 0)
      ControlEof = true;
    break;
  }
  std::string Line;
  while (Control.pop(Line)) {
    std::vector<std::string> W = splitWords(Line);
    if (W.empty())
      continue;
    if (W[0] == "STOP") {
      StopRequested = true;
    } else if (W[0] == "POLL" && W.size() == 2) {
      handlePoll(W[1]);
    }
  }
}

void Daemon::handlePoll(const std::string &PollId) {
  uint64_t Mask = 0;
  for (uint16_t S = 0; S < NumShards; ++S)
    if (Suspected[S])
      Mask |= 1ull << S;
  char Hex[32];
  snprintf(Hex, sizeof(Hex), "%llx", static_cast<unsigned long long>(Mask));
  writeLine(STDOUT_FILENO, "STATUS " + PollId + " " +
                               (idle() ? "1" : "0") + " " + Hex + " " +
                               std::to_string(Stats.Sent) + " " +
                               std::to_string(Stats.Delivered));
}

bool Daemon::idle() const {
  if (!LocalMail.empty() || !PendingNotify.empty() || !Delayed.empty())
    return false;
  for (uint16_t S = 0; S < NumShards; ++S)
    if (!SendCh[S].Window.empty())
      return false;
  return true;
}

void Daemon::drainSocket() {
  uint8_t Buf[65536];
  while (true) {
    ssize_t N = recvfrom(Udp, Buf, sizeof(Buf), 0, nullptr, nullptr);
    if (N < 0)
      break;
    onDatagram(Buf, static_cast<size_t>(N));
  }
}

void Daemon::onDatagram(const uint8_t *Data, size_t Len) {
  DgramHeader H;
  if (!decodeDgramHeader(Data, Len, H))
    return;
  if (H.FromShard >= NumShards || H.FromShard == MyShard)
    return;
  uint16_t S = H.FromShard;
  LastHeardMs[S] = nowMs();
  if (Suspected[S])
    return; // The channel was abandoned at suspicion (crash-stop).
  switch (H.Type) {
  case DgramType::Heartbeat:
    break;
  case DgramType::Ack:
    SendCh[S].onAck(H.Ack);
    break;
  case DgramType::Data: {
    SendCh[S].onAck(H.Ack);
    Mail M;
    M.From = H.FromNode;
    M.To = H.ToNode;
    M.Lamport = H.Lamport;
    M.Bytes = std::make_shared<const std::vector<uint8_t>>(
        Data + kDgramHeaderSize, Data + Len);
    bool Dropped = false;
    net::RecvVerdict V = RecvCh[S].acceptBounded(
        H.Seq, std::move(M), Released, kReorderWindowMax, Dropped);
    if (V == net::RecvVerdict::Duplicate) {
      if (Dropped)
        ++Stats.ReorderDropped;
      else
        ++Stats.Channel.DupSuppressed;
    } else if (V == net::RecvVerdict::Buffered) {
      ++Stats.Channel.Reordered;
    } else {
      for (Mail &R : Released)
        deliver(R);
      Released.clear();
    }
    // Ack every data arrival (duplicates included: the original ack may
    // have been the casualty).
    sendPureAck(S);
    break;
  }
  }
}

void Daemon::deliver(const Mail &M) {
  Lamport = std::max(Lamport, M.Lamport) + 1;
  if (M.To >= Nodes.size() || !Nodes[M.To])
    return;
  if (!core::decodeMessageSelfContained(*M.Bytes, *Views, Scratch))
    return;
  ++Stats.Delivered;
  Nodes[M.To]->onDeliver(M.From, Scratch);
}

void Daemon::drainLocalMail() {
  while (!LocalMail.empty()) {
    Mail M = std::move(LocalMail.front());
    LocalMail.pop_front();
    deliver(M);
    drainNotifies();
  }
}

void Daemon::sendData(
    NodeId From, NodeId To,
    const std::shared_ptr<const std::vector<uint8_t>> &Frame) {
  uint16_t S = NodeShard[To];
  if (S >= NumShards || Suspected[S])
    return; // Channels to crashed shards are gone; §2.2 holds vacuously.
  DgramHeader H;
  H.Type = DgramType::Data;
  H.FromShard = MyShard;
  H.FromNode = From;
  H.ToNode = To;
  H.Lamport = Lamport;
  H.Seq = SendCh[S].stamp();
  H.Ack = RecvCh[S].CumSeq;
  std::vector<uint8_t> Dgram;
  encodeDgramHeader(H, Dgram);
  Dgram.insert(Dgram.end(), Frame->begin(), Frame->end());
  SendCh[S].track(H.Seq, nowMs(), Dgram);
  shimSend(S, std::move(Dgram));
}

/// Routes one protocol datagram (data or pure ack) through the seeded
/// loss shim. Heartbeats never come here.
void Daemon::shimSend(uint16_t PeerShard, std::vector<uint8_t> Dgram) {
  if (!Shim) {
    rawSend(PeerShard, Dgram);
    return;
  }
  net::LinkModel::Fate F = Shim->transmit(MyShard, PeerShard);
  if (F.Copies == 0) {
    ++Stats.Channel.LinkDropped;
    return;
  }
  if (F.Copies == 2)
    ++Stats.Channel.LinkDuplicated;
  auto Shared =
      std::make_shared<const std::vector<uint8_t>>(std::move(Dgram));
  uint64_t Now = nowMs();
  for (uint32_t C = 0; C < F.Copies; ++C) {
    // One jitter tick = one millisecond of extra delay on the real socket;
    // any skew beyond a few ticks genuinely reorders datagrams.
    SimTime Extra = F.Extra[C];
    if (Extra == 0)
      rawSend(PeerShard, *Shared);
    else
      Delayed.push(DelayedDgram{Now + Extra, PeerShard, Shared});
  }
}

void Daemon::rawSend(uint16_t PeerShard, const std::vector<uint8_t> &Dgram) {
  sendto(Udp, Dgram.data(), Dgram.size(), 0,
         reinterpret_cast<const sockaddr *>(&PeerAddr[PeerShard]),
         sizeof(sockaddr_in));
}

void Daemon::sendPureAck(uint16_t PeerShard) {
  DgramHeader H;
  H.Type = DgramType::Ack;
  H.FromShard = MyShard;
  H.Ack = RecvCh[PeerShard].CumSeq;
  std::vector<uint8_t> Dgram;
  encodeDgramHeader(H, Dgram);
  ++Stats.Channel.AcksSent;
  Stats.Channel.AckBytes += Dgram.size();
  shimSend(PeerShard, std::move(Dgram));
}

void Daemon::sendHeartbeats(uint64_t Now) {
  if (Now < NextHbMs)
    return;
  NextHbMs = Now + T.HeartbeatMs;
  DgramHeader H;
  H.Type = DgramType::Heartbeat;
  H.FromShard = MyShard;
  std::vector<uint8_t> Dgram;
  encodeDgramHeader(H, Dgram);
  for (uint16_t S = 0; S < NumShards; ++S)
    if (S != MyShard && !Suspected[S])
      rawSend(S, Dgram); // Liveness traffic bypasses the loss shim.
}

void Daemon::checkSuspicions(uint64_t Now) {
  for (uint16_t S = 0; S < NumShards; ++S)
    if (S != MyShard && !Suspected[S] &&
        Now - LastHeardMs[S] > T.SuspectMs)
      suspectShard(S);
}

void Daemon::suspectShard(uint16_t S) {
  Suspected[S] = true;
  SendCh[S].purge();
  // Every node of a shard dies with it: the kill plan only ever removes
  // whole processes, so suspicion is per shard and fans out per node.
  for (NodeId Q : ShardNodes[S]) {
    ++Lamport;
    writeEv("EV SUSPECT " + std::to_string(Q) + " " +
            std::to_string(Lamport));
    CrashedKnown.insert(Q);
    for (NodeId W : WatchersOf[Q])
      PendingNotify.emplace_back(W, Q);
  }
}

void Daemon::drainNotifies() {
  while (!PendingNotify.empty()) {
    auto [Watcher, Dead] = PendingNotify.front();
    PendingNotify.pop_front();
    uint64_t Key = (static_cast<uint64_t>(Watcher) << 32) | Dead;
    if (!NotifiedPairs.insert(Key).second)
      continue;
    if (Nodes[Watcher])
      Nodes[Watcher]->onCrash(Dead);
  }
}

void Daemon::retransmitOverdue(uint64_t Now) {
  for (uint16_t S = 0; S < NumShards; ++S) {
    if (S == MyShard || Suspected[S])
      continue;
    for (auto &P : SendCh[S].Window) {
      uint64_t Due = P.LastSent + net::backoffRto(T.RtoMs, P.Attempts,
                                                  T.RtoMaxMs);
      if (Now < Due)
        continue;
      P.LastSent = Now;
      ++P.Attempts;
      ++Stats.Channel.Retransmits;
      shimSend(S, std::vector<uint8_t>(P.Payload));
    }
  }
}

void Daemon::releaseDelayed(uint64_t Now) {
  while (!Delayed.empty() && Delayed.top().ReleaseMs <= Now) {
    DelayedDgram D = Delayed.top();
    Delayed.pop();
    rawSend(D.PeerShard, *D.Bytes);
  }
}

uint64_t Daemon::nextDeadline(uint64_t Now) const {
  uint64_t D = NextHbMs;
  for (uint16_t S = 0; S < NumShards; ++S) {
    if (S == MyShard || Suspected[S])
      continue;
    D = std::min(D, LastHeardMs[S] + T.SuspectMs + 1);
    if (!SendCh[S].Window.empty()) {
      const auto &P = SendCh[S].Window.front();
      D = std::min(D, P.LastSent +
                          net::backoffRto(T.RtoMs, P.Attempts, T.RtoMaxMs));
    }
  }
  if (!Delayed.empty())
    D = std::min(D, Delayed.top().ReleaseMs);
  return std::max(D, Now);
}

void Daemon::writeEv(const std::string &Line) {
  ++Stats.EventLines;
  writeLine(STDOUT_FILENO, Line);
}

void Daemon::emitStatsAndBye() {
  const net::ChannelStats &C = Stats.Channel;
  std::string L = "STATS ev=" + std::to_string(Stats.EventLines) +
                  " sent=" + std::to_string(Stats.Sent) +
                  " delivered=" + std::to_string(Stats.Delivered) +
                  " retx=" + std::to_string(C.Retransmits) +
                  " dup=" + std::to_string(C.DupSuppressed) +
                  " acks=" + std::to_string(C.AcksSent) +
                  " ackbytes=" + std::to_string(C.AckBytes) +
                  " shimdrop=" + std::to_string(C.LinkDropped) +
                  " shimdup=" + std::to_string(C.LinkDuplicated) +
                  " reorderdrop=" + std::to_string(Stats.ReorderDropped);
  writeLine(STDOUT_FILENO, L);
  writeLine(STDOUT_FILENO, "BYE");
}

} // namespace

int proc::runDaemon() {
  Daemon D;
  return D.run();
}
