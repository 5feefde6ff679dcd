//===- sim/Network.h - Reliable FIFO message transport ----------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's communication model (§2.2): "any two nodes might exchange
/// messages through asynchronous, reliable, and ordered (fifo) channels".
/// Note that communication is *not* restricted to graph edges — the graph
/// models knowledge, not links; border nodes of a region talk to each other
/// directly. The Locality property (CD3) is a property of the protocol, not
/// of the transport, and is checked by trace::Checker.
///
/// Per ordered pair (from, to) the network guarantees FIFO delivery even
/// when the latency model draws a smaller latency for a later message: the
/// delivery time is clamped to be >= the previous delivery on the channel.
/// Messages addressed to a crashed node are silently dropped (counted);
/// messages already in flight from a node that subsequently crashes are
/// still delivered, as in the standard asynchronous crash-stop model.
///
/// By default the §2.2 abstraction is assumed: frames reach recipients
/// perfectly. enableFaultPlane() layers the net:: fault plane beneath
/// delivery instead — a seeded net::LinkModel drops, duplicates and
/// jitters raw transmissions, and the net/Channel.h reliability sublayer
/// (sequence stamping, cumulative acks, timer-driven retransmission,
/// dedup and reorder buffering) re-establishes exactly the reliable-FIFO
/// contract above it. The zero-loss configuration never constructs the
/// plane, so the default path is byte-for-byte the raw one.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_SIM_NETWORK_H
#define CLIFFEDGE_SIM_NETWORK_H

#include "net/Channel.h"
#include "net/Link.h"
#include "sim/Latency.h"
#include "sim/Simulator.h"
#include "support/FlatHash.h"
#include "support/FramePool.h"
#include "support/Ids.h"
#include "support/PagedStore.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace cliffedge {
namespace sim {

/// Per-node send counters: paged, so only nodes that sent (or share a
/// 512-id page with one) cost memory; every other id reads 0.
using SendCounts = support::PagedStore<uint64_t>;

/// Per-run transport statistics, the raw material of the locality benches.
/// MessagesSent/BytesSent count *logical* protocol sends (with their
/// on-wire size), so they stay comparable between zero-loss and lossy
/// runs; everything the fault plane adds on top — retransmissions, pure
/// acks, link drops and duplicates — lands in Channel.
struct NetworkStats {
  uint64_t MessagesSent = 0;
  uint64_t MessagesDelivered = 0;
  uint64_t MessagesDroppedAtCrashed = 0;
  uint64_t BytesSent = 0;
  /// Per-node sent counters, indexed by NodeId (SentByNode[N] reads 0 for
  /// a node that never sent).
  SendCounts SentByNode;
  /// Fault-plane counters; all zero when no fault plane is enabled.
  net::ChannelStats Channel;
};

/// One record per send, consumed by trace::Checker for CD3 (Locality).
struct SendRecord {
  SimTime When;
  NodeId From;
  NodeId To;
  uint32_t Bytes;
};

/// Reliable FIFO any-to-any transport over the event simulator.
class Network {
public:
  /// Frames are refcounted and shared so a multicast encodes its payload
  /// exactly once; receivers must treat the bytes as immutable. Pooled
  /// frames (support::FramePool) make steady-state fan-out allocation-free.
  using Frame = support::FrameRef;
  using DeliverFn =
      std::function<void(NodeId From, NodeId To, const Frame &Bytes)>;

  Network(Simulator &Sim, uint32_t NumNodes, LatencyModel Latency);
  ~Network();

  /// Installs the upcall invoked on each delivery to a live node.
  void setDeliver(DeliverFn Fn) { Deliver = std::move(Fn); }

  /// Activates the layered fault plane for this run: \p Spec's link
  /// conditions beneath delivery, with the reliability sublayer above
  /// them whenever the spec injects faults. Per-channel fault streams
  /// derive from (\p Spec, \p Seed, from, to). Must be called before the
  /// first send; a no-op for inactive (zero-loss) specs. A non-zero
  /// \p Salt re-deals the fault schedules (see net::LinkModel).
  void enableFaultPlane(const net::LinkSpec &Spec, uint64_t Seed,
                        uint64_t Salt = 0);

  /// True when enableFaultPlane installed an active plane.
  bool hasFaultPlane() const { return Plane != nullptr; }

  /// Enables per-send recording (for locality checking).
  void setRecording(bool Enabled) { Recording = Enabled; }

  /// Observer invoked once per logical protocol send — the same events
  /// that setRecording(true) would append to the send log, but streamed
  /// instead of materialized (fault-plane retransmissions and acks are
  /// transport-internal and never observed). Independent of Recording, so
  /// an online checker can run with the log off.
  using SendObserverFn =
      std::function<void(SimTime When, NodeId From, NodeId To,
                         uint32_t Bytes)>;
  void setSendObserver(SendObserverFn Fn) { SendObserver = std::move(Fn); }

  /// Declares the latency model monotone: per channel, successive sends
  /// never produce a smaller delivery time than an earlier one (true for
  /// fixedLatency, since send times are non-decreasing). FIFO clamping then
  /// needs no per-channel state and send() skips the hash entirely. Only
  /// enable when the model guarantees it — with a non-monotone model this
  /// would break the FIFO channel contract.
  void setMonotoneLatency(bool Enabled) { MonotoneLatency = Enabled; }

  /// Sends \p Bytes from \p From to \p To (self-sends allowed — the
  /// protocol's multicast includes the sender). No-op if From has crashed.
  void send(NodeId From, NodeId To, Frame Bytes);

  /// Convenience overload for unicast callers.
  void send(NodeId From, NodeId To, std::vector<uint8_t> Bytes) {
    send(From, To, support::FrameRef::fresh(std::move(Bytes)));
  }

  /// Marks \p Node crashed: it stops sending and all future deliveries to
  /// it are dropped.
  void crash(NodeId Node);

  bool isCrashed(NodeId Node) const { return Crashed[Node]; }

  const NetworkStats &stats() const { return Stats; }
  const std::vector<SendRecord> &sendLog() const { return SendLog; }
  /// Moves the send log out (a finished run handing over its products).
  std::vector<SendRecord> takeSendLog() { return std::move(SendLog); }
  uint32_t numNodes() const { return static_cast<uint32_t>(Crashed.size()); }

private:
  struct FaultPlane;
  friend struct FaultPlane;

  Simulator &Sim;
  LatencyModel Latency;
  DeliverFn Deliver;
  /// Non-null only for lossy/armed runs; the zero-loss hot path costs one
  /// null check.
  std::unique_ptr<FaultPlane> Plane;
  /// Paged: a node's page materializes when a node on it crashes.
  support::PagedStore<bool> Crashed;
  /// Last scheduled delivery time per directed channel, for FIFO clamping.
  /// Flat open-addressing table: one probe per send, no node allocations.
  U64FlatMap<SimTime> LastDelivery;
  NetworkStats Stats;
  std::vector<SendRecord> SendLog;
  SendObserverFn SendObserver;
  bool Recording = false;
  bool MonotoneLatency = false;

  static uint64_t channelKey(NodeId From, NodeId To) {
    return (static_cast<uint64_t>(From) << 32) | To;
  }
};

} // namespace sim
} // namespace cliffedge

#endif // CLIFFEDGE_SIM_NETWORK_H
