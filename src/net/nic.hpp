// Per-node network interface: a transmit serializer (one frame at a time at
// link rate) and a finite receive ring.  Receive overflow drops messages and
// counts them -- TreadMarks' stated reason for conservative multicast flow
// control (paper Section 5.4).
#pragma once

#include <cstdint>
#include <functional>

#include "net/link.hpp"
#include "net/message.hpp"
#include "net/net_config.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"

namespace repseq::net {

class Nic {
 public:
  Nic(sim::Engine& eng, const NetConfig& cfg, NodeId node)
      : cfg_(cfg), node_(node), inbox_(eng) {}

  /// The node's uplink to the switch; reserved by the switched transport.
  [[nodiscard]] Link& uplink() { return uplink_; }

  /// Delivery at the receive ring.  Honors capacity; returns false (and
  /// counts a drop) when the ring is full and the message is droppable.
  bool deliver(Message msg);

  /// Restricts ring-overflow drops to messages for which the filter
  /// returns true, mirroring Network::set_loss_filter: the DSM layer
  /// exempts synchronization traffic, whose kernel-level transport retries
  /// are not the behaviour under study, so a full ring admits it anyway
  /// (modeled as retried-until-delivered without simulating the retry).
  /// The diff/multicast paths -- the paper's Section 5.4 overflow hazard --
  /// stay droppable.  No filter (the default) drops everything on overflow.
  using DropFilter = std::function<bool(const Message&)>;
  void set_drop_filter(DropFilter f) { droppable_ = std::move(f); }

  /// Blocking receive used by the node's dispatcher fiber.
  [[nodiscard]] sim::Channel<Message>& inbox() { return inbox_; }

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::size_t backlog() const { return inbox_.size(); }

 private:
  const NetConfig& cfg_;
  NodeId node_;
  sim::Channel<Message> inbox_;
  Link uplink_;
  std::uint64_t drops_ = 0;
  DropFilter droppable_{};
};

}  // namespace repseq::net
