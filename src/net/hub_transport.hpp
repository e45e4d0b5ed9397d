// The paper's testbed wiring: unicast rides the switch, multicast rides a
// shared half-duplex hub (their switch forwarded multicast slowly).  A hub
// frame reaches every group member simultaneously.
//
// The multicast medium is S independent hubs, one of which carries any
// given group send.  The hub is chosen by hashing the frame's multicast
// group (net::shard_of), so traffic for disjoint groups -- e.g. RSE rounds
// for different pages -- never serializes on the same medium.  The paper's
// single hub is S = 1 (TransportKind::HubSwitch); TransportKind::ShardedHub
// takes S from NetConfig::hub_shards.
#pragma once

#include <vector>

#include "net/transport.hpp"

namespace repseq::net {

class HubTransport final : public SwitchedTransport {
 public:
  HubTransport(sim::Engine& eng, const NetConfig& cfg, std::vector<std::unique_ptr<Nic>>& nics,
               std::size_t shards)
      : SwitchedTransport(eng, cfg, nics), hubs_(shards) {}

  void multicast(const Message& msg, std::size_t wire_bytes, const DeliverFn& deliver,
                 const AccountFn& account) override;

  [[nodiscard]] std::size_t shard_count() const override { return hubs_.size(); }
  [[nodiscard]] sim::SimDuration shard_busy(std::size_t s) const override {
    return s < hubs_.size() ? hubs_[s].busy : sim::SimDuration{};
  }

 private:
  std::vector<Link> hubs_;
};

}  // namespace repseq::net
