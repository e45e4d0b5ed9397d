#include "net/hub_transport.hpp"

namespace repseq::net {

void HubTransport::multicast(const Message& msg, std::size_t wire_bytes,
                             const DeliverFn& deliver, const AccountFn& account) {
  // One frame occupies the group's hub; all receivers see it at the same
  // instant once it has fully propagated.  Frames on other hubs are
  // concurrent.
  Link& hub = hubs_[shard_of(msg.mcast_group, hubs_.size())];
  const sim::SimTime done =
      hub.reserve(eng_.now(), cfg_.hub_tx_time(wire_bytes)) + cfg_.hub_latency;
  account(1, wire_bytes);
  for (NodeId n = 0; n < nics_.size(); ++n) {
    if (n == msg.src) continue;  // the sender consumes its own data locally
    deliver(n, done);
  }
}

}  // namespace repseq::net
