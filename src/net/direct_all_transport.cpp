#include "net/direct_all_transport.hpp"

namespace repseq::net {

void DirectAllTransport::multicast(const Message& msg, std::size_t wire_bytes,
                                   const DeliverFn& deliver, const AccountFn& account) {
  // Frames leave in ascending destination order; each reserves the source
  // uplink anew, so the last receiver waits ~(N-1) serializations.  Every
  // frame is transmitted even if lost at its receiver.
  for (NodeId dst = 0; dst < nics_.size(); ++dst) {
    if (dst == msg.src) continue;
    account(1, wire_bytes);
    deliver(dst, forward_hop(msg.src, dst, wire_bytes));
  }
}

}  // namespace repseq::net
