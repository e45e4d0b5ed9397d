// A resource that carries one frame at a time: a node's uplink, a switch
// output port, or a hub medium.  A frame starts once both it is ready and
// the previous frame has left, and holds the resource for its transmit
// time.  Every link-rate and hub-rate serialization in the wire model is
// this one primitive.
//
// The switch's output ports are the second half of the paper's contention
// story (Section 3): when N-1 nodes request diffs from the master at once,
// the requests arrive in parallel on distinct switch input ports, while
// the *responses* serialize on the master's uplink.  The multicast hub is
// a half-duplex shared medium: exactly one frame occupies it at a time,
// and every group member receives that frame (the paper routes multicast
// through a 100 Mbps hub because their switch forwarded multicast slowly).
#pragma once

#include <algorithm>

#include "sim/clock.hpp"

namespace repseq::net {

struct Link {
  sim::SimTime free{};
  sim::SimDuration busy{};

  /// Reserves the link for `tx` starting no earlier than `ready`; returns
  /// the instant the frame's last byte leaves.
  sim::SimTime reserve(sim::SimTime ready, sim::SimDuration tx) {
    free = std::max(ready, free) + tx;
    busy += tx;
    return free;
  }
};

}  // namespace repseq::net
