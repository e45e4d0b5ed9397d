// The first-frame-immediate coalescing window shared by the batching
// decorator (per destination) and the forwarding tree's piggybacking (per
// edge), plus the carrier/rider charge split for a combined frame.
//
// A frame for an idle key leaves IMMEDIATELY and opens a
// NetConfig::batch_window behind itself; frames for the same key arriving
// while the window is open queue, and leave at the window close as ONE
// combined wire frame whose payload is the concatenation of its
// constituents (which re-opens the window while traffic keeps coming).
// First-frame-immediate matters on chained rounds: a delay-everything
// window would space each chain step a full window apart -- clocked by the
// batched network itself -- so consecutive acks would never share a frame;
// transmitting the idle-path frame at once keeps the chain pipelined and
// coalesces exactly the pile-ups.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"

namespace repseq::net {

/// `Sink::transmit(key, std::span<const Item>)` puts one (possibly
/// combined) frame on the wire for `key`; the window calls it for the idle
/// path's lone frame and at every non-empty flush.
template <typename Item, typename Sink>
class CoalescingWindow {
 public:
  CoalescingWindow(sim::Engine& eng, sim::SimDuration window, Sink& sink)
      : eng_(eng), window_(window), sink_(sink) {}

  /// True while `key` has a window open (its next frame would queue).
  [[nodiscard]] bool open(std::uint64_t key) const {
    const auto it = queues_.find(key);
    return it != queues_.end() && it->second.window_open;
  }

  /// Transmits `item` at once if `key` has no window open (and opens one);
  /// queues it behind the open window otherwise.
  void offer(std::uint64_t key, Item item) {
    Queue& q = queues_[key];
    if (q.window_open) {
      q.items.push_back(std::move(item));
      return;
    }
    q.window_open = true;
    arm(key);
    sink_.transmit(key, std::span<const Item>(&item, 1));
  }

 private:
  struct Queue {
    std::vector<Item> items;
    bool window_open = false;
  };

  void arm(std::uint64_t key) {
    eng_.schedule_in(window_, [this, key] { flush(key); });
  }

  /// Window-close event: transmits everything queued as one combined frame
  /// (re-arming the window, since traffic is still flowing), or just closes
  /// an idle window so the next frame again leaves immediately.
  void flush(std::uint64_t key) {
    Queue& q = queues_[key];
    if (q.items.empty()) {
      q.window_open = false;
      return;
    }
    const std::vector<Item> batch = std::move(q.items);
    q.items.clear();
    arm(key);
    sink_.transmit(key, std::span<const Item>(batch));
  }

  sim::Engine& eng_;
  sim::SimDuration window_;
  Sink& sink_;
  std::unordered_map<std::uint64_t, Queue> queues_;
};

/// Payload bytes of a combined frame: its constituents' payloads
/// concatenated under one set of headers.  `Item::payload()` is a
/// constituent's payload size.
template <typename Item>
[[nodiscard]] std::size_t combined_payload(std::span<const Item> batch) {
  std::size_t total = 0;
  for (const Item& it : batch) total += it.payload();
  return total;
}

/// Carrier/rider split of a combined frame's committed wire cost (see
/// transport.hpp): each rider is charged (0 frames, its payload bytes), the
/// carrier (the first constituent) the frames plus everything else -- its
/// own payload, the shared headers and any fan-out the backend reports.
/// Summed over constituents the charges equal wire truth exactly.
/// `Item::charge(frames, bytes)` routes a charge to the constituent's send.
template <typename Item>
void charge_carrier_riders(std::span<const Item> batch, std::size_t frames, std::size_t bytes) {
  std::size_t rider_bytes = 0;
  for (const Item& rider : batch.subspan(1)) {
    rider_bytes += rider.payload();
    rider.charge(0, rider.payload());
  }
  REPSEQ_CHECK(bytes >= rider_bytes, "combined frame smaller than its riders' payloads");
  batch.front().charge(frames, bytes - rider_bytes);
}

}  // namespace repseq::net
