// Synthetic hot-spot workload: the paper's Section 3 contention mechanism
// in isolation.
//
// One phase writes a page-aligned block of ints, then the other phase reads
// it back.  When a sequential section writes and the parallel region reads
// disjoint slices, every node's diff requests converge on the master at
// once, and "the service time for a request that arrives at a node with
// pending requests is increased by the time required to process all
// pending requests".  When the parallel region writes and a replicated
// sequential section reads the whole block, every node faults on everyone
// else's pages and the multicast rounds load the hub instead.
#pragma once

#include <cstdint>
#include <optional>

#include "ompnow/team.hpp"
#include "tmk/access.hpp"
#include "tmk/runtime.hpp"

namespace repseq::apps::hotspot {

/// Which phase of a round stores the block.
enum class Writer {
  Sequential,  // the master's section writes, the parallel region reads
  Parallel,    // each thread writes its block slice
};

/// The default value pattern: i mod 97, shifted by the round so each round
/// rewrites the block.
inline int mod97_plus_round(std::size_t i, int round) { return static_cast<int>(i % 97) + round; }

struct HotspotConfig {
  int pages = 96;  // hot pages, ints of page_bytes each
  int rounds = 1;
  Writer writer = Writer::Sequential;
  std::uint32_t write_site = 0;  // site of the writing section (Writer::Sequential)
  /// Site of a sequential section that sums the whole block at the end of
  /// each round; none when unset.
  std::optional<std::uint32_t> read_site = std::nullopt;
  /// The value stored at element i in round r.  Which words change between
  /// rounds sets the diff sizes, so every pattern is part of the workload.
  int (*value)(std::size_t i, int round) = mod97_plus_round;
};

struct HotspotResult {
  double checksum = 0;  // the last read section's sum (0 without one)
  sim::SimDuration seq_time{};
  sim::SimDuration par_time{};
};

struct HotspotWorld {
  tmk::ShArray<int> data;
};

HotspotWorld setup_world(tmk::Cluster& cluster, const HotspotConfig& cfg);

/// Runs `cfg.rounds` rounds on the master fiber.
HotspotResult run_program(ompnow::Team& team, const HotspotWorld& w, const HotspotConfig& cfg);

}  // namespace repseq::apps::hotspot
