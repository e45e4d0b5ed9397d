#include "apps/hotspot/hotspot.hpp"

#include <cstdlib>

namespace repseq::apps::hotspot {

HotspotWorld setup_world(tmk::Cluster& cluster, const HotspotConfig& cfg) {
  const std::size_t ints_per_page = cluster.config().page_bytes / sizeof(int);
  return {tmk::ShArray<int>::alloc(cluster, static_cast<std::size_t>(cfg.pages) * ints_per_page,
                                   /*page_aligned=*/true)};
}

HotspotResult run_program(ompnow::Team& team, const HotspotWorld& w, const HotspotConfig& cfg) {
  using ompnow::Ctx;
  const std::size_t elems = w.data.size();
  HotspotResult res;
  for (int round = 0; round < cfg.rounds; ++round) {
    if (cfg.writer == Writer::Sequential) {
      team.sequential(cfg.write_site, [&](const Ctx&) {
        for (std::size_t i = 0; i < elems; ++i) w.data.store(i, cfg.value(i, round));
      });
    }
    team.parallel([&](const Ctx& ctx) {
      const auto r = ompnow::block_range(0, static_cast<long>(elems), ctx.tid, ctx.nthreads);
      if (cfg.writer == Writer::Parallel) {
        for (long i = r.lo; i < r.hi; ++i) {
          const auto at = static_cast<std::size_t>(i);
          w.data.store(at, cfg.value(at, round));
        }
        return;
      }
      long sum = 0;
      for (long i = r.lo; i < r.hi; ++i) sum += w.data.load(static_cast<std::size_t>(i));
      if (sum < 0) std::abort();  // keeps the loads alive
    });
    if (cfg.read_site) {
      team.sequential(*cfg.read_site, [&](const Ctx&) {
        long sum = 0;
        for (std::size_t i = 0; i < elems; ++i) sum += w.data.load(i);
        res.checksum = static_cast<double>(sum);
      });
    }
  }
  res.seq_time = team.sequential_time();
  res.par_time = team.parallel_time();
  return res;
}

}  // namespace repseq::apps::hotspot
