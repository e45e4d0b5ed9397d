// sweep: the cluster-size sweeps, one preset per question.
//
//   sweep perf         the simulator as a program: host wall time, events/sec,
//                      peak live events and allocations over a pinned sweep,
//                      written to BENCH_sim.json for the CI regression gate
//                      (scripts/check_perf_regression.py).
//   sweep scalability  base vs replicated speedup as the cluster grows; the
//                      paper's Tables 1 and 3 give the 32-node endpoints.
//   sweep contention   paper Section 3 as tables over the hot-spot workload:
//                      response time vs simultaneous requesters, multicast-
//                      medium occupancy under replication, and the adaptive
//                      policy per site.  Exits 1 when a shape check says NO.
//   sweep explorer [--mode base|replicated|broadcast|adaptive]
//                      the hot spot on the base system next to one other mode
//                      (default replicated), up to 1024 nodes.
//
// Every other axis is a REPSEQ_* environment variable (bench_common.hpp);
// REPSEQ_NODES caps each preset's node ladder.  `perf` reads none of the
// workload axes on purpose: a perf trajectory is only meaningful against
// fixed inputs.
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"

// ---------------------------------------------------------------------------
// Allocation counting for `perf`: global operator new/delete overrides local
// to this binary.  The simulator is single-threaded, so plain counters
// suffice.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  g_alloc_bytes += n;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  g_alloc_bytes += n;
  void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                               (n + static_cast<std::size_t>(al) - 1) &
                                   ~(static_cast<std::size_t>(al) - 1));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace repseq::bench {
namespace {

using apps::harness::Mode;
using apps::harness::RunOptions;
using apps::harness::RunReport;
using apps::hotspot::HotspotConfig;

// ---- perf -------------------------------------------------------------------

RunOptions pinned_options(std::size_t nodes) {
  RunOptions o;
  o.mode = Mode::Optimized;
  o.nodes = nodes;
  o.flow = rse::FlowControl::Chained;
  o.net = net::NetConfig{};  // hub switch, default timing
  o.tmk.heap_bytes = 24u << 20;
  scale_request_timeout(o);
  return o;
}

struct PerfRow {
  const char* app;
  RunReport r;
  std::uint64_t allocs;
  std::uint64_t alloc_bytes;

  [[nodiscard]] double events_per_sec() const {
    return r.host_wall_s > 0 ? static_cast<double>(r.sim_events) / r.host_wall_s : 0;
  }
};

template <typename Run>
PerfRow measure(const char* app, Run run) {
  const std::uint64_t a0 = g_allocs;
  const std::uint64_t b0 = g_alloc_bytes;
  RunReport r = run();
  return {app, std::move(r), g_allocs - a0, g_alloc_bytes - b0};
}

/// Reference for the headline comparison (the JSON's "pre_pr" fields): the
/// same pinned 256-node Barnes-Hut run measured on the original
/// shared_ptr/std::function engine (ucontext fibers, per-event heap
/// allocations, eager page metadata).  The event count is engine-independent -- the
/// virtual-time schedule is identical -- so events/sec follows from the
/// recorded wall time.
constexpr double kPrePrBh256WallS = 60.48;

int perf() {
  print_header("sweep perf: simulator host-performance sweep",
               "engineering telemetry (no paper table)",
               "pinned workloads; REPSEQ_NODES caps the sweep");

  const apps::bh::BhConfig bh{.bodies = 2048, .steps = 2};
  const apps::ilink::IlinkConfig il{.iterations = 4};  // struct defaults otherwise, seed included

  std::vector<PerfRow> rows;
  std::printf("%-11s %6s %10s %12s %14s %10s %12s\n", "app", "nodes", "wall_s", "events",
              "events/sec", "peak_live", "allocs");
  for (std::size_t n : node_ladder({32, 64, 128, 256, 512, 1024}, 1024)) {
    rows.push_back(measure("barnes_hut", [&] { return run_barnes_hut(pinned_options(n), bh); }));
    rows.push_back(measure("ilink", [&] { return run_ilink(pinned_options(n), il); }));
    for (std::size_t i = rows.size() - 2; i < rows.size(); ++i) {
      const PerfRow& row = rows[i];
      std::printf("%-11s %6zu %10.3f %12llu %14.0f %10zu %12llu\n", row.app, row.r.nodes,
                  row.r.host_wall_s, static_cast<unsigned long long>(row.r.sim_events),
                  row.events_per_sec(), row.r.peak_live_events,
                  static_cast<unsigned long long>(row.allocs));
    }
  }

  std::FILE* f = std::fopen("BENCH_sim.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write BENCH_sim.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"sweep perf\",\n");
  std::fprintf(f,
               "  \"pinned\": {\"mode\": \"Optimized\", \"transport\": \"hub\", "
               "\"flow\": \"chained\", \"heap_mb\": 24, \"bh_bodies\": 2048, "
               "\"bh_steps\": 2, \"ilink_iterations\": 4},\n");
  std::fprintf(f, "  \"runs\": [\n");
  const PerfRow* headline = nullptr;  // 256-node Barnes-Hut vs the original engine
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PerfRow& row = rows[i];
    if (std::string_view(row.app) == "barnes_hut" && row.r.nodes == 256) headline = &row;
    std::fprintf(f,
                 "    {\"app\": \"%s\", \"nodes\": %zu, \"wall_s\": %.4f, "
                 "\"sim_events\": %llu, \"events_per_sec\": %.1f, "
                 "\"peak_live_events\": %zu, \"allocations\": %llu, "
                 "\"alloc_bytes\": %llu, \"checksum\": %.6f, \"msgs\": %llu}%s\n",
                 row.app, row.r.nodes, row.r.host_wall_s,
                 static_cast<unsigned long long>(row.r.sim_events), row.events_per_sec(),
                 row.r.peak_live_events, static_cast<unsigned long long>(row.allocs),
                 static_cast<unsigned long long>(row.alloc_bytes), row.r.checksum,
                 static_cast<unsigned long long>(row.r.total_msgs),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  if (headline != nullptr) {
    const double eps = headline->events_per_sec();
    const double pre_eps = static_cast<double>(headline->r.sim_events) / kPrePrBh256WallS;
    std::fprintf(f,
                 "  \"headline\": {\"workload\": \"barnes_hut_n256\", "
                 "\"events_per_sec\": %.1f, \"pre_pr_wall_s\": %.2f, "
                 "\"pre_pr_events_per_sec\": %.1f, \"speedup\": %.2f}\n",
                 eps, kPrePrBh256WallS, pre_eps, eps / pre_eps);
    std::printf("\nheadline: barnes_hut n=256  %.0f events/sec  (original engine %.0f; %.1fx)\n",
                eps, pre_eps, eps / pre_eps);
  } else {
    std::fprintf(f, "  \"headline\": null\n");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_sim.json (%zu runs)\n", rows.size());
  return 0;
}

// ---- scalability --------------------------------------------------------------

int scalability() {
  const apps::bh::BhConfig bh = bh_config(/*default_bodies=*/2048);
  const apps::ilink::IlinkConfig il = ilink_config({.families = 2, .iterations = 2});

  print_header("Sweep: speedup vs cluster size (base vs replicated)",
               "PPoPP'01 Tables 1/3 give the 32-node endpoints",
               "speedup = 1-node sequential time / total time");

  const double bh_base = run_barnes_hut(options_for(Mode::Sequential, 1), bh).total_s;
  const double il_base = run_ilink(options_for(Mode::Sequential, 1), il).total_s;

  util::Table t({"nodes", "BH orig", "BH opt", "Ilink orig", "Ilink opt",
                 "BH opt hub max (ms)"});
  RunReport last;
  for (std::size_t nodes : node_ladder({2, 4, 8, 16, 24, 32}, bench_nodes())) {
    const auto bo = run_barnes_hut(options_for(Mode::Original, nodes), bh);
    last = run_barnes_hut(options_for(Mode::Optimized, nodes), bh);
    const auto io = run_ilink(options_for(Mode::Original, nodes), il);
    const auto ir = run_ilink(options_for(Mode::Optimized, nodes), il);
    t.add_row({std::to_string(nodes), fmt1(bh_base / bo.total_s), fmt1(bh_base / last.total_s),
               fmt1(il_base / io.total_s), fmt1(il_base / ir.total_s),
               fmt2(last.hub_busy_max_s * 1e3)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nExpected shape: the optimized curves pull ahead as node count grows,\n"
              "with the larger relative win on Ilink (paper: +51%% BH, +189%% Ilink at 32).\n");
  std::printf("Multicast medium: %zu shard(s); busiest shard at %zu nodes transmitted for"
              " %.2f ms.\n",
              last.hub_shards, last.nodes, last.hub_busy_max_s * 1e3);
  return 0;
}

// ---- contention -----------------------------------------------------------------

/// The hot-spot runs default to an 8 MB heap: 96 pages need no more, and the
/// tables' 24 MB default nearly doubles the 1024-node explorer's host memory
/// (972 MB against 553 MB peak RSS).
RunReport hotspot_run(Mode mode, std::size_t nodes, const HotspotConfig& cfg) {
  return run_hotspot(options_for(mode, nodes, /*default_heap_mb=*/8), cfg);
}

int contention() {
  print_header("Sweep: hot-spot response time vs simultaneous requesters",
               "PPoPP'01 Section 3 (and reference [11])",
               "synthetic: 96 master-written pages read by all nodes at once");
  const std::vector<std::size_t> ladder = node_ladder({2, 4, 8, 16, 24, 32}, bench_nodes());

  // The master writes the block, then everyone reads a disjoint slice at once.
  const HotspotConfig requesters{.value = [](std::size_t, int) { return 1; }};
  util::Table t({"nodes", "avg response (ms)", "max response (ms)", "parallel phase (s)"});
  double r_lo = 0;
  double r_hi = 0;
  for (std::size_t nodes : ladder) {
    const RunReport r = hotspot_run(Mode::Original, nodes, requesters);
    if (nodes == ladder.front()) r_lo = r.par_response_ms;
    if (nodes == ladder.back()) r_hi = r.par_response_ms;
    t.add_row({std::to_string(nodes), fmt2(r.par_response_ms), fmt2(r.par_response_max_ms),
               fmt2(r.par_s)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nShape checks:\n");
  shape_check("response time grows with requester count", r_hi > 2.0 * r_lo,
              "%.2f -> %.2f ms, %.1fx", r_lo, r_hi, r_hi / (r_lo > 0 ? r_lo : 1));

  // Every node writes a disjoint slice in parallel, then a replicated
  // section reads all of it: the flow-controlled multicast rounds (one group
  // per page) carry the diffs.  On a single hub all rounds serialize on one
  // medium; the sharded hub spreads them, so the busiest shard's transmit
  // time drops while the checksum is invariant.
  const HotspotConfig occupancy{.writer = apps::hotspot::Writer::Parallel, .read_site = 0};
  std::printf("\nMulticast-medium occupancy under replicated sequential execution\n"
              "(96 pages, one RSE round per page; transport %s)\n",
              net::transport_name(bench_transport()));
  util::Table occ_t({"nodes", "shards", "max-per-hub busy (ms)", "total busy (ms)",
                     "max-per-hub frames", "total frames", "checksum"});
  RunReport last;
  for (std::size_t nodes : ladder) {
    last = hotspot_run(Mode::Optimized, nodes, occupancy);
    occ_t.add_row({std::to_string(nodes), std::to_string(last.hub_shards),
                   fmt2(last.hub_busy_max_s * 1e3), fmt2(last.hub_busy_total_s * 1e3),
                   std::to_string(last.hub_frames_max), std::to_string(last.hub_frames_total),
                   util::fmt_fixed(last.checksum, 0)});
  }
  std::printf("%s", occ_t.render().c_str());
  std::printf("\nAt %zu nodes the busiest of %zu hub shard(s) transmitted for %.2f ms"
              " (checksum %.0f).\nRun with REPSEQ_TRANSPORT=sharded REPSEQ_HUB_SHARDS=4 vs"
              " REPSEQ_TRANSPORT=hub to see the\nmax-per-hub busy drop at an identical"
              " checksum.\n",
              last.nodes, last.hub_shards, last.hub_busy_max_s * 1e3, last.checksum);

  // A few rounds, so the policy converges past its bootstrap: the producer
  // section (site 1) writes the block, everyone reads it, and the consumer
  // section (site 2) sums it.  REPSEQ_PIN_SITE pins either site for A/B runs.
  const HotspotConfig adaptive{.rounds = 4, .write_site = 1, .read_site = 2};
  std::printf("\nAdaptive policy on the hot-spot workload (4 rounds, policy %s)\n",
              rse::policy::policy_name(bench_policy()));
  util::Table ad_t({"nodes", "total (s)", "sections", "master-only", "replicated",
                    "broadcast", "switches", "site:dec/sw/final", "checksum"});
  for (std::size_t nodes : ladder) {
    const RunReport r = hotspot_run(Mode::Adaptive, nodes, adaptive);
    ad_t.add_row({std::to_string(nodes), fmt2(r.total_s), std::to_string(r.sections),
                  std::to_string(r.sections_by_strategy[0]),
                  std::to_string(r.sections_by_strategy[1]),
                  std::to_string(r.sections_by_strategy[2]), std::to_string(r.policy_switches),
                  site_policy_cell(r), util::fmt_fixed(r.checksum, 0)});
  }
  std::printf("%s", ad_t.render().c_str());
  std::printf("\nEach site's first section is the broadcast bootstrap probe; afterwards the\n"
              "cost model keeps the write-heavy producer section off the master and the\n"
              "read-only consumer section on it (checksum invariant per node count).\n"
              "site:dec/sw/final reads per-site decision telemetry off the decision log:\n"
              "sections decided, switch points, and the settled strategy.\n");
  return shape_exit_code();
}

// ---- explorer -------------------------------------------------------------------

/// `mode_label` names the compared mode in the right-hand column header.
int explorer(Mode mode, std::string_view mode_label) {
  const std::string right_label = std::string(mode_label) + " avg/max (ms)";
  const net::NetConfig ncfg = bench_net_config();
  std::printf("Hot-spot response time vs cluster size (64 master-written pages)\n");
  if (ncfg.transport == net::TransportKind::ShardedHub) {
    std::printf("transport: %s (%zu shards)", net::transport_name(ncfg.transport),
                ncfg.hub_shards);
  } else {
    std::printf("transport: %s", net::transport_name(ncfg.transport));
  }
  if (ncfg.batch_window.ns > 0) {
    std::printf("   batch window: %.0f us", ncfg.batch_window.micros());
  }
  if (mode == Mode::Adaptive) {
    std::printf("   policy: %s", rse::policy::policy_name(bench_policy()));
  }
  std::printf("\n\n%6s | %-28s | %-28s | %s\n", "nodes", "base avg/max response (ms)",
              right_label.c_str(), "hub busy max (ms)");
  std::printf("-------+------------------------------+------------------------------+"
              "----------------\n");

  // Two rounds, so an adaptive policy gets past its bootstrap probe and the
  // steady-state decision shows in the second section.
  const HotspotConfig cfg{.pages = 64, .rounds = 2, .write_site = 1,
                          .value = [](std::size_t i, int) { return static_cast<int>(i); }};
  for (std::size_t nodes : node_ladder({2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, 1024)) {
    const RunReport base = hotspot_run(Mode::Original, nodes, cfg);
    const RunReport opt = hotspot_run(mode, nodes, cfg);
    const int bar = std::min(24, static_cast<int>(base.par_response_ms * 4.0));
    std::printf("%6zu | %6.2f / %-7.2f %-12s | %6.2f / %-12.2f | %12.4f", nodes,
                base.par_response_ms, base.par_response_max_ms,
                std::string(static_cast<std::size_t>(bar), '#').c_str(), opt.par_response_ms,
                opt.par_response_max_ms, opt.hub_busy_max_s * 1e3);
    if (mode == Mode::Adaptive) {
      std::printf("   [m/r/b %llu/%llu/%llu]",
                  static_cast<unsigned long long>(opt.sections_by_strategy[0]),
                  static_cast<unsigned long long>(opt.sections_by_strategy[1]),
                  static_cast<unsigned long long>(opt.sections_by_strategy[2]));
    }
    std::printf("\n");
  }
  std::printf("\nBase-system response time grows with the requester count (FIFO service\n"
              "at the master, paper Section 3); replication removes those faults.\n");
  if (mode == Mode::Adaptive) {
    std::printf("Adaptive rows list sections per strategy (master-only/replicated/"
                "broadcast):\nthe first section of each site is the broadcast probe, the "
                "rest follow the\ncost model.\n");
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s perf|scalability|contention\n"
               "       %s explorer [--mode base|replicated|broadcast|adaptive]\n"
               "axes: REPSEQ_NODES, REPSEQ_TRANSPORT, REPSEQ_HUB_SHARDS, REPSEQ_POLICY,\n"
               "      REPSEQ_BATCH_WINDOW, REPSEQ_TRACE, REPSEQ_CHECK, ... (bench_common.hpp)\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace repseq::bench

int main(int argc, char** argv) {
  using namespace repseq::bench;
  const std::string_view preset = argc > 1 ? argv[1] : "";
  if (argc == 2 && preset == "perf") return perf();
  if (argc == 2 && preset == "scalability") return scalability();
  if (argc == 2 && preset == "contention") return contention();
  if (preset == "explorer" && argc == 2) return explorer(Mode::Optimized, "replicated");
  if (preset == "explorer" && argc == 4 && std::string_view(argv[2]) == "--mode") {
    const auto mode = repseq::apps::harness::parse_mode(argv[3]);
    if (mode && *mode != Mode::Sequential) return explorer(*mode, argv[3]);
  }
  return usage(argv[0]);
}
