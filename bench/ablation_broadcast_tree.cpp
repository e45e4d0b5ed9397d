// Ablation A1 (paper Section 6.1.2): isolate the two sources of the
// Barnes-Hut improvement by hand-inserting a broadcast of the data the
// master modified in the sequential tree build, *without* replicating the
// section.  The paper measured the parallel force phase at 50.4s (base),
// 36.9s (broadcast tree: contention eliminated, particles still fetched
// point to point) and 21.1s (full replication: particles broadcast too).
//
// Expected shape here: Original > BroadcastSeq > Optimized for the
// parallel-section time, with roughly half the gap closed by the broadcast
// alone.
#include "bench_common.hpp"

int main() {
  using namespace repseq;
  using namespace repseq::bench;
  using apps::harness::Mode;

  apps::bh::BhConfig cfg = bh_config();
  print_header("Ablation: hand-inserted tree broadcast (Barnes-Hut)",
               "PPoPP'01 Section 6.1.2 (force phase: 50.4s / 36.9s / 21.1s)",
               (std::string("this run: ") + std::to_string(cfg.bodies) + " bodies, " +
                std::to_string(cfg.steps) + " steps, " + std::to_string(bench_nodes()) +
                " nodes (simulated)")
                   .c_str());

  const auto orig = apps::harness::run_barnes_hut(options_for(Mode::Original), cfg);
  // The hand-inserted broadcast rides the software multicast tree: select
  // the TreeMulticast transport for the broadcast run (REPSEQ_TRANSPORT
  // still overrides, so the sweep can be repeated on any backend).
  apps::harness::RunOptions bcast_opt = options_for(Mode::BroadcastSeq);
  bcast_opt.net.transport = bench_transport(net::TransportKind::TreeMulticast);
  const auto bcast = apps::harness::run_barnes_hut(bcast_opt, cfg);
  const auto opt = apps::harness::run_barnes_hut(options_for(Mode::Optimized), cfg);
  std::printf("transports: %s / %s / %s\n", orig.transport.c_str(), bcast.transport.c_str(),
              opt.transport.c_str());

  if (orig.checksum != bcast.checksum || orig.checksum != opt.checksum) {
    std::printf("ERROR: checksums diverge across modes\n");
    return 1;
  }

  util::Table t({"", "Original", "BroadcastTree", "Optimized (RSE)", "paper par time"});
  t.add_row({"Parallel time (sec.)", fmt2(orig.par_s), fmt2(bcast.par_s), fmt2(opt.par_s),
             "50.4 / 36.9 / 21.1"});
  t.add_row({"Sequential time (sec.)", fmt2(orig.seq_s), fmt2(bcast.seq_s), fmt2(opt.seq_s),
             ""});
  t.add_row({"Total time (sec.)", fmt2(orig.total_s), fmt2(bcast.total_s), fmt2(opt.total_s),
             ""});
  t.add_row({"Par data (KB)", util::fmt_count(orig.par_kb), util::fmt_count(bcast.par_kb),
             util::fmt_count(opt.par_kb), "739,139 / 538,832 / 221,292"});
  t.add_row({"Par avg response (ms)", fmt2(orig.par_response_ms), fmt2(bcast.par_response_ms),
             fmt2(opt.par_response_ms), ""});
  std::printf("%s", t.render().c_str());

  std::printf("\nShape checks:\n");
  shape_check("broadcast alone removes contention", bcast.par_s < orig.par_s,
              "par %.2fs vs %.2fs", bcast.par_s, orig.par_s);
  shape_check("replication beats broadcast-only", opt.par_s < bcast.par_s, "par %.2fs vs %.2fs",
              opt.par_s, bcast.par_s);
  const double gap = orig.par_s - opt.par_s;
  if (gap > 0) {
    std::printf("  fraction of the gain from contention elimination alone: %.0f%% "
                "(paper: ~half)\n",
                100.0 * (orig.par_s - bcast.par_s) / gap);
  }
  return shape_exit_code();
}
