// Regenerates paper Table 2: Barnes-Hut execution statistics on 32 nodes.
//
// Rows match the paper: total messages and data, then per-phase (sequential
// vs parallel sections) diff traffic, request counts and average response
// times.  Expected shape:
//   * parallel-section messages/data shrink sharply under replication;
//   * parallel response time drops ~3x (contention gone);
//   * sequential-section messages *rise* (forwarded requests + null acks);
//   * sequential response time rises (flow-controlled multicast).
#include "bench_common.hpp"

int main() {
  using namespace repseq;
  using namespace repseq::bench;
  using apps::harness::Mode;
  using util::fmt_count;

  const auto cfg = bh_config();
  print_header("Table 2: Barnes-Hut execution statistics",
               "PPoPP'01 Table 2 (131072 bodies, 2 steps, 32 nodes)",
               (std::string("this run: ") + std::to_string(cfg.bodies) + " bodies, " +
                std::to_string(cfg.steps) + " steps, " + std::to_string(bench_nodes()) +
                " nodes (simulated)")
                   .c_str());

  const auto orig = apps::harness::run_barnes_hut(options_for(Mode::Original), cfg);
  const auto opt = apps::harness::run_barnes_hut(options_for(Mode::Optimized), cfg);

  util::Table t({"", "Original", "Optimized", "paper Orig", "paper Opt"});
  t.add_row({"Total messages", fmt_count(orig.total_msgs), fmt_count(opt.total_msgs),
             "5,106,237", "3,254,275"});
  t.add_row({"      data (KB)", fmt_count(orig.total_kb), fmt_count(opt.total_kb), "795,165",
             "275,351"});
  t.add_rule();
  t.add_row({"Seq  messages", fmt_count(orig.seq_msgs), fmt_count(opt.seq_msgs), "96,848",
             "205,892"});
  t.add_row({"     data (KB)", fmt_count(orig.seq_kb), fmt_count(opt.seq_kb), "10,446",
             "22,443"});
  t.add_row({"     diff requests", fmt_count(orig.seq_requests), fmt_count(opt.seq_requests),
             "3,072", "6,146"});
  t.add_row({"     avg response (ms)", fmt2(orig.seq_response_ms), fmt2(opt.seq_response_ms),
             "0.67", "2.12"});
  t.add_row({"     null acks", fmt_count(orig.seq_null_acks), fmt_count(opt.seq_null_acks),
             "0", "143,738"});
  t.add_rule();
  t.add_row({"Par  messages", fmt_count(orig.par_msgs), fmt_count(opt.par_msgs), "5,006,252",
             "3,045,226"});
  t.add_row({"     data (KB)", fmt_count(orig.par_kb), fmt_count(opt.par_kb), "739,139",
             "221,292"});
  t.add_row({"     avg diff requests", fmt1(orig.par_requests_avg), fmt1(opt.par_requests_avg),
             "8,479", "3,116"});
  t.add_row({"     avg response (ms)", fmt2(orig.par_response_ms), fmt2(opt.par_response_ms),
             "3.34", "0.98"});
  std::printf("%s", t.render().c_str());

  std::printf("\nShape checks:\n");
  const double kb_ratio =
      static_cast<double>(orig.par_kb) / static_cast<double>(opt.par_kb == 0 ? 1 : opt.par_kb);
  shape_check("parallel data shrinks", opt.par_kb < orig.par_kb, "%.0fx reduction; paper 3.3x",
              kb_ratio);
  shape_check("parallel response drops", opt.par_response_ms < orig.par_response_ms,
              "%.2fms -> %.2fms; paper 3.34 -> 0.98", orig.par_response_ms, opt.par_response_ms);
  shape_check("sequential messages rise", opt.seq_msgs > orig.seq_msgs,
              "%llu -> %llu; paper 96,848 -> 205,892",
              static_cast<unsigned long long>(orig.seq_msgs),
              static_cast<unsigned long long>(opt.seq_msgs));
  shape_check("sequential response rises", opt.seq_response_ms > orig.seq_response_ms,
              "%.2fms -> %.2fms; paper 0.67 -> 2.12", orig.seq_response_ms, opt.seq_response_ms);
  std::printf("  slowest thread's parallel diff wait: %.2fs -> %.2fs (paper 34.6 -> 5)\n",
              orig.par_fault_wait_max_s, opt.par_fault_wait_max_s);
  return shape_exit_code();
}
