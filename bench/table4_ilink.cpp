// Regenerates paper Table 4: Ilink execution statistics on 32 nodes.
//
// Shape to check (paper values in the right columns):
//   * parallel diff messages fall ~87%, diff data ~97%;
//   * parallel response time falls ~4.7x;
//   * sequential message count *drops slightly* (one multicast replaces
//     several unicasts), unlike Barnes-Hut;
//   * sequential response time roughly doubles.
#include "bench_common.hpp"

int main() {
  using namespace repseq;
  using namespace repseq::bench;
  using apps::harness::Mode;
  using util::fmt_count;

  const auto cfg = ilink_config();
  print_header("Table 4: Ilink execution statistics",
               "PPoPP'01 Table 4 (CLP input, 180 iterations, 32 nodes)",
               (std::string("this run: ") + std::to_string(cfg.families) + " families, " +
                std::to_string(cfg.genotypes) + " genotypes, " +
                std::to_string(cfg.iterations) + " iterations, " +
                std::to_string(bench_nodes()) + " nodes (simulated)")
                   .c_str());

  const auto orig = apps::harness::run_ilink(options_for(Mode::Original), cfg);
  const auto opt = apps::harness::run_ilink(options_for(Mode::Optimized), cfg);

  util::Table t({"", "Original", "Optimized", "paper Orig", "paper Opt"});
  t.add_row({"Total messages", fmt_count(orig.total_msgs), fmt_count(opt.total_msgs),
             "1,002,787", "230,392"});
  t.add_row({"      data (KB)", fmt_count(orig.total_kb), fmt_count(opt.total_kb), "565,711",
             "49,535"});
  t.add_rule();
  t.add_row({"Seq  messages", fmt_count(orig.seq_msgs), fmt_count(opt.seq_msgs), "104,530",
             "94,589"});
  t.add_row({"     data (KB)", fmt_count(orig.seq_kb), fmt_count(opt.seq_kb), "2,803", "2,885"});
  t.add_row({"     diff requests", fmt_count(orig.seq_requests), fmt_count(opt.seq_requests),
             "2,836", "2,837"});
  t.add_row({"     avg response (ms)", fmt2(orig.seq_response_ms), fmt2(opt.seq_response_ms),
             "0.94", "1.71"});
  t.add_row({"     null acks", fmt_count(orig.seq_null_acks), fmt_count(opt.seq_null_acks), "0",
             "33,016"});
  t.add_rule();
  t.add_row({"Par  messages", fmt_count(orig.par_msgs), fmt_count(opt.par_msgs), "873,052",
             "111,600"});
  t.add_row({"     data (KB)", fmt_count(orig.par_kb), fmt_count(opt.par_kb), "518,266",
             "13,895"});
  t.add_row({"     avg diff requests", fmt1(orig.par_requests_avg), fmt1(opt.par_requests_avg),
             "12,318", "540"});
  t.add_row({"     avg response (ms)", fmt2(orig.par_response_ms), fmt2(opt.par_response_ms),
             "3.01", "0.64"});
  std::printf("%s", t.render().c_str());

  std::printf("\nShape checks:\n");
  const double kb_cut = orig.par_kb > 0 && opt.par_kb > 0
                            ? 100.0 * (1.0 - static_cast<double>(opt.par_kb) /
                                                 static_cast<double>(orig.par_kb))
                            : 0.0;
  shape_check("parallel diff data cut", opt.par_kb < orig.par_kb, "%.0f%%; paper 97%%", kb_cut);
  shape_check("parallel response drops", opt.par_response_ms < orig.par_response_ms,
              "%.2fms -> %.2fms; paper 3.01 -> 0.64", orig.par_response_ms, opt.par_response_ms);
  shape_check("sequential response rises", opt.seq_response_ms > orig.seq_response_ms,
              "%.2fms -> %.2fms; paper 0.94 -> 1.71", orig.seq_response_ms, opt.seq_response_ms);
  std::printf("  slowest thread's parallel diff wait: %.2fs -> %.2fs (paper 39.8 -> 0.4)\n",
              orig.par_fault_wait_max_s, opt.par_fault_wait_max_s);
  return shape_exit_code();
}
