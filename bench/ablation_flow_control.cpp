// Ablation A3 (paper Sections 5.4.3 and 8): the cost of the conservative
// chained-ack flow control, the projected benefit of a windowed scheme that
// "allows more concurrency in message delivery", and the strawman with no
// flow control at all (which overruns receive buffers and falls back to
// timeout recovery).  An Adaptive row rides along so the table also carries
// the per-site policy decision telemetry.
#include "bench_common.hpp"

int main() {
  using namespace repseq;
  using namespace repseq::bench;
  using apps::harness::Mode;
  using rse::FlowControl;

  apps::bh::BhConfig cfg = bh_config();
  print_header("Ablation: multicast flow-control policies (Barnes-Hut, Optimized)",
               "PPoPP'01 Sections 5.4.3 / 8 (chained acks are the paper's protocol)",
               (std::string("this run: ") + std::to_string(cfg.bodies) + " bodies, " +
                std::to_string(cfg.steps) + " steps, " + std::to_string(bench_nodes()) +
                " nodes (simulated)")
                   .c_str());

  struct Row {
    const char* name;
    Mode mode;
    FlowControl flow;
    std::size_t recv_buffer;
  };
  const Row rows[] = {
      {"Chained (paper)", Mode::Optimized, FlowControl::Chained, 64},
      {"Windowed (future work)", Mode::Optimized, FlowControl::Windowed, 64},
      {"None (strawman)", Mode::Optimized, FlowControl::None, 16},
      {"Adaptive (chained)", Mode::Adaptive, FlowControl::Chained, 64},
  };

  util::Table t({"policy", "seq time (s)", "total (s)", "seq msgs", "null acks", "drops",
                 "recoveries", "decisions", "switches", "site:dec/sw/final"});
  double chained_seq = 0;
  double windowed_seq = 0;
  for (const Row& row : rows) {
    auto opt = options_for(row.mode);
    opt.flow = row.flow;
    opt.net.recv_buffer_msgs = row.recv_buffer;
    const auto r = apps::harness::run_barnes_hut(opt, cfg);
    if (row.mode == Mode::Optimized && row.flow == FlowControl::Chained) chained_seq = r.seq_s;
    if (row.flow == FlowControl::Windowed) windowed_seq = r.seq_s;
    t.add_row({row.name, fmt2(r.seq_s), fmt2(r.total_s), util::fmt_count(r.seq_msgs),
               util::fmt_count(r.seq_null_acks), util::fmt_count(r.drops),
               util::fmt_count(r.recoveries),
               r.mode == Mode::Adaptive ? util::fmt_count(r.sections) : "-",
               r.mode == Mode::Adaptive ? util::fmt_count(r.policy_switches) : "-",
               site_policy_cell(r)});
  }
  std::printf("%s", t.render().c_str());

  std::printf("\nShape checks:\n");
  shape_check("windowed delivery shortens the replicated sections", windowed_seq < chained_seq,
              "%.2fs -> %.2fs", chained_seq, windowed_seq);
  std::printf("  (the paper anticipates exactly this: \"strategies ... will substantially\n"
              "   improve our results\", Section 8)\n");
  std::printf("  site:dec/sw/final is per-site decision telemetry from the decision log\n"
              "  (sections decided / switch points / settled strategy).\n");
  return shape_exit_code();
}
