#include "apps/harness/run_modes.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>

#include "ompnow/team.hpp"
#include "rse/policy/policy_engine.hpp"
#include "tmk/runtime.hpp"
#include "util/check.hpp"

namespace repseq::apps::harness {

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Sequential:
      return "Sequential";
    case Mode::Original:
      return "Original";
    case Mode::Optimized:
      return "Optimized";
    case Mode::BroadcastSeq:
      return "BroadcastSeq";
    case Mode::Adaptive:
      return "Adaptive";
  }
  return "?";
}

const char* flow_name(rse::FlowControl f) {
  switch (f) {
    case rse::FlowControl::Chained:
      return "Chained";
    case rse::FlowControl::Windowed:
      return "Windowed";
    case rse::FlowControl::None:
      return "None";
  }
  return "?";
}

std::optional<Mode> parse_mode(std::string_view s) {
  if (s == "sequential" || s == "seq") return Mode::Sequential;
  if (s == "original" || s == "base") return Mode::Original;
  if (s == "optimized" || s == "replicated" || s == "rse") return Mode::Optimized;
  if (s == "broadcast" || s == "broadcast-seq") return Mode::BroadcastSeq;
  if (s == "adaptive") return Mode::Adaptive;
  return std::nullopt;
}

std::optional<rse::FlowControl> parse_flow(std::string_view s) {
  if (s == "chained") return rse::FlowControl::Chained;
  if (s == "windowed") return rse::FlowControl::Windowed;
  if (s == "none") return rse::FlowControl::None;
  return std::nullopt;
}

namespace {

ompnow::SeqMode seq_mode_for(Mode m) {
  switch (m) {
    case Mode::Optimized:
      return ompnow::SeqMode::Replicated;
    case Mode::BroadcastSeq:
      return ompnow::SeqMode::BroadcastAfter;
    case Mode::Adaptive:
      return ompnow::SeqMode::Adaptive;
    default:
      return ompnow::SeqMode::MasterOnly;
  }
}

struct Bench {
  std::unique_ptr<tmk::Cluster> cluster;
  std::unique_ptr<rse::RseController> rse;
  std::unique_ptr<rse::policy::PolicyEngine> policy;
  std::unique_ptr<ompnow::Team> team;
  std::size_t nodes;
  double host_wall_s = 0;

  explicit Bench(const RunOptions& opt)
      : nodes(opt.mode == Mode::Sequential ? 1 : opt.nodes) {
    cluster = std::make_unique<tmk::Cluster>(opt.tmk, opt.net, nodes);
    rse = std::make_unique<rse::RseController>(*cluster, opt.flow);
    if (opt.mode == Mode::Adaptive) {
      policy = std::make_unique<rse::policy::PolicyEngine>(*cluster, opt.policy);
    }
    team = std::make_unique<ompnow::Team>(*cluster, seq_mode_for(opt.mode), rse.get(),
                                          policy.get());
  }

  RunReport report(const RunOptions& opt, double total_s, double seq_s, double par_s,
                   double checksum, std::uint64_t aux) const {
    RunReport r;
    r.mode = opt.mode;
    r.nodes = nodes;
    r.transport = net::transport_name(opt.net.transport);
    r.policy = opt.mode == Mode::Adaptive ? rse::policy::policy_name(opt.policy.kind) : "-";
    r.total_s = total_s;
    r.seq_s = seq_s;
    r.par_s = par_s;
    r.checksum = checksum;
    r.aux = aux;
    r.sim_events = cluster->engine().events_executed();
    r.peak_live_events = cluster->engine().peak_live_events();
    r.host_wall_s = host_wall_s;

    const tmk::PhaseCounters seq = cluster->total(tmk::Phase::Sequential);
    const tmk::PhaseCounters par = cluster->total(tmk::Phase::Parallel);
    r.total_msgs = seq.msgs_sent + par.msgs_sent;
    r.total_kb = (seq.bytes_sent + par.bytes_sent) / 1024;
    r.seq_msgs = seq.msgs_sent;
    r.seq_kb = seq.bytes_sent / 1024;
    r.par_msgs = par.msgs_sent;
    r.par_kb = par.bytes_sent / 1024;
    r.seq_null_acks = seq.null_acks_sent;
    r.seq_fwd_requests = seq.fwd_requests;
    r.recoveries = seq.recoveries + par.recoveries;
    r.drops = cluster->network().total_drops();

    const std::vector<tmk::HubOccupancy> occ = cluster->hub_occupancy();
    r.hub_shards = occ.size();
    for (const tmk::HubOccupancy& o : occ) {
      r.hub_busy_max_s = std::max(r.hub_busy_max_s, o.busy.seconds());
      r.hub_busy_total_s += o.busy.seconds();
      r.hub_frames_max = std::max(r.hub_frames_max, o.mcast_msgs);
      r.hub_frames_total += o.mcast_msgs;
    }

    if (policy) {
      r.sections = policy->sections();
      r.sections_by_strategy = policy->strategy_counts();
      r.policy_switches = policy->switches();
      r.decisions = policy->decisions();
    }

    // Per-site telemetry, folded from the master's decision log.
    std::map<std::uint32_t, RunReport::SitePolicy> sites;
    for (const rse::policy::Decision& d : r.decisions) {
      RunReport::SitePolicy& sp = sites[d.site];
      sp.site = d.site;
      ++sp.decisions;
      sp.switches += d.switched ? 1 : 0;
      sp.final_strategy = d.strategy;
    }
    for (const auto& entry : sites) r.site_policy.push_back(entry.second);

    // Correctness-checker violation counts (chk::Checker records one labeled
    // counter per oracle; nonzero only under a no-abort test config).
    const obs::Registry& m = cluster->metrics();
    for (const std::string& checker : m.label_values("chk_violations", "checker")) {
      const std::uint64_t count = m.counter_value("chk_violations", {{"checker", checker}});
      r.check_violations += count;
      r.check_violations_by_checker.emplace_back(checker, count);
    }

    // "diff requests": for sequential sections the paper counts the single
    // most-faulting thread (the master in the original system); for
    // parallel sections the per-thread average.
    std::uint64_t seq_max_faults = 0;
    util::Accumulator seq_resp;
    util::Accumulator par_resp;
    double par_faults_total = 0;
    sim::SimDuration par_wait_max{};
    for (net::NodeId n = 0; n < nodes; ++n) {
      const tmk::NodeStats& s = cluster->node(n).stats();
      seq_max_faults = std::max(seq_max_faults, s.seq.page_faults);
      seq_resp.merge(s.seq.response_ms);
      par_resp.merge(s.par.response_ms);
      par_faults_total += static_cast<double>(s.par.page_faults);
      par_wait_max = std::max(par_wait_max, s.par.fault_wait);
    }
    r.seq_requests = seq_max_faults;
    r.seq_response_ms = seq_resp.mean();
    r.par_requests_avg = par_faults_total / static_cast<double>(nodes);
    r.par_response_ms = par_resp.mean();
    r.par_response_max_ms = par_resp.max();
    r.par_fault_wait_max_s = par_wait_max.seconds();
    return r;
  }
};

}  // namespace

RunReport run_barnes_hut(const RunOptions& opt, const bh::BhConfig& cfg) {
  Bench b(opt);
  bh::BhWorld world = bh::setup_world(*b.cluster, cfg);
  bh::BhResult res;
  const auto h0 = std::chrono::steady_clock::now();
  b.cluster->run([&](tmk::NodeRuntime&) {
    bh::init_bodies(world, cfg);
    res = bh::run_steps(*b.cluster, *b.team, world, cfg);
  });
  b.host_wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - h0).count();
  return b.report(opt, res.total_time.seconds(), res.seq_time.seconds(),
                  res.par_time.seconds(), res.checksum, res.interactions);
}

RunReport run_ilink(const RunOptions& opt, const ilink::IlinkConfig& cfg) {
  Bench b(opt);
  ilink::IlinkWorld world = ilink::setup_world(*b.cluster, cfg);
  ilink::IlinkResult res;
  const auto h0 = std::chrono::steady_clock::now();
  b.cluster->run([&](tmk::NodeRuntime&) {
    res = ilink::run_program(*b.cluster, *b.team, world, cfg);
  });
  b.host_wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - h0).count();
  return b.report(opt, res.total_time.seconds(), res.seq_time.seconds(),
                  res.par_time.seconds(), res.likelihood,
                  res.parallel_updates + res.serial_updates);
}

RunReport run_hotspot(const RunOptions& opt, const hotspot::HotspotConfig& cfg) {
  Bench b(opt);
  const hotspot::HotspotWorld world = hotspot::setup_world(*b.cluster, cfg);
  hotspot::HotspotResult res;
  const auto h0 = std::chrono::steady_clock::now();
  const sim::SimDuration total =
      b.cluster->run([&](tmk::NodeRuntime&) { res = hotspot::run_program(*b.team, world, cfg); });
  b.host_wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - h0).count();
  return b.report(opt, total.seconds(), res.seq_time.seconds(), res.par_time.seconds(),
                  res.checksum, 0);
}

}  // namespace repseq::apps::harness
