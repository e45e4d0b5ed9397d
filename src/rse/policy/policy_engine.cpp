#include "rse/policy/policy_engine.hpp"

#include <set>
#include <string_view>

#include "obs/trace.hpp"
#include "util/check.hpp"

namespace repseq::rse::policy {

const char* strategy_name(SectionStrategy s) {
  switch (s) {
    case SectionStrategy::MasterOnly:
      return "master-only";
    case SectionStrategy::Replicated:
      return "replicated";
    case SectionStrategy::BroadcastAfter:
      return "broadcast";
  }
  return "?";
}

const char* policy_name(PolicyKind k) {
  switch (k) {
    case PolicyKind::Static:
      return "static";
    case PolicyKind::Greedy:
      return "greedy";
    case PolicyKind::Hysteresis:
      return "hysteresis";
  }
  return "?";
}

std::optional<PolicyKind> parse_policy(std::string_view s) {
  if (s == "static") return PolicyKind::Static;
  if (s == "greedy") return PolicyKind::Greedy;
  if (s == "hysteresis" || s == "hyst") return PolicyKind::Hysteresis;
  return std::nullopt;
}

std::optional<SectionStrategy> parse_strategy(std::string_view s) {
  if (s == "master-only" || s == "master") return SectionStrategy::MasterOnly;
  if (s == "replicated") return SectionStrategy::Replicated;
  if (s == "broadcast") return SectionStrategy::BroadcastAfter;
  return std::nullopt;
}

std::optional<std::map<std::uint32_t, SectionStrategy>> parse_pin_sites(std::string_view s) {
  std::map<std::uint32_t, SectionStrategy> pins;
  if (s.empty()) return pins;
  while (true) {
    const std::size_t comma = s.find(',');
    const std::string_view entry = s.substr(0, comma);
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) return std::nullopt;
    std::uint64_t site = 0;
    for (const char ch : entry.substr(0, eq)) {
      if (ch < '0' || ch > '9') return std::nullopt;
      site = site * 10 + static_cast<std::uint64_t>(ch - '0');
      if (site > 0xffffffffull) return std::nullopt;  // would wrap the site id
    }
    const auto strat = parse_strategy(entry.substr(eq + 1));
    if (!strat) return std::nullopt;
    // A duplicate site is a contradictory pin list, not a tiebreak.
    if (!pins.emplace(static_cast<std::uint32_t>(site), *strat).second) return std::nullopt;
    if (comma == std::string_view::npos) break;
    s = s.substr(comma + 1);
    if (s.empty()) return std::nullopt;  // trailing comma
  }
  return pins;
}

PolicyEngine::PolicyEngine(tmk::Cluster& cluster, PolicyConfig cfg)
    : cluster_(cluster),
      cfg_(cfg),
      model_(cluster.config(), cluster.network().config(), cluster.node_count()),
      log_(cluster.node_count()) {
  cluster_.protocol().on(
      tmk::MsgKind::PolicySectionOpen, [this](tmk::NodeRuntime& rt, const net::Message& msg) {
        const auto& p = msg.as<tmk::PolicySectionOpenP>();
        Decision d;
        d.seq = p.seq;
        d.site = p.site;
        d.strategy = static_cast<SectionStrategy>(p.strategy);
        d.switched = p.switched != 0;
        log_[rt.id()].push_back(d);
      });
}

double PolicyEngine::ewma(double prev, double sample, bool first) const {
  return first ? sample : (1.0 - cfg_.alpha) * prev + cfg_.alpha * sample;
}

std::uint64_t PolicyEngine::master_par_diff_msgs() const {
  return cluster_.node(0).stats().par.diff_msgs_sent;
}

std::uint64_t PolicyEngine::master_par_diff_bytes() const {
  return cluster_.node(0).stats().par.diff_bytes_sent;
}

std::uint64_t PolicyEngine::total_seq_fwd_requests() const {
  std::uint64_t sum = 0;
  for (net::NodeId n = 0; n < cluster_.node_count(); ++n) {
    sum += cluster_.node(n).stats().seq.fwd_requests;
  }
  return sum;
}

std::uint64_t PolicyEngine::total_seq_mcast_bytes() const {
  std::uint64_t sum = 0;
  for (net::NodeId n = 0; n < cluster_.node_count(); ++n) {
    for (const tmk::ShardCounters& s : cluster_.node(n).stats().seq.shard_traffic) {
      sum += s.mcast_bytes;
    }
  }
  return sum;
}

const SectionProfile* PolicyEngine::profile(std::uint32_t site) const {
  auto it = sites_.find(site);
  return it == sites_.end() ? nullptr : &it->second.profile;
}

SectionStrategy PolicyEngine::decide(const SiteState& st) const {
  if (cfg_.kind == PolicyKind::Static) return cfg_.static_strategy;
  if (st.profile.runs == 0) return cfg_.bootstrap;

  double cost[kStrategyCount];
  std::size_t best = 0;
  for (std::size_t s = 0; s < kStrategyCount; ++s) {
    cost[s] = model_.cost(static_cast<SectionStrategy>(s), st.profile);
    if (cost[s] < cost[best]) best = s;  // strict <: ties keep enum order
  }
  const auto challenger = static_cast<SectionStrategy>(best);
  if (cfg_.kind == PolicyKind::Greedy) return challenger;

  // Hysteresis: the incumbent survives unless the challenger undercuts it
  // by the margin and the site has dwelt long enough since its last switch.
  if (challenger == st.current) return st.current;
  if (st.profile.runs - st.last_switch_run < cfg_.min_dwell) return st.current;
  const double incumbent = cost[static_cast<std::size_t>(st.current)];
  if (cost[best] < incumbent * (1.0 - cfg_.switch_margin)) return challenger;
  return st.current;
}

void PolicyEngine::finalize_aftermath() {
  if (!aftermath_pending_) return;
  aftermath_pending_ = false;
  SectionProfile& p = sites_[aftermath_site_].profile;
  const auto i = static_cast<std::size_t>(aftermath_strategy_);
  const auto msgs = static_cast<double>(master_par_diff_msgs() - snap_master_par_diffs_);
  const auto bytes = static_cast<double>(master_par_diff_bytes() - snap_master_par_bytes_);
  p.after_msgs[i] = ewma(p.after_msgs[i], msgs, p.tried[i] == 0);
  p.after_bytes[i] = ewma(p.after_bytes[i], bytes, p.tried[i] == 0);
  ++p.tried[i];
}

SectionStrategy PolicyEngine::open_section(tmk::NodeRuntime& master, std::uint32_t site) {
  REPSEQ_CHECK(master.is_master(), "policy decisions are made on the master");
  REPSEQ_CHECK(!section_open_, "policy section opened twice");
  finalize_aftermath();

  auto [it, inserted] = sites_.try_emplace(site);
  SiteState& st = it->second;
  // A pinned site bypasses the decision procedure entirely -- on its first
  // occurrence too, which would otherwise run the execute-and-broadcast
  // bootstrap probe: an A/B pin must never leak probe traffic into the
  // measurement it exists for.  Telemetry still accumulates normally.
  const auto pin = cfg_.pins.find(site);
  const SectionStrategy chosen = pin != cfg_.pins.end() ? pin->second : decide(st);
  const bool switched = st.profile.runs > 0 && chosen != st.current;
  if (switched) {
    ++switches_;
    st.last_switch_run = st.profile.runs;
  }
  st.current = chosen;
  ++counts_[static_cast<std::size_t>(chosen)];

  Decision d;
  d.seq = next_seq_++;
  d.site = site;
  d.strategy = chosen;
  d.switched = switched;
  log_[0].push_back(d);

  if (obs::enabled(obs::Cat::Rse)) [[unlikely]] {
    // The decision with its full cost-model inputs: the profile the costs
    // were computed from plus the per-strategy costs themselves (recomputed
    // here -- decide() keeps them internal -- and meaningful once the site
    // has a measured profile).
    const bool modeled = cfg_.kind != PolicyKind::Static && st.profile.runs > 0;
    obs::tracer().instant(
        obs::Cat::Rse, cluster_.engine().now(), 1, "policy", "decision",
        {{"seq", static_cast<double>(d.seq)},
         {"site", static_cast<double>(site)},
         {"strategy", static_cast<double>(static_cast<std::size_t>(chosen))},
         {"switched", switched ? 1.0 : 0.0},
         {"pinned", pin != cfg_.pins.end() ? 1.0 : 0.0},
         {"runs", static_cast<double>(st.profile.runs)},
         {"pages_written", st.profile.pages_written},
         {"faults_in", st.profile.faults_in},
         {"cost_master_only",
          modeled ? model_.cost(SectionStrategy::MasterOnly, st.profile) : 0.0},
         {"cost_replicated",
          modeled ? model_.cost(SectionStrategy::Replicated, st.profile) : 0.0},
         {"cost_broadcast",
          modeled ? model_.cost(SectionStrategy::BroadcastAfter, st.profile) : 0.0}});
  }
  if (cluster_.node_count() > 1) {
    master.send_multicast(tmk::MsgKind::PolicySectionOpen,
                          tmk::PolicySectionOpenP{d.seq, site,
                                                  static_cast<std::uint8_t>(chosen),
                                                  static_cast<std::uint8_t>(switched)});
  }

  section_open_ = true;
  open_site_ = site;
  open_strategy_ = chosen;
  open_t0_ = cluster_.engine().now();
  snap_master_seq_faults_ = master.stats().seq.page_faults;
  snap_fwd_requests_ = total_seq_fwd_requests();
  snap_mcast_bytes_ = total_seq_mcast_bytes();
  if (chosen != SectionStrategy::Replicated) {
    // Close the master's open interval so the write-set measurement sees a
    // clean dirty-page slate: a page dirtied by an *earlier* section and
    // re-written here would otherwise go uncounted (dirty_in_current never
    // toggles twice within one interval).  The BroadcastAfter bracket does
    // this anyway; for MasterOnly it merely makes the master's intervals
    // section-granular, which the lazy-diff machinery merges regardless.
    master.end_interval();
  }
  snap_master_vc0_ = master.vc().at(0);
  return chosen;
}

void PolicyEngine::close_section(tmk::NodeRuntime& master) {
  REPSEQ_CHECK(section_open_, "policy section closed without open");
  section_open_ = false;
  SectionProfile& p = sites_[open_site_].profile;

  const std::uint64_t faults_in =
      (master.stats().seq.page_faults - snap_master_seq_faults_) +
      (total_seq_fwd_requests() - snap_fwd_requests_);

  const bool first = p.runs == 0;
  if (open_strategy_ != SectionStrategy::Replicated) {
    // Write set: pages dirtied in the master's still-open interval (exact --
    // open_section closed the previous interval) plus the pages of intervals
    // closed during the bracket (the BroadcastAfter path closes one; section
    // bodies with internal synchronization may close more).  Replicated
    // execution leaves no write trace by design (Section 5.2), so the site's
    // last measured value carries and the scan is skipped entirely.
    std::set<tmk::PageId> wrote;
    for (tmk::PageId pg = 0; pg < master.page_count(); ++pg) {
      if (master.page(pg).dirty_in_current) wrote.insert(pg);
    }
    for (std::uint32_t i = snap_master_vc0_ + 1; i <= master.vc().at(0); ++i) {
      for (tmk::PageId pg : master.log().get(0, i).pages) wrote.insert(pg);
    }
    p.pages_written = ewma(p.pages_written, static_cast<double>(wrote.size()), first);
  }
  p.faults_in = ewma(p.faults_in, static_cast<double>(faults_in), first);
  ++p.runs;

  Decision& d = log_[0].back();
  d.section_s = (cluster_.engine().now() - open_t0_).seconds();
  d.mcast_kb = static_cast<double>(total_seq_mcast_bytes() - snap_mcast_bytes_) / 1024.0;

  aftermath_pending_ = true;
  aftermath_site_ = open_site_;
  aftermath_strategy_ = open_strategy_;
  snap_master_par_diffs_ = master_par_diff_msgs();
  snap_master_par_bytes_ = master_par_diff_bytes();
}

}  // namespace repseq::rse::policy
