// Shared scaffolding for the table-reproduction benchmarks: default scaled
// workload configurations, environment-variable overrides, and the
// paper-vs-measured table layout.
//
// Absolute numbers are not expected to match the paper (the substrate is a
// calibrated simulator and the workloads are scaled down; see the
// docs/ARCHITECTURE.md section "ompnow / apps -- programming model and
// experiments"); every harness prints the paper's value next to the
// measured one so the *shape* can be checked row by row.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include "apps/harness/run_modes.hpp"
#include "util/table.hpp"

namespace repseq::bench {

/// A malformed axis value must kill the run, not silently fall back: a
/// sweep that quietly ran the wrong transport/policy/flow/size produces
/// tables that look fine and mean nothing.
[[noreturn]] inline void env_value_error(const char* var, const char* got,
                                         const char* accepted) {
  std::fprintf(stderr, "error: unknown %s '%s' (accepted: %s)\n", var, got, accepted);
  std::exit(2);
}

/// Reads an integer override from the environment (REPSEQ_<NAME>); anything
/// but a decimal integer >= `min` fails loud.
inline long env_long(const char* name, long fallback, long min = 0) {
  const std::string var = std::string("REPSEQ_") + name;
  const char* v = std::getenv(var.c_str());
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || x < min) {
    env_value_error(var.c_str(), v, ("integer >= " + std::to_string(min)).c_str());
  }
  return x;
}

/// A cluster needs a node: REPSEQ_NODES=0 fails here, not in the library.
inline std::size_t bench_nodes() {
  return static_cast<std::size_t>(env_long("NODES", 32, /*min=*/1));
}

/// The wire backend for a sweep: REPSEQ_TRANSPORT=hub|tree|sharded
/// overrides the bench's own default, so every sweep can run on any
/// transport.
inline net::TransportKind bench_transport(
    net::TransportKind fallback = net::TransportKind::HubSwitch) {
  const char* v = std::getenv("REPSEQ_TRANSPORT");
  if (v == nullptr) return fallback;
  const auto k = net::parse_transport(v);
  if (!k) env_value_error("REPSEQ_TRANSPORT", v, "hub|tree|sharded");
  return *k;
}

/// Shard count for the sharded-hub backend (REPSEQ_HUB_SHARDS=S).
inline std::size_t bench_hub_shards() {
  return static_cast<std::size_t>(env_long("HUB_SHARDS", 4, /*min=*/1));
}

/// Adaptive-mode decision procedure: REPSEQ_POLICY=static|greedy|hysteresis
/// (parsed by rse::policy::parse_policy, the single parser for the axis --
/// the mode and flow axes live in apps::harness::parse_mode/parse_flow and
/// the transport axis in net::parse_transport).
inline rse::policy::PolicyKind bench_policy(
    rse::policy::PolicyKind fallback = rse::policy::PolicyKind::Hysteresis) {
  const char* v = std::getenv("REPSEQ_POLICY");
  if (v == nullptr) return fallback;
  const auto k = rse::policy::parse_policy(v);
  if (!k) env_value_error("REPSEQ_POLICY", v, "static|greedy|hysteresis");
  return *k;
}

/// RSE flow-control variant: REPSEQ_FLOW=chained|windowed|none overrides a
/// bench's default so any sweep can be repeated under another scheme.
inline rse::FlowControl bench_flow(rse::FlowControl fallback = rse::FlowControl::Chained) {
  const char* v = std::getenv("REPSEQ_FLOW");
  if (v == nullptr) return fallback;
  const auto f = apps::harness::parse_flow(v);
  if (!f) env_value_error("REPSEQ_FLOW", v, "chained|windowed|none");
  return *f;
}

/// Per-site strategy pins for adaptive A/B runs:
/// REPSEQ_PIN_SITE=<site>=<strategy>[,<site>=<strategy>...], strategies
/// master-only|replicated|broadcast.  A pinned site always executes the
/// pinned strategy (its first occurrence skips the bootstrap probe).
inline std::map<std::uint32_t, rse::policy::SectionStrategy> bench_pin_sites() {
  const char* v = std::getenv("REPSEQ_PIN_SITE");
  if (v == nullptr) return {};
  const auto pins = rse::policy::parse_pin_sites(v);
  if (!pins) {
    env_value_error("REPSEQ_PIN_SITE", v,
                    "<site>=<master-only|replicated|broadcast>[,...]");
  }
  return *pins;
}

/// Frame-coalescing window in virtual microseconds:
/// REPSEQ_BATCH_WINDOW=<us> (0 = no coalescing, the default).  Malformed
/// values fail loud like every other axis.
inline sim::SimDuration bench_batch_window(sim::SimDuration fallback = {}) {
  const char* v = std::getenv("REPSEQ_BATCH_WINDOW");
  if (v == nullptr) return fallback;
  const auto w = net::parse_batch_window(v);
  if (!w) env_value_error("REPSEQ_BATCH_WINDOW", v, "non-negative integer microseconds");
  return *w;
}

/// A sweep's node ladder: the rungs up to REPSEQ_NODES (default
/// `default_cap`), so CI smoke runs can bound their cost (REPSEQ_NODES=8
/// keeps {2,4,8} of {2,4,...}).  A cap below the first rung keeps that rung.
inline std::vector<std::size_t> node_ladder(std::initializer_list<std::size_t> rungs,
                                            std::size_t default_cap) {
  const auto cap = static_cast<std::size_t>(
      env_long("NODES", static_cast<long>(default_cap), /*min=*/1));
  std::vector<std::size_t> out;
  for (std::size_t n : rungs) {
    if (n <= cap) out.push_back(n);
  }
  if (out.empty()) out.push_back(*rungs.begin());
  return out;
}

/// NetConfig with the env-selected transport + shard count applied.
inline net::NetConfig bench_net_config() {
  net::NetConfig ncfg;
  ncfg.transport = bench_transport();
  ncfg.hub_shards = bench_hub_shards();
  ncfg.batch_window = bench_batch_window();
  return ncfg;
}

/// The scaled Barnes-Hut workload (paper: 131072 bodies, 2 steps).
inline apps::bh::BhConfig bh_config(long default_bodies = 4096) {
  apps::bh::BhConfig cfg;
  cfg.bodies = static_cast<int>(env_long("BH_BODIES", default_bodies));
  cfg.steps = static_cast<int>(env_long("BH_STEPS", 2));
  return cfg;
}

/// The scaled Ilink workload (paper: CLP input, 180 iterations); each field
/// falls back to `cfg`'s.
inline apps::ilink::IlinkConfig ilink_config(apps::ilink::IlinkConfig cfg = {}) {
  cfg.families = static_cast<int>(env_long("ILINK_FAMILIES", cfg.families));
  cfg.children = static_cast<int>(env_long("ILINK_CHILDREN", cfg.children));
  cfg.genotypes = static_cast<int>(env_long("ILINK_GENOTYPES", cfg.genotypes));
  cfg.iterations = static_cast<int>(env_long("ILINK_ITERATIONS", cfg.iterations));
  cfg.min_nonzero = static_cast<int>(env_long("ILINK_MIN_NZ", cfg.min_nonzero));
  cfg.max_nonzero = static_cast<int>(env_long("ILINK_MAX_NZ", cfg.max_nonzero));
  cfg.threshold = static_cast<int>(env_long("ILINK_THRESHOLD", cfg.threshold));
  return cfg;
}

/// One diff server fields O(N) queued requests for a hot page; above 256
/// nodes the retransmit timeout must cover that service backlog, or the
/// protocol spends the run re-requesting (and eventually aborts).
inline void scale_request_timeout(apps::harness::RunOptions& o) {
  if (o.nodes > 256) o.tmk.request_timeout = sim::milliseconds(static_cast<std::int64_t>(o.nodes));
}

inline apps::harness::RunOptions options_for(apps::harness::Mode mode,
                                             std::size_t nodes = bench_nodes(),
                                             long default_heap_mb = 24) {
  apps::harness::RunOptions o;
  o.mode = mode;
  o.nodes = nodes;
  o.flow = bench_flow();
  o.net = bench_net_config();
  o.policy.kind = bench_policy();
  o.policy.pins = bench_pin_sites();
  o.tmk.heap_bytes = static_cast<std::size_t>(env_long("HEAP_MB", default_heap_mb)) << 20;
  scale_request_timeout(o);
  return o;
}

/// A report's per-site policy telemetry as "site:decisions/switches/final
/// ..." ("-" outside Mode::Adaptive).
inline std::string site_policy_cell(const apps::harness::RunReport& r) {
  std::string out;
  for (const auto& sp : r.site_policy) {
    if (!out.empty()) out += ' ';
    out += std::to_string(sp.site) + ':' + std::to_string(sp.decisions) + '/' +
           std::to_string(sp.switches) + '/' + rse::policy::strategy_name(sp.final_strategy);
  }
  return out.empty() ? "-" : out;
}

inline std::string fmt1(double v) { return util::fmt_fixed(v, 1); }
inline std::string fmt2(double v) { return util::fmt_fixed(v, 2); }

/// Paper-shape checks that printed NO in this process.
inline int& shape_failures() {
  static int failures = 0;
  return failures;
}

/// Prints one paper-shape check as "  <label>: yes|NO (<detail>)", the
/// detail formatted printf-style, and records a NO so the bench can exit 1:
/// a run that lost the paper's shape must fail, not just say so.
[[gnu::format(printf, 3, 4)]] inline void shape_check(const char* label, bool ok,
                                                      const char* detail, ...) {
  std::printf("  %s: %s (", label, ok ? "yes" : "NO");
  std::va_list args;
  va_start(args, detail);
  std::vprintf(detail, args);
  va_end(args);
  std::printf(")\n");
  if (!ok) ++shape_failures();
}

/// A bench's exit status: 1 when any shape check printed NO.
inline int shape_exit_code() { return shape_failures() == 0 ? 0 : 1; }

inline void print_header(const char* title, const char* paper_ref, const char* note) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("  paper reference: %s\n", paper_ref);
  std::printf("  %s\n", note);
  std::printf("================================================================\n");
}

}  // namespace repseq::bench
