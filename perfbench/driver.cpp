// perfbench driver: runs ONE benchmark workload once and prints every
// measurement as a single JSON object on stdout.
//
// The driver measures the simulator from outside the library: it builds
// tmk::Cluster, rse::RseController, rse::policy::PolicyEngine and
// ompnow::Team itself, calls the apps' public setup_world / run entry points,
// times each of those calls with steady_clock, and reads the public
// counters afterwards.  Nothing inside src/ is hooked.
//
// Host-side instruments owned by this file:
//   * allocation counting (global operator new, as in bench/perf_sim);
//   * an optional SIGPROF program-counter sampler (--profile FILE) active
//     only during Cluster::run; the orchestrator symbolizes the samples;
//   * an optional trace digest: when REPSEQ_TRACE is set the cluster writes
//     its obs trace at destruction, and the driver sums its span durations.
//
// Usage:
//   perfbench_driver --workload NAME [--mode sequential] [--nodes N]
//                    [--setups K] [--profile FILE]
// Run perfbench/run.py instead of this binary directly; it builds it,
// scrubs the environment and checks every result.
#include <link.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/barnes_hut/bh.hpp"
#include "apps/ilink/ilink.hpp"
#include "obs/trace.hpp"
#include "ompnow/team.hpp"
#include "rse/controller.hpp"
#include "rse/policy/policy_engine.hpp"
#include "tmk/runtime.hpp"

// ---------------------------------------------------------------------------
// Allocation counting.  The simulator is single-threaded, so plain counters
// suffice.  The replacement operator new allocates with malloc, so pairing it
// with free is correct; GCC cannot see that across the replacement.
// ---------------------------------------------------------------------------

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

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
  const auto a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1));
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

namespace perfbench {
namespace {

using namespace repseq;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads.  Every workload runs 64 nodes on the 24 MB heap with Chained
// flow control; NOTES.md says why 64 and not 128.
// ---------------------------------------------------------------------------

enum class App { Ilink, BarnesHut };

struct Workload {
  const char* name;
  App app;
  ompnow::SeqMode seq_mode;
  bool adaptive;
  net::TransportKind transport;
  sim::SimDuration batch_window;
};

constexpr std::array<Workload, 3> kWorkloads{{
    {"ilink-replicated", App::Ilink, ompnow::SeqMode::Replicated, false,
     net::TransportKind::HubSwitch, sim::SimDuration{}},
    {"ilink-base", App::Ilink, ompnow::SeqMode::MasterOnly, false,
     net::TransportKind::HubSwitch, sim::SimDuration{}},
    {"bh-adaptive-tree", App::BarnesHut, ompnow::SeqMode::Adaptive, true,
     net::TransportKind::TreeMulticast, sim::microseconds(1000)},
}};

constexpr std::size_t kNodes = 64;
constexpr std::size_t kHeapBytes = 24u << 20;
constexpr int kBhBodies = 8192;
constexpr int kBhSteps = 2;
constexpr int kIlinkIterations = 4;  // as bench/perf_sim pins Ilink

// The app inputs are pinned (the apps' default seeds): on other inputs the
// replicated workloads' virtual time is multimodal (see NOTES.md), which no
// per-run bound could absorb.


// ---------------------------------------------------------------------------
// SIGPROF program-counter sampler.  The handler only stores the
// interrupted PC into a preallocated buffer; symbolization happens offline.
// ---------------------------------------------------------------------------

constexpr std::size_t kMaxSamples = 1u << 20;
std::uintptr_t* g_samples = nullptr;
volatile std::size_t g_nsamples = 0;

void on_sigprof(int, siginfo_t*, void* uctx) {
  const auto* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  const std::uintptr_t pc = 0;
  (void)uc;
#endif
  const std::size_t i = g_nsamples;
  if (i < kMaxSamples) {
    g_samples[i] = pc;
    g_nsamples = i + 1;
  }
}

class Profiler {
 public:
  Profiler() {
    g_samples = new std::uintptr_t[kMaxSamples];
    altstack_.resize(1u << 16);
    stack_t ss{};
    ss.ss_sp = altstack_.data();
    ss.ss_size = altstack_.size();
    sigaltstack(&ss, nullptr);
    struct sigaction sa{};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
  }
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;
  ~Profiler() {
    stop();
    delete[] g_samples;
    g_samples = nullptr;
  }

  void start() { set_interval(kIntervalUs); }
  void stop() { set_interval(0); }

  /// Writes "bias <hex>" (the main program's load bias, so PIE addresses
  /// map back onto nm's) and one "<hex pc> <count>" line per distinct PC.
  void write(const std::string& path) const {
    std::map<std::uintptr_t, std::uint64_t> hist;
    for (std::size_t i = 0; i < g_nsamples; ++i) ++hist[g_samples[i]];
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write profile '%s'\n", path.c_str());
      std::exit(2);
    }
    std::fprintf(f, "bias %" PRIxPTR "\n", load_bias());
    for (const auto& [pc, n] : hist) std::fprintf(f, "%" PRIxPTR " %" PRIu64 "\n", pc, n);
    std::fclose(f);
  }

  [[nodiscard]] static std::size_t samples() { return g_nsamples; }

 private:
  static constexpr long kIntervalUs = 1000;

  static void set_interval(long us) {
    itimerval it{};
    it.it_interval.tv_usec = us;
    it.it_value.tv_usec = us;
    setitimer(ITIMER_PROF, &it, nullptr);
  }

  static std::uintptr_t load_bias() {
    std::uintptr_t bias = 0;
    // The first object dl_iterate_phdr reports is the main program.
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* out) {
          *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
          return 1;
        },
        &bias);
    return bias;
  }

  std::vector<char> altstack_;
};

// ---------------------------------------------------------------------------
// Trace digest: sums span durations (virtual seconds) per span name from the
// Chrome trace the cluster wrote at destruction.  The writer puts one event
// per line and gives E events their B's name.
// ---------------------------------------------------------------------------

std::optional<std::string_view> field(std::string_view line, std::string_view key) {
  std::string pat = "\"";
  pat += key;
  pat += "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) return std::nullopt;
  std::string_view rest = line.substr(at + pat.size());
  if (!rest.empty() && rest.front() == '"') {
    rest.remove_prefix(1);
    return rest.substr(0, rest.find('"'));
  }
  return rest.substr(0, rest.find_first_of(",}"));
}

std::map<std::string, double> span_totals(const std::string& path) {
  std::map<std::string, double> totals;
  std::map<std::pair<long, long>, std::vector<double>> open;  // (pid,tid) -> B ts
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto ph = field(line, "ph");
    if (!ph || (*ph != "B" && *ph != "E")) continue;
    const auto ts = field(line, "ts");
    const auto pid = field(line, "pid");
    const auto tid = field(line, "tid");
    const auto name = field(line, "name");
    if (!ts || !pid || !tid || !name) continue;
    const double t_us = std::strtod(std::string(*ts).c_str(), nullptr);
    const std::pair<long, long> key{std::atol(std::string(*pid).c_str()),
                                    std::atol(std::string(*tid).c_str())};
    if (*ph == "B") {
      open[key].push_back(t_us);
    } else if (auto& stack = open[key]; !stack.empty()) {
      totals[std::string(*name)] += (t_us - stack.back()) / 1e6;
      stack.pop_back();
    }
  }
  return totals;
}

// ---------------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  bool sequential = false;   // the one-node Sequential reference
  std::size_t nodes = kNodes;
  int setups = 1;            // setups timed; all but the last are torn down unused
  std::string profile_path;  // empty = no sampling
};

/// Everything one configuration needs, built in dependency order and torn
/// down in reverse (member order).
struct Stack {
  std::unique_ptr<tmk::Cluster> cluster;
  std::unique_ptr<rse::RseController> rse;
  std::unique_ptr<rse::policy::PolicyEngine> policy;
  std::unique_ptr<ompnow::Team> team;
  apps::ilink::IlinkWorld ilink;
  apps::bh::BhWorld bh;
  double cluster_s = 0;  // constructing cluster, controller, engine, team
  double world_s = 0;    // setup_world
};

struct AppConfigs {
  apps::ilink::IlinkConfig ilink;
  apps::bh::BhConfig bh;
};

AppConfigs app_configs() {
  AppConfigs c;
  c.ilink.iterations = kIlinkIterations;
  c.bh.bodies = kBhBodies;
  c.bh.steps = kBhSteps;
  return c;
}

std::unique_ptr<Stack> build(const Options& o, const AppConfigs& cfg) {
  const Workload& w = *o.workload;
  auto s = std::make_unique<Stack>();
  tmk::TmkConfig tcfg;
  tcfg.heap_bytes = kHeapBytes;
  net::NetConfig ncfg;
  ncfg.transport = w.transport;
  ncfg.batch_window = w.batch_window;

  const auto t0 = Clock::now();
  s->cluster = std::make_unique<tmk::Cluster>(tcfg, ncfg, o.sequential ? 1 : o.nodes);
  s->rse = std::make_unique<rse::RseController>(*s->cluster, rse::FlowControl::Chained);
  if (w.adaptive && !o.sequential) {
    s->policy = std::make_unique<rse::policy::PolicyEngine>(*s->cluster,
                                                            rse::policy::PolicyConfig{});
  }
  s->team = std::make_unique<ompnow::Team>(
      *s->cluster, o.sequential ? ompnow::SeqMode::MasterOnly : w.seq_mode, s->rse.get(),
      s->policy.get());
  s->cluster_s = seconds_since(t0);

  const auto t1 = Clock::now();
  if (w.app == App::Ilink) {
    s->ilink = apps::ilink::setup_world(*s->cluster, cfg.ilink);
  } else {
    s->bh = apps::bh::setup_world(*s->cluster, cfg.bh);
  }
  s->world_s = seconds_since(t1);
  return s;
}

class Json {
 public:
  void num(const char* key, double v) {
    sep();
    std::printf("\"%s\": %.17g", key, v);
  }
  void list(const char* key, const std::vector<double>& vs) {
    sep();
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < vs.size(); ++i) std::printf("%s%.17g", i ? ", " : "", vs[i]);
    std::printf("]");
  }
  void close() { std::printf("}\n"); }

 private:
  void sep() { std::printf(first_ ? "{" : ", "); first_ = false; }
  bool first_ = true;
};

int run(const Options& o) {
  const AppConfigs cfg = app_configs();
  const Workload& w = *o.workload;

  std::vector<double> setup_s;
  for (int i = 1; i < o.setups; ++i) {
    const auto spare = build(o, cfg);
    setup_s.push_back(spare->cluster_s + spare->world_s);
  }
  std::unique_ptr<Stack> s = build(o, cfg);
  setup_s.push_back(s->cluster_s + s->world_s);

  std::unique_ptr<Profiler> prof;
  if (!o.profile_path.empty()) prof = std::make_unique<Profiler>();

  double checksum = 0;
  sim::SimDuration total{}, seq{}, par{};
  const std::uint64_t a0 = g_allocs;
  const std::uint64_t b0 = g_alloc_bytes;
  const auto t_run = Clock::now();
  if (prof) prof->start();
  if (w.app == App::Ilink) {
    apps::ilink::IlinkResult res;
    s->cluster->run([&](tmk::NodeRuntime&) {
      res = apps::ilink::run_program(*s->cluster, *s->team, s->ilink, cfg.ilink);
    });
    checksum = res.likelihood;
    total = res.total_time;
    seq = res.seq_time;
    par = res.par_time;
  } else {
    apps::bh::BhResult res;
    s->cluster->run([&](tmk::NodeRuntime&) {
      apps::bh::init_bodies(s->bh, cfg.bh);
      res = apps::bh::run_steps(*s->cluster, *s->team, s->bh, cfg.bh);
    });
    checksum = res.checksum;
    total = res.total_time;
    seq = res.seq_time;
    par = res.par_time;
  }
  if (prof) prof->stop();
  const double wall_s = seconds_since(t_run);
  const std::uint64_t allocs = g_allocs - a0;
  const std::uint64_t alloc_bytes = g_alloc_bytes - b0;

  // ---- report: read every public counter ----
  const auto t_report = Clock::now();
  tmk::Cluster& c = *s->cluster;
  const std::size_t nodes = c.node_count();
  const tmk::PhaseCounters cs = c.total(tmk::Phase::Sequential);
  const tmk::PhaseCounters cp = c.total(tmk::Phase::Parallel);
  util::Accumulator seq_resp, par_resp;
  double fault_wait_max = 0;
  for (net::NodeId n = 0; n < nodes; ++n) {
    const tmk::NodeStats& st = c.node(n).stats();
    seq_resp.merge(st.seq.response_ms);
    par_resp.merge(st.par.response_ms);
    fault_wait_max = std::max(fault_wait_max, (st.seq.fault_wait + st.par.fault_wait).seconds());
  }
  double hub_busy_max = 0;
  for (const tmk::HubOccupancy& occ : c.hub_occupancy()) {
    hub_busy_max = std::max(hub_busy_max, occ.busy.seconds());
  }
  std::uint64_t violations = 0;
  for (const std::string& checker : c.metrics().label_values("chk_violations", "checker")) {
    violations += c.metrics().counter_value("chk_violations", {{"checker", checker}});
  }
  const std::uint64_t events = c.engine().events_executed();
  const std::uint64_t diff_requests = cs.diff_requests + cp.diff_requests;
  const std::uint64_t recoveries = cs.recoveries + cp.recoveries;
  const std::uint64_t frames = c.network().messages_sent();
  const std::uint64_t drops = c.network().total_drops();

  Json j;
  j.num("checksum", checksum);
  j.list("setup_s", setup_s);
  j.num("setup.cluster_s", s->cluster_s);
  j.num("setup.world_s", s->world_s);
  j.num("wall_s", wall_s);
  j.num("virt_total_s", total.seconds());
  j.num("virt_seq_s", seq.seconds());
  j.num("virt_par_s", par.seconds());
  j.num("msgs", static_cast<double>(cs.msgs_sent + cp.msgs_sent));
  j.num("data_kb", static_cast<double>(cs.bytes_sent + cp.bytes_sent) / 1024.0);

  j.num("sim.events", static_cast<double>(events));
  j.num("sim.peak_live_events", static_cast<double>(c.engine().peak_live_events()));
  j.num("sim.ns_per_event", events > 0 ? wall_s * 1e9 / static_cast<double>(events) : 0);

  j.num("net.frames", static_cast<double>(frames));
  j.num("net.bytes", static_cast<double>(c.network().bytes_sent()));
  j.num("net.drops", static_cast<double>(drops));
  j.num("net.drop_ratio", frames > 0 ? static_cast<double>(drops) / static_cast<double>(frames) : 0);
  j.num("net.hub_busy_max_s", hub_busy_max);

  j.num("tmk.page_faults", static_cast<double>(cs.page_faults + cp.page_faults));
  j.num("tmk.diff_requests", static_cast<double>(diff_requests));
  j.num("tmk.recoveries", static_cast<double>(recoveries));
  j.num("tmk.recovery_ratio", diff_requests > 0 ? static_cast<double>(recoveries) /
                                                      static_cast<double>(diff_requests)
                                                : 0);
  j.num("tmk.seq_response_ms.p50", seq_resp.p50());
  j.num("tmk.seq_response_ms.p99", seq_resp.p99());
  j.num("tmk.par_response_ms.p50", par_resp.p50());
  j.num("tmk.par_response_ms.p99", par_resp.p99());
  j.num("tmk.fault_wait_max_s", fault_wait_max);

  j.num("rse.valid_notice_s", s->rse->valid_notice_time().seconds());
  j.num("rse.null_acks", static_cast<double>(cs.null_acks_sent + cp.null_acks_sent));
  j.num("rse.fwd_requests", static_cast<double>(cs.fwd_requests + cp.fwd_requests));

  j.num("rse.policy.sections", s->policy ? static_cast<double>(s->policy->sections()) : 0);
  j.num("rse.policy.switches", s->policy ? static_cast<double>(s->policy->switches()) : 0);
  for (std::size_t k = 0; k < rse::policy::kStrategyCount; ++k) {
    const std::string key = std::string("rse.policy.by_strategy.") +
                            rse::policy::strategy_name(static_cast<rse::policy::SectionStrategy>(k));
    j.num(key.c_str(), s->policy ? static_cast<double>(s->policy->strategy_counts()[k]) : 0);
  }

  j.num("ompnow.seq_sections", static_cast<double>(s->team->sequential_sections()));
  j.num("ompnow.par_regions", static_cast<double>(s->team->parallel_regions()));

  j.num("alloc.count", static_cast<double>(allocs));
  j.num("alloc.bytes", static_cast<double>(alloc_bytes));
  j.num("alloc.per_event", events > 0 ? static_cast<double>(allocs) / static_cast<double>(events) : 0);
  j.num("chk.violations", static_cast<double>(violations));
  j.num("obs.trace_events", static_cast<double>(obs::tracer().event_count()));
  j.num("report_s", seconds_since(t_report));

  // Teardown writes the trace (when REPSEQ_TRACE is set); digest it after.
  s.reset();
  if (prof) {
    prof->write(o.profile_path);
    j.num("profile.samples", static_cast<double>(Profiler::samples()));
  }
  if (const char* trace = std::getenv("REPSEQ_TRACE"); trace != nullptr && *trace != '\0') {
    j.num("obs.slabs_dropped", static_cast<double>(obs::tracer().slabs_dropped()));
    for (const auto& [name, secs] : span_totals(trace)) {
      j.num(("span." + name + "_s").c_str(), secs);
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  j.num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  j.close();
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME [--mode sequential] [--nodes N]"
               " [--setups K] [--profile FILE]\n  workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == std::string_view(v)) o.workload = &w;
      }
      if (o.workload == nullptr) usage();
    } else if (a == "--mode") {
      if (std::string_view(v) != "sequential") usage();
      o.sequential = true;
    } else if (a == "--nodes") {
      o.nodes = static_cast<std::size_t>(std::max(1L, std::atol(v)));
    } else if (a == "--setups") {
      o.setups = std::max(1, std::atoi(v));
    } else if (a == "--profile") {
      o.profile_path = v;
    } else {
      usage();
    }
  }
  if (o.workload == nullptr) usage();
  return run(o);
}
