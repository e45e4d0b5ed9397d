// Micro-benchmarks: twin/diff machinery -- creation, application and wire
// sizing across modification densities, the twin page copy and diff packet
// copies -- plus the shared-access barrier fast path.  These operations sit
// on the critical path of every fault and every shared access, so their
// per-op cost and (post-pooling) allocation counts are tracked here; see
// docs/ARCHITECTURE.md "Simulator performance" for recorded before/after
// numbers.
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "micro_runner.hpp"
#include "sim/rng.hpp"
#include "tmk/access.hpp"
#include "tmk/diff.hpp"
#include "tmk/protocol.hpp"
#include "tmk/runtime.hpp"
#include "util/pool_ptr.hpp"

namespace {

using repseq::sim::Rng;
using repseq::tmk::Diff;
using repseq::tmk::DiffPacket;
using repseq::tmk::RegisteredDiff;
using repseq::tmk::RegisteredDiffPtr;
using namespace repseq::microbench;

constexpr std::size_t kPage = 4096;

std::pair<std::vector<std::byte>, std::vector<std::byte>> make_pair_with_density(int pct,
                                                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> twin(kPage);
  for (auto& b : twin) b = static_cast<std::byte>(rng.next_below(256));
  auto cur = twin;
  for (std::size_t w = 0; w < kPage / 4; ++w) {
    if (rng.next_below(100) < static_cast<std::uint64_t>(pct)) {
      cur[w * 4] = static_cast<std::byte>(rng.next_below(256));
    }
  }
  return {std::move(twin), std::move(cur)};
}

void bench_create(int pct) {
  const auto [twin, cur] = make_pair_with_density(pct, 42);
  const std::string name = "diff_create/density_" + std::to_string(pct);
  bench(name.c_str(), [&twin = twin, &cur = cur] {
    Diff d = Diff::create(twin, cur);
    do_not_optimize(d);
  });
}

void bench_apply(int pct) {
  const auto [twin, cur] = make_pair_with_density(pct, 43);
  const Diff d = Diff::create(twin, cur);
  std::vector<std::byte> target = twin;
  const std::string name = "diff_apply/density_" + std::to_string(pct);
  bench(name.c_str(), [&] {
    d.apply(target);
    do_not_optimize(target.data());
  });
}

}  // namespace

int main() {
  print_header();
  for (int pct : {0, 1, 10, 50, 100}) bench_create(pct);
  for (int pct : {1, 10, 50, 100}) bench_apply(pct);

  {
    const auto [twin, cur] = make_pair_with_density(10, 44);
    const Diff d = Diff::create(twin, cur);
    bench("diff_wire_bytes", [&d] { do_not_optimize(d.wire_bytes()); });
  }

  {
    std::vector<std::byte> page(kPage, std::byte{7});
    std::vector<std::byte> twin(kPage);
    bench("twin_copy_4k", [&] {
      std::memcpy(twin.data(), page.data(), kPage);
      do_not_optimize(twin.data());
    });
  }

  {
    // The pooled registration cycle: register a Diff in a pooled block, copy
    // the handle (non-atomic count) and drop everything (block recycled).
    const auto [twin, cur] = make_pair_with_density(10, 45);
    bench("diff_pooled_handle_cycle", [&twin = twin, &cur = cur] {
      RegisteredDiffPtr p = repseq::util::make_pooled<RegisteredDiff>(
          RegisteredDiff{1, {1}, Diff::create(twin, cur)});
      RegisteredDiffPtr q = p;
      do_not_optimize(q);
    });
  }

  {
    // Copying a packet of a merged lazy diff (three covered intervals), as
    // every multicast receiver does when it stages a frame: one count bump.
    const auto [twin, cur] = make_pair_with_density(10, 46);
    const DiffPacket pkt{1, 2,
                         repseq::util::make_pooled<RegisteredDiff>(
                             RegisteredDiff{1, {1, 2, 3}, Diff::create(twin, cur)})};
    bench("diff_packet_copy", [&pkt] {
      DiffPacket copy = pkt;
      do_not_optimize(copy);
    });
  }

  {
    // The access barriers' inline fast path on one node: loads of a valid
    // page and stores to a page already dirty in the open interval (the
    // first store twins it).  Each op is a barrier plus the local access.
    repseq::tmk::TmkConfig cfg;
    cfg.heap_bytes = 1u << 20;
    repseq::tmk::Cluster cl(cfg, repseq::net::NetConfig{}, 1);
    const auto arr = repseq::tmk::ShArray<std::uint32_t>::alloc(cl, 1024, /*page_aligned=*/true);
    cl.run([&arr](repseq::tmk::NodeRuntime&) {
      std::size_t i = 0;
      bench("access/load-valid", [&] {
        do_not_optimize(arr.load(i));
        i = (i + 1) & 1023;
      });
      arr.store(0, 1);
      bench("access/store-dirty", [&] {
        arr.store(i, static_cast<std::uint32_t>(i));
        i = (i + 1) & 1023;
      });
    });
  }
  return 0;
}
