// Integration tests for the TreadMarks-like consistency protocol running on
// the simulated cluster: visibility across fork/join and barriers, the
// multiple-writer merge, lazy diffs, lock-carried notices, contention, and
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "tmk/access.hpp"
#include "tmk/runtime.hpp"

namespace repseq::tmk {
namespace {

struct Fixture {
  TmkConfig cfg;
  net::NetConfig ncfg;

  Fixture() {
    cfg.heap_bytes = 1u << 20;
  }

  std::unique_ptr<Cluster> make(std::size_t nodes) {
    return std::make_unique<Cluster>(cfg, ncfg, nodes);
  }
};

TEST(TmkRuntime, ClusterRejectsPageSizeThatIsNotAPowerOfTwo) {
  // The access fast path finds a page by shifting, not dividing.
  TmkConfig cfg;
  cfg.page_bytes = 3000;
  cfg.heap_bytes = 16 * 3000;
  EXPECT_DEATH(Cluster(cfg, net::NetConfig{}, 2), "page_bytes must be a power of two");
}

TEST(TmkRuntime, MasterWritesVisibleToSlavesAfterFork) {
  Fixture fx;
  auto cl = fx.make(4);
  auto data = ShArray<int>::alloc(*cl, 1024);
  std::vector<int> seen(4, 0);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    // Every node reads the slice the master initialized.
    int sum = 0;
    for (std::size_t i = 0; i < data.size(); ++i) sum += data.load(i);
    seen[rt.id()] = sum;
  });

  cl->run([&](NodeRuntime& rt) {
    for (std::size_t i = 0; i < data.size(); ++i) data.store(i, static_cast<int>(i));
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  const int expect = (1023 * 1024) / 2;
  for (int n = 0; n < 4; ++n) EXPECT_EQ(seen[n], expect) << "node " << n;
  // Slaves must have faulted pages in from the master.
  EXPECT_GT(cl->node(1).stats().par.page_faults, 0u);
}

TEST(TmkRuntime, SlaveWritesVisibleToMasterAfterJoin) {
  Fixture fx;
  auto cl = fx.make(4);
  auto data = ShArray<int>::alloc(*cl, 400);
  int master_sum = -1;

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    // Block partition: each node writes its own quarter.
    const std::size_t lo = rt.id() * 100;
    for (std::size_t i = lo; i < lo + 100; ++i) data.store(i, static_cast<int>(rt.id() + 1));
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
    int sum = 0;
    for (std::size_t i = 0; i < data.size(); ++i) sum += data.load(i);
    master_sum = sum;
  });

  EXPECT_EQ(master_sum, 100 * (1 + 2 + 3 + 4));
}

TEST(TmkRuntime, MultipleWritersOnOnePageMergeByWord) {
  Fixture fx;
  auto cl = fx.make(4);
  // 256 ints fit in one 4KB page region: four writers share pages heavily.
  auto data = ShArray<int>::alloc(*cl, 256);
  std::vector<int> out(256, -1);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    // Cyclic partition maximizes false sharing: adjacent elements belong to
    // different nodes.
    for (std::size_t i = rt.id(); i < data.size(); i += rt.node_count()) {
      data.store(i, static_cast<int>(1000 + i));
    }
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
    for (std::size_t i = 0; i < data.size(); ++i) out[i] = data.load(i);
  });

  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(1000 + i)) << "element " << i;
  }
}

TEST(TmkRuntime, BarrierMakesCrossSlaveWritesVisible) {
  Fixture fx;
  auto cl = fx.make(3);
  auto data = ShArray<int>::alloc(*cl, 300);
  std::vector<int> neighbor_sum(3, -1);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    const std::size_t lo = rt.id() * 100;
    for (std::size_t i = lo; i < lo + 100; ++i) data.store(i, static_cast<int>(rt.id() + 1));
    rt.barrier(7);
    // Read the next node's stripe (written before the barrier).
    const std::size_t nlo = ((rt.id() + 1) % 3) * 100;
    int s = 0;
    for (std::size_t i = nlo; i < nlo + 100; ++i) s += data.load(i);
    neighbor_sum[rt.id()] = s;
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  EXPECT_EQ(neighbor_sum[0], 200);
  EXPECT_EQ(neighbor_sum[1], 300);
  EXPECT_EQ(neighbor_sum[2], 100);
}

TEST(TmkRuntime, RepeatedBarriersWithSameIdDoNotCollide) {
  Fixture fx;
  auto cl = fx.make(3);
  auto counter = ShArray<int>::alloc(*cl, 3);
  std::vector<int> final_val(3, 0);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    for (int round = 0; round < 10; ++round) {
      counter.store(rt.id(), round + 1);
      rt.barrier(1);
      int s = 0;
      for (int n = 0; n < 3; ++n) s += counter.load(n);
      EXPECT_EQ(s, 3 * (round + 1));
      rt.barrier(1);
    }
    final_val[rt.id()] = counter.load(rt.id());
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });
  for (int n = 0; n < 3; ++n) EXPECT_EQ(final_val[n], 10);
}

TEST(TmkRuntime, LockProtectedCounterIsSequentiallyConsistent) {
  Fixture fx;
  auto cl = fx.make(4);
  auto counter = ShVar<int>::alloc(*cl);
  int final_value = -1;

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    for (int i = 0; i < 5; ++i) {
      rt.lock_acquire(3);
      counter.store(counter.load() + 1);
      rt.lock_release(3);
    }
  });

  cl->run([&](NodeRuntime& rt) {
    counter.store(0);
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
    final_value = counter.load();
  });

  EXPECT_EQ(final_value, 4 * 5);
}

TEST(TmkRuntime, LazyDiffsServeMultipleIntervals) {
  Fixture fx;
  auto cl = fx.make(2);
  auto data = ShArray<int>::alloc(*cl, 64);
  int sum_after = -1;

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    if (rt.id() == 1) {
      // Two separate intervals touching the same page: barrier in between,
      // no interleaving reader, so diffs stay lazy until the final read.
      data.store(0, 11);
      rt.barrier(2);
      data.store(1, 22);
      rt.barrier(2);
    } else {
      rt.barrier(2);
      rt.barrier(2);
    }
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
    sum_after = data.load(0) + data.load(1);
  });

  EXPECT_EQ(sum_after, 33);
}

TEST(TmkRuntime, InvalidationOfDirtyPagePreservesLocalWrites) {
  Fixture fx;
  auto cl = fx.make(2);
  auto data = ShArray<int>::alloc(*cl, 64);
  int v0 = -1;
  int v1 = -1;

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    // Both nodes write different words of the same page in the same
    // interval; each then reads the other's word after the barrier.
    data.store(rt.id(), static_cast<int>(100 + rt.id()));
    rt.barrier(9);
    if (rt.id() == 0) {
      v1 = data.load(1);
    } else {
      v0 = data.load(0);
    }
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  EXPECT_EQ(v0, 100);
  EXPECT_EQ(v1, 101);
}

TEST(TmkRuntime, StatsCountFaultsAndDiffTraffic) {
  Fixture fx;
  auto cl = fx.make(2);
  auto data = ShArray<int>::alloc(*cl, 2048);  // spans two pages
  const auto work = cl->register_work([&](NodeRuntime& rt) {
    if (rt.id() == 1) {
      for (std::size_t i = 0; i < data.size(); ++i) (void)data.load(i);
    }
  });

  cl->run([&](NodeRuntime& rt) {
    for (std::size_t i = 0; i < data.size(); ++i) data.store(i, 1);
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  const auto& s1 = cl->node(1).stats().par;
  EXPECT_EQ(s1.page_faults, 2u);
  EXPECT_EQ(s1.diff_requests, 2u);
  EXPECT_EQ(s1.response_ms.count(), 2u);
  EXPECT_GT(s1.response_ms.mean(), 0.0);
  // Diff traffic flowed: requests from node 1, replies from node 0.
  EXPECT_GT(cl->node(1).stats().par.diff_msgs_sent, 0u);
  EXPECT_GT(cl->node(0).stats().par.diff_bytes_sent, 0u);
}

TEST(TmkRuntime, ContentionRaisesResponseTime) {
  // Many nodes fault on distinct master-written pages simultaneously: the
  // master's dispatcher queue and uplink serialize the responses, so the
  // mean response time on 16 nodes must exceed the 2-node case (paper
  // Section 3).
  auto response_with_nodes = [](std::size_t nodes) {
    Fixture fx;
    auto cl = fx.make(nodes);
    auto data = ShArray<int>::alloc(*cl, 1024 * nodes);  // one page per node
    const auto work = cl->register_work([&](NodeRuntime& rt) {
      if (rt.id() != 0) {
        const std::size_t lo = rt.id() * 1024;
        int s = 0;
        for (std::size_t i = lo; i < lo + 1024; ++i) s += data.load(i);
        EXPECT_GT(s, 0);
      }
    });
    cl->run([&](NodeRuntime& rt) {
      for (std::size_t i = 0; i < data.size(); ++i) data.store(i, 1);
      rt.fork(work);
      cl->work(work)(rt);
      rt.join_master();
    });
    util::Accumulator all;
    for (std::size_t n = 1; n < nodes; ++n) {
      all.merge(cl->node(static_cast<NodeId>(n)).stats().par.response_ms);
    }
    return all.mean();
  };

  const double r2 = response_with_nodes(2);
  const double r16 = response_with_nodes(16);
  EXPECT_GT(r16, 2.0 * r2) << "r2=" << r2 << " r16=" << r16;
}

TEST(TmkRuntime, DeterministicVirtualTimeAcrossRuns) {
  auto run_once = [] {
    Fixture fx;
    auto cl = fx.make(5);
    auto data = ShArray<int>::alloc(*cl, 5000);
    const auto work = cl->register_work([&](NodeRuntime& rt) {
      const std::size_t chunk = data.size() / rt.node_count();
      const std::size_t lo = rt.id() * chunk;
      for (std::size_t i = lo; i < lo + chunk; ++i) data.store(i, static_cast<int>(i));
      rt.barrier(1);
      long sum = 0;
      for (std::size_t i = 0; i < data.size(); ++i) sum += data.load(i);
      EXPECT_GT(sum, 0);
    });
    const auto elapsed = cl->run([&](NodeRuntime& rt) {
      rt.fork(work);
      cl->work(work)(rt);
      rt.join_master();
    });
    return std::pair{elapsed.ns, cl->engine().events_executed()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(TmkRuntime, SingleNodeClusterRunsWithoutMessages) {
  Fixture fx;
  auto cl = fx.make(1);
  auto data = ShArray<int>::alloc(*cl, 100);
  int sum = -1;
  cl->run([&](NodeRuntime& rt) {
    for (std::size_t i = 0; i < data.size(); ++i) data.store(i, 2);
    rt.barrier(0);
    sum = 0;
    for (std::size_t i = 0; i < data.size(); ++i) sum += data.load(i);
  });
  EXPECT_EQ(sum, 200);
  EXPECT_EQ(cl->network().messages_sent(), 0u);
}

TEST(TmkRuntime, LossyNetworkRecoversThroughRetransmission) {
  Fixture fx;
  fx.ncfg.loss_probability = 0.05;
  fx.ncfg.loss_seed = 99;
  fx.cfg.request_timeout = sim::milliseconds(5);
  auto cl = fx.make(3);
  auto data = ShArray<int>::alloc(*cl, 3000);
  std::vector<long> sums(3, -1);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    long s = 0;
    for (std::size_t i = 0; i < data.size(); ++i) s += data.load(i);
    sums[rt.id()] = s;
  });

  cl->run([&](NodeRuntime& rt) {
    for (std::size_t i = 0; i < data.size(); ++i) data.store(i, 3);
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
  });

  for (int n = 0; n < 3; ++n) EXPECT_EQ(sums[n], 9000) << "node " << n;
}

// The notice of `owner`'s interval `index` writing `page`, with the given
// nonzero vector-clock entries.
IntervalRecordPtr make_record(std::size_t nodes, NodeId owner, std::uint32_t index,
                              const std::vector<std::pair<NodeId, std::uint32_t>>& clock,
                              PageId page) {
  auto rec = util::make_pooled<IntervalRecord>();
  rec->owner = owner;
  rec->index = index;
  rec->vc = VectorClock(nodes);
  for (const auto& [n, v] : clock) rec->vc.set(n, v);
  rec->pages = {page};
  return rec;
}

// A diff packet for `page` that writes `value` into each word of `words`.
DiffPacket make_packet(std::size_t page_bytes, NodeId owner, PageId page,
                       std::vector<std::uint32_t> covers, std::uint64_t seq,
                       const std::vector<std::size_t>& words, std::uint32_t value) {
  std::vector<std::byte> twin(page_bytes);
  std::vector<std::byte> cur(page_bytes);
  for (std::size_t w : words) std::memcpy(cur.data() + 4 * w, &value, 4);
  return DiffPacket{owner, page,
                    util::make_pooled<RegisteredDiff>(
                        RegisteredDiff{seq, std::move(covers), Diff::create(twin, cur)})};
}

std::uint32_t word_at(NodeRuntime& rt, PageId page, std::size_t w) {
  std::uint32_t v = 0;
  std::memcpy(&v, rt.page_span(page).data() + 4 * w, 4);
  return v;
}

TEST(TmkRuntime, CausalApplyOrderMatchesStableSortOnShuffledTies) {
  // Packets from six owners, several sharing a Lamport key, arrive shuffled.
  // For every pair of packets one word is written by both, so the final
  // page shows which of the two applied last: the whole apply order is
  // observable.  It must be the order of a stable sort with the comparator
  // (lamport, owner, seq).
  constexpr NodeId kOwners = 6;
  const std::uint32_t lamport_of[kOwners + 1] = {0, 3, 2, 3, 2, 3, 1};
  auto pair_word = [](NodeId a, NodeId b) {  // a < b, both in 1..kOwners
    return static_cast<std::size_t>((a - 1) * kOwners + (b - 1));
  };
  Fixture fx;
  for (std::uint32_t seed = 1; seed <= 5; ++seed) {
    auto cl = fx.make(kOwners + 1);
    const PageId page = 3;
    std::vector<NodeId> expected;
    std::vector<std::uint32_t> image;
    cl->run([&](NodeRuntime& rt) {
      std::vector<DiffPacket> pkts;
      for (NodeId o = 1; o <= kOwners; ++o) {
        rt.apply_notice(make_record(rt.node_count(), o, 1, {{o, 1}, {0, lamport_of[o] - 1}}, page));
        std::vector<std::size_t> words;
        for (NodeId other = 1; other <= kOwners; ++other) {
          if (other != o) words.push_back(pair_word(std::min(o, other), std::max(o, other)));
        }
        pkts.push_back(make_packet(rt.config().page_bytes, o, page, {1}, 10 - o, words, 100 + o));
      }
      ASSERT_EQ(rt.pending_pages(), std::vector<PageId>{page});
      std::mt19937 rng(seed);
      std::shuffle(pkts.begin(), pkts.end(), rng);
      std::vector<DiffPacket> ref = pkts;
      std::stable_sort(ref.begin(), ref.end(), [&](const DiffPacket& a, const DiffPacket& b) {
        const std::uint64_t la = lamport_of[a.owner];
        const std::uint64_t lb = lamport_of[b.owner];
        if (la != lb) return la < lb;
        if (a.owner != b.owner) return a.owner < b.owner;
        return a.seq() < b.seq();
      });
      for (const DiffPacket& pkt : ref) expected.push_back(pkt.owner);
      rt.apply_packets_causally(pkts);
      for (std::size_t w = 0; w < kOwners * kOwners; ++w) image.push_back(word_at(rt, page, w));
      EXPECT_EQ(rt.page(page).prot, PageProt::ReadOnly);
      EXPECT_TRUE(rt.pending_pages().empty());
    });
    ASSERT_EQ(expected.size(), kOwners);
    std::vector<std::size_t> rank(kOwners + 1);
    for (std::size_t i = 0; i < expected.size(); ++i) rank[expected[i]] = i;
    for (NodeId a = 1; a <= kOwners; ++a) {
      for (NodeId b = a + 1; b <= kOwners; ++b) {
        const NodeId later = rank[a] > rank[b] ? a : b;
        EXPECT_EQ(image[pair_word(a, b)], 100 + later)
            << "owners " << a << "," << b << " seed " << seed;
      }
    }
  }
}

TEST(TmkRuntime, CausalApplyLandsMergedLazyDiffBeforeItsSuccessor) {
  // Node 3's lazy diff covers its intervals 1 and 2 (no notice for the page
  // reached it in between).  Node 2's interval 1 saw (3,1) -- it rewrote a
  // word (3,1) wrote -- but runs concurrently with (3,2), and the two
  // newest intervals tie on the Lamport key.  The merged diff must still
  // land first, or its stale word clobbers node 2's newer one.
  Fixture fx;
  auto cl = fx.make(4);
  const PageId page = 5;
  std::uint32_t word = 0;
  cl->run([&](NodeRuntime& rt) {
    const std::size_t n = rt.node_count();
    rt.apply_notice(make_record(n, 3, 1, {{3, 1}}, page));
    rt.apply_notice(make_record(n, 3, 2, {{3, 2}, {0, 1}}, page));
    rt.apply_notice(make_record(n, 2, 1, {{2, 1}, {3, 1}, {0, 1}}, page));
    const std::size_t pb = rt.config().page_bytes;
    const std::vector<DiffPacket> pkts{make_packet(pb, 3, page, {1, 2}, 1, {7}, 31),
                                       make_packet(pb, 2, page, {1}, 1, {7}, 21)};
    rt.apply_packets_causally(pkts);
    word = word_at(rt, page, 7);
    EXPECT_TRUE(rt.pending_pages().empty());
  });
  EXPECT_EQ(word, 21u);
}

TEST(TmkRuntime, SendOverheadIsComputeOnAppFiberAndServiceOnDispatcher) {
  // Who pays a send follows from the calling fiber: the application fiber
  // computes its send overhead, the request server (preempting, as
  // TreadMarks' SIGIO handler does) services it.  Node 1 answers through a
  // handler registered on a kind no base-protocol cluster uses.
  Fixture fx;
  auto cl = fx.make(2);
  const std::int64_t overhead = cl->network().config().send_overhead.ns;
  constexpr std::uint64_t kReq = 7;
  std::int64_t server_busy = -1;
  std::int64_t server_service = -1;
  cl->protocol().on(MsgKind::ValidNotices, [&](NodeRuntime& rt, const net::Message& msg) {
    const sim::SimDuration busy = rt.cpu().busy_time();
    const sim::SimDuration service = rt.cpu().service_time();
    rt.send_unicast(MsgKind::BcastAck, msg.src, BcastAckP{kReq});
    server_busy = (rt.cpu().busy_time() - busy).ns;
    server_service = (rt.cpu().service_time() - service).ns;
  });
  std::int64_t app_busy = -1;
  std::int64_t app_service = -1;
  cl->run([&](NodeRuntime& rt) {
    auto& replies = rt.expect_replies(kReq);
    const sim::SimDuration busy = rt.cpu().busy_time();
    const sim::SimDuration service = rt.cpu().service_time();
    rt.send_unicast(MsgKind::ValidNotices, 1, ValidNoticesP{});
    app_busy = (rt.cpu().busy_time() - busy).ns;
    app_service = (rt.cpu().service_time() - service).ns;
    (void)replies.pop();
    rt.drop_reply_slot(kReq);
  });
  EXPECT_EQ(app_busy, overhead);
  EXPECT_EQ(app_service, 0);
  EXPECT_EQ(server_busy, 0);
  EXPECT_EQ(server_service, overhead);
}

// Parameterized consistency sweep: random access schedules over varying node
// counts still satisfy the golden final image computed on one node.
class RandomScheduleProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomScheduleProperty, FinalImageMatchesOwnership) {
  const int nodes = GetParam();
  Fixture fx;
  auto cl = fx.make(nodes);
  constexpr std::size_t kElems = 2000;
  auto data = ShArray<int>::alloc(*cl, kElems);
  std::vector<int> got(kElems, -1);

  const auto work = cl->register_work([&](NodeRuntime& rt) {
    // Three rounds; in each round r, node n owns elements where
    // (i / 7 + r) % nodes == n, writing round-tagged values; barriers
    // separate rounds.
    for (int r = 0; r < 3; ++r) {
      for (std::size_t i = 0; i < kElems; ++i) {
        if ((i / 7 + static_cast<std::size_t>(r)) % rt.node_count() == rt.id()) {
          data.store(i, static_cast<int>(i * 10 + r));
        }
      }
      rt.barrier(4);
    }
  });

  cl->run([&](NodeRuntime& rt) {
    rt.fork(work);
    cl->work(work)(rt);
    rt.join_master();
    for (std::size_t i = 0; i < kElems; ++i) got[i] = data.load(i);
  });

  for (std::size_t i = 0; i < kElems; ++i) {
    EXPECT_EQ(got[i], static_cast<int>(i * 10 + 2)) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, RandomScheduleProperty, ::testing::Values(2, 3, 4, 8));

}  // namespace
}  // namespace repseq::tmk
