#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "util/pool_ptr.hpp"
#include "util/stats_accum.hpp"
#include "util/table.hpp"

namespace repseq::util {
namespace {

std::atomic<bool> g_released_after_teardown{false};

/// Constructed before its thread's pool free lists, so destroyed after them.
struct LateHolder {
  PoolPtr<int> p;
  ~LateHolder() { g_released_after_teardown = pool_detail::lists_torn_down; }
};

TEST(PoolPtr, ThreadExitFreesParkedBlocksAndLateReleasesBypassTheLists) {
  int late_value = 0;
  std::thread t([&late_value] {
    thread_local LateHolder late;
    late.p = make_pooled<int>(7);  // the thread's first pool use builds its lists
    PoolPtr<int> parked = make_pooled<int>(8);
    parked = nullptr;  // parks a block, which the teardown must free
    late_value = *late.p;
  });
  t.join();
  EXPECT_EQ(late_value, 7);
  // The late PoolPtr was released after the teardown: its block went to
  // operator delete, not into a destroyed vector (ASan/LSan check both).
  EXPECT_TRUE(g_released_after_teardown);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Accumulator whole;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37 - 3.0;
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_NEAR(left.min(), whole.min(), 0.0);
  EXPECT_NEAR(left.max(), whole.max(), 0.0);
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a;
  a.add(1.0);
  Accumulator empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Table, RendersAlignedCells) {
  Table t({"row", "paper", "measured"});
  t.add_row({"Total time (sec.)", "53.6", "48.1"});
  t.add_rule();
  t.add_row({"Speedup", "6.7", "7.0"});
  const std::string s = t.render();
  EXPECT_NE(s.find("Total time (sec.)"), std::string::npos);
  EXPECT_NE(s.find("| row"), std::string::npos);
  // Every data line has the same width.
  std::size_t width = s.find('\n');
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, width) << "ragged table line";
    pos = next + 1;
  }
}

TEST(TableFormat, FixedDigits) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(10.0, 1), "10.0");
}

TEST(TableFormat, ThousandsSeparators) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(5006252), "5,006,252");
  EXPECT_EQ(fmt_count(100), "100");
  EXPECT_EQ(fmt_count(1234567890ULL), "1,234,567,890");
}

TEST(TableFormat, PercentChange) {
  EXPECT_EQ(fmt_pct_change(6.7, 10.1), "+51%");
  EXPECT_EQ(fmt_pct_change(0.0, 1.0), "n/a");
  EXPECT_EQ(fmt_pct_change(10.0, 5.0), "-50%");
}

}  // namespace
}  // namespace repseq::util
