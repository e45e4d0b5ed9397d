// Per-node page state for the multiple-writer lazy-invalidate protocol.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tmk/diff.hpp"
#include "tmk/interval.hpp"
#include "tmk/vector_clock.hpp"

namespace repseq::tmk {

enum class PageProt : std::uint8_t {
  Invalid,   // pending write notices; access faults
  ReadOnly,  // up to date; first write creates a twin
  Writable,  // dirty in the current interval (twin exists)
};

/// Marks a page that is not a member of one of NodeRuntime's sparse page
/// sets (see PageState::pending_slot / twin_slot).
inline constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

struct PageState {
  // The access fast path (NodeRuntime::read_barrier / write_barrier) reads
  // only these three flags, so they share the struct's first word with the
  // sparse-set slots.

  PageProt prot = PageProt::ReadOnly;

  /// True when written during the current (not yet closed) interval.
  bool dirty_in_current = false;

  /// Set during a replicated sequential section when the page was dirty on
  /// entry and has been write-protected (paper Section 5.3).
  bool rse_write_protected = false;

  /// Position of this page in its node's pending-page set (kNoSlot when
  /// `pending` is empty).
  std::uint32_t pending_slot = kNoSlot;

  /// Position of this page in its node's twin-page set (kNoSlot without a
  /// twin).
  std::uint32_t twin_slot = kNoSlot;

  /// Copy taken at the first write after the page was last clean; present
  /// while there are local modifications not yet captured in a diff.
  std::unique_ptr<std::byte[]> twin;

  /// Own interval indices whose modifications live in the current twin
  /// (diff not yet created -- lazy diff creation, paper Section 5.1).
  std::vector<std::uint32_t> open_intervals;

  /// Write notices received but whose diffs have not been applied here,
  /// in arrival order.  Sorted causally at fault time.
  std::vector<IntervalRecordPtr> pending;

  /// Local knowledge timestamp: covers (owner, index) iff this copy
  /// reflects owner's interval `index` modifications to this page.
  /// This is what the paper's "valid notices" communicate (Section 5.4.1).
  VectorClock valid_vc;

  [[nodiscard]] bool has_twin() const { return twin != nullptr; }
};

// Every node holds one PageState per heap page (6,144 pages x 64 nodes in
// the benchmark), so any per-page field costs RSS cluster-wide: keeping the
// sparse-set positions in separate per-node arrays instead of the struct
// measured +3 MB peak RSS at 64 nodes.  Per-page bookkeeping belongs inside
// this struct, and the struct must not grow.
static_assert(sizeof(PageState) <= 104, "PageState grew: per-page state costs RSS on every node");

}  // namespace repseq::tmk
