// Unit tests for the event kernel's paged FIFO (sim/event_queue.hpp):
// FIFO order across ticks with appends made while draining, appends at
// a page end while the drain reads that page, runs that span several
// pages, the branch-free append's dropped candidates, exact size()
// across page boundaries, a throwing drain callback, copies, and the
// block-grown page pool. The suite keeps the name of the timing wheel
// the FIFO replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "circuit/logic.hpp"
#include "sim/event_queue.hpp"

namespace c = lv::circuit;
using lv::sim::EventQueue;

namespace {

EventQueue::Entry entry(c::NetId net) {
  return EventQueue::Entry{net, c::Logic::one};
}

}  // namespace

TEST(CalendarQueue, PopsInNondecreasingTimeOrder) {
  // Tick 0 holds 0..4. Draining entry n of tick t appends 10 + n (tick
  // t + 1) and drops a candidate; tick 1's entries append nothing. The
  // drain must finish tick 0 before any of tick 1, each in append order.
  EventQueue q;
  for (c::NetId n = 0; n < 5; ++n) q.push(entry(n));
  std::vector<c::NetId> got;
  q.drain([&](EventQueue::Entry e) {
    got.push_back(e.net());
    if (e.net() < 10) {
      q.append(entry(10 + e.net()), true);
      q.append(entry(99), false);
    }
  });
  EXPECT_EQ(got, (std::vector<c::NetId>{0, 1, 2, 3, 4, 10, 11, 12, 13, 14}));
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SameTimeEntriesPopInPushOrder) {
  // The FIFO tie-break is what replaces the heap's global sequence
  // number — violating it would change ActivityStats glitch counts.
  EventQueue q;
  for (c::NetId n = 0; n < 6; ++n) q.push(entry(n));
  for (c::NetId n = 0; n < 6; ++n) EXPECT_EQ(q.pop().net(), n);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, PushIntoSlotBeingDrainedIsSeenSamePass) {
  // Pops interleaved with pushes: each push lands behind every entry
  // still pending.
  EventQueue q;
  q.push(entry(1));
  EXPECT_EQ(q.pop().net(), 1u);
  q.push(entry(2));
  q.push(entry(3));
  EXPECT_EQ(q.pop().net(), 2u);
  q.push(entry(4));
  EXPECT_EQ(q.pop().net(), 3u);
  EXPECT_EQ(q.pop().net(), 4u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SizeTracksPushesAndPops) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.push(entry(1));
  q.push(entry(2));
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(CalendarQueue, PoolGrowsInBlocksAndRecyclesChunks) {
  EventQueue q;
  const std::size_t block =
      EventQueue::kBlockPages * EventQueue::kPageEntries;
  EXPECT_EQ(q.pool_capacity(), block);
  // Far more pending entries than one block holds: the pool adds whole
  // blocks and keeps every entry in FIFO order.
  const std::size_t n = 3 * block;
  for (std::size_t i = 0; i < n; ++i) q.push(entry(static_cast<c::NetId>(i)));
  const std::size_t grown = q.pool_capacity();
  EXPECT_EQ(grown % block, 0u);
  EXPECT_GE(grown, n);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(q.pop().net(), static_cast<c::NetId>(i));
  // A second round of the same size reuses the drained pages.
  for (std::size_t i = 0; i < n; ++i) q.push(entry(7));
  EXPECT_EQ(q.pool_capacity(), grown);
  while (!q.empty()) q.pop();
  // So does a drain that keeps one entry pending while its appends walk
  // through more pages than the pool holds.
  std::size_t left = 2 * grown;
  q.push(entry(8));
  q.drain([&](EventQueue::Entry) {
    if (left != 0) {
      --left;
      q.push(entry(8));
    }
  });
  EXPECT_EQ(left, 0u);
  EXPECT_EQ(q.pool_capacity(), grown);
  // A hint reserves whole blocks up front.
  EXPECT_EQ(EventQueue{block}.pool_capacity(), 2 * block);
}

TEST(CalendarQueue, RunSpansSeveralPages) {
  // A run over three and a half pages, drained in FIFO order, with
  // appends made mid-drain consumed after it.
  constexpr std::size_t kPage = EventQueue::kPageEntries;
  EventQueue q;
  const std::size_t n = 3 * kPage + kPage / 2;
  for (std::size_t i = 0; i < n; ++i) q.push(entry(static_cast<c::NetId>(i)));
  std::vector<c::NetId> got;
  q.drain([&](EventQueue::Entry e) {
    got.push_back(e.net());
    if (e.net() < n && e.net() % 7 == 0) q.push(entry(100000 + e.net()));
  });
  ASSERT_EQ(got.size(), n + (n + 6) / 7);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(got[i], static_cast<c::NetId>(i));
  for (std::size_t k = n, i = 0; k < got.size(); ++k, i += 7)
    ASSERT_EQ(got[k], static_cast<c::NetId>(100000 + i));
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SameSlotAppendOnAPageEndIsSeenSamePass) {
  // The FIFO is filled to one entry short of its tail page's end
  // (starting at the page's start, and mid-page). An append from the
  // first entry takes that last entry, moving the tail to a fresh page
  // while the drain still reads the old one; an append from that entry
  // lands on the fresh page. The drain must see both, in order.
  constexpr std::size_t kPage = EventQueue::kPageEntries;
  for (const std::size_t warm : {std::size_t{0}, kPage / 3}) {
    EventQueue q;
    for (std::size_t i = 0; i < warm; ++i) q.push(entry(1));
    while (!q.empty()) q.pop();  // the run now starts `warm` into its page
    const std::size_t fill = kPage - 1 - warm;
    for (std::size_t i = 0; i < fill; ++i)
      q.push(entry(static_cast<c::NetId>(i)));
    const auto page_end = static_cast<c::NetId>(fill);
    const auto after = static_cast<c::NetId>(fill + 1);
    std::vector<c::NetId> got;
    q.drain([&](EventQueue::Entry e) {
      got.push_back(e.net());
      if (got.size() == 1) q.push(entry(page_end));
      if (e.net() == page_end) q.append(entry(after), true);
      if (e.net() == after) q.append(entry(999), false);  // dropped
    });
    ASSERT_EQ(got.size(), fill + 2) << "warm " << warm;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], static_cast<c::NetId>(i)) << "warm " << warm;
    EXPECT_TRUE(q.empty());
  }
}

TEST(CalendarQueue, SizeIsExactAcrossPageBoundaries) {
  // size() after every append, dropped candidate, pop and drained
  // entry, while the run crosses several page ends.
  constexpr std::size_t kPage = EventQueue::kPageEntries;
  EventQueue q;
  std::size_t want = 0;
  for (std::size_t i = 0; i < 2 * kPage + 3; ++i) {
    q.append(entry(static_cast<c::NetId>(i)), true);
    ASSERT_EQ(q.size(), ++want);
    q.append(entry(static_cast<c::NetId>(i)), false);
    ASSERT_EQ(q.size(), want);
  }
  for (std::size_t i = 0; i < kPage + 1; ++i) {
    q.pop();
    ASSERT_EQ(q.size(), --want);
  }
  std::size_t appended = 0;
  q.drain([&](EventQueue::Entry) {
    ASSERT_EQ(q.size(), --want);
    if (want % 5 == 0 && appended < kPage) {
      q.push(entry(1));
      q.push(entry(2));
      want += 2;
      appended += 2;
      ASSERT_EQ(q.size(), want);
    }
  });
  EXPECT_EQ(want, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, DroppedCandidateIsOverwrittenByTheNextAppend) {
  EventQueue q;
  q.append(entry(10), false);
  q.append(entry(11), true);
  q.append(entry(12), false);
  q.append(entry(20), false);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().net(), 11u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, ThrowingDrainLeavesTheRestPendingInOrder) {
  // The entry handed to the throwing callback stays consumed; the rest,
  // including what the callback appended before throwing, stay pending
  // in order and drain normally afterwards.
  EventQueue q;
  for (c::NetId n = 0; n < 6; ++n) q.push(entry(n));
  std::vector<c::NetId> got;
  EXPECT_THROW(q.drain([&](EventQueue::Entry e) {
    got.push_back(e.net());
    if (e.net() == 2) {
      q.push(entry(20));
      throw std::runtime_error{"budget"};
    }
  }),
               std::runtime_error);
  EXPECT_EQ(got, (std::vector<c::NetId>{0, 1, 2}));
  ASSERT_EQ(q.size(), 4u);
  got.clear();
  q.drain([&](EventQueue::Entry e) { got.push_back(e.net()); });
  EXPECT_EQ(got, (std::vector<c::NetId>{3, 4, 5, 20}));
}

TEST(CalendarQueue, CopyKeepsPendingEntriesInOrder) {
  // A copy holds the same entries, in order, across page ends, and as
  // many pool blocks as the original.
  const std::size_t block =
      EventQueue::kBlockPages * EventQueue::kPageEntries;
  EventQueue q;
  for (std::size_t i = 0; i < 2 * block; ++i) q.push(entry(1));
  while (!q.empty()) q.pop();  // grown, and the run starts mid-page
  const auto n = static_cast<c::NetId>(3 * EventQueue::kPageEntries + 5);
  for (c::NetId i = 0; i < n; ++i) q.push(entry(i));
  EventQueue copy = q;
  EXPECT_EQ(copy.pool_capacity(), q.pool_capacity());
  ASSERT_EQ(copy.size(), q.size());
  for (c::NetId i = 0; i < n; ++i) {
    ASSERT_EQ(q.pop().net(), i);
    ASSERT_EQ(copy.pop().net(), i);
  }
  EXPECT_TRUE(copy.empty());
  EventQueue assigned;
  assigned = copy;
  EXPECT_EQ(assigned.pool_capacity(), copy.pool_capacity());
  EXPECT_TRUE(assigned.empty());
}

TEST(CalendarQueue, ScalarEventPacksNetAndValue) {
  const lv::sim::ScalarEvent e{(1u << 30) - 1, c::Logic::x};
  EXPECT_EQ(e.net(), (1u << 30) - 1);
  EXPECT_EQ(e.value(), c::Logic::x);
  EXPECT_EQ(lv::sim::ScalarEvent(5, c::Logic::zero).value(), c::Logic::zero);
  EXPECT_EQ(lv::sim::ScalarEvent(5, c::Logic::one).value(), c::Logic::one);
}
