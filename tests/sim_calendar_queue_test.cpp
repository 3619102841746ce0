// Unit tests for the calendar-queue (timing-wheel) scheduler: the
// (time, FIFO) ordering contract, wheel wrap-around, appending into the
// slot currently being drained (also across page ends), runs that span
// several pages, the branch-free append's dropped candidates, exact
// size() across page boundaries, the rebase that makes wrap counts
// per-drain, and the block-grown page pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/logic.hpp"
#include "sim/calendar_queue.hpp"

namespace c = lv::circuit;
using lv::sim::CalendarQueue;

namespace {

CalendarQueue::Entry entry(c::NetId net) {
  return CalendarQueue::Entry{net, c::Logic::one};
}

}  // namespace

TEST(CalendarQueue, CapacityIsPowerOfTwoPastHorizon) {
  // capacity = smallest power of two >= max_delay + 2.
  EXPECT_EQ(CalendarQueue{0}.capacity(), 2u);
  EXPECT_EQ(CalendarQueue{1}.capacity(), 4u);
  EXPECT_EQ(CalendarQueue{2}.capacity(), 4u);
  EXPECT_EQ(CalendarQueue{3}.capacity(), 8u);
  EXPECT_EQ(CalendarQueue{6}.capacity(), 8u);
  EXPECT_EQ(CalendarQueue{7}.capacity(), 16u);
}

TEST(CalendarQueue, PopsInNondecreasingTimeOrder) {
  CalendarQueue q{4};  // capacity 8
  q.push(3, entry(30));
  q.push(1, entry(10));
  q.push(2, entry(20));
  q.push(0, entry(0));
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q.pop().net(), 0u);
  EXPECT_EQ(q.time(), 0u);
  EXPECT_EQ(q.pop().net(), 10u);
  EXPECT_EQ(q.time(), 1u);
  EXPECT_EQ(q.pop().net(), 20u);
  EXPECT_EQ(q.pop().net(), 30u);
  EXPECT_EQ(q.time(), 3u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SameTimeEntriesPopInPushOrder) {
  // The FIFO tie-break is what replaces the heap's global sequence
  // number — violating it would change ActivityStats glitch counts.
  CalendarQueue q{2};
  for (c::NetId n = 0; n < 6; ++n) q.push(1, entry(n));
  for (c::NetId n = 0; n < 6; ++n) EXPECT_EQ(q.pop().net(), n);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, PushIntoSlotBeingDrainedIsSeenSamePass) {
  // Zero-delay evaluation chains push at the time currently being popped;
  // cursor-based consumption must see the appended entry before moving on.
  CalendarQueue q{0};  // capacity 2
  q.push(0, entry(1));
  EXPECT_EQ(q.pop().net(), 1u);
  q.push(0, entry(2));  // same slot, mid-drain
  q.push(0, entry(3));
  EXPECT_EQ(q.pop().net(), 2u);
  EXPECT_EQ(q.pop().net(), 3u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, WheelWrapAroundReusesSlots) {
  // Wheel of 8 slots: t=6 lands in slot 6, t=13 in slot 5 after one
  // wrap. Ordering must survive the modular reuse and wraps() must count
  // cursor crossings of slot 0.
  CalendarQueue q{6};  // capacity 8
  q.push(6, entry(60));
  EXPECT_EQ(q.pop().net(), 60u);
  EXPECT_EQ(q.time(), 6u);
  EXPECT_EQ(q.wraps(), 0u);

  q.push(13, entry(130));  // slot (13 & 7) = 5, one lap ahead
  q.push(7, entry(70));    // slot 7, still this lap
  EXPECT_EQ(q.pop().net(), 70u);
  EXPECT_EQ(q.time(), 7u);
  EXPECT_EQ(q.pop().net(), 130u);
  EXPECT_EQ(q.time(), 13u);
  EXPECT_EQ(q.wraps(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, LongRunManyWraps) {
  // Sustained operation across many laps: push one entry per tick for
  // several wheel circumferences; every pop returns the right net and
  // wraps() counts laps.
  CalendarQueue q{2};  // capacity 4
  std::uint64_t t = 0;
  for (int lap = 0; lap < 64; ++lap) {
    q.push(t + 1, entry(static_cast<c::NetId>(lap)));
    EXPECT_EQ(q.pop().net(), static_cast<c::NetId>(lap));
    t = q.time();
    EXPECT_EQ(t, static_cast<std::uint64_t>(lap) + 1);
  }
  // 65 ticks of cursor motion over a 4-slot wheel => 16 slot-0 crossings.
  EXPECT_EQ(q.wraps(), 16u);
}

TEST(CalendarQueue, SizeTracksPushesAndPops) {
  CalendarQueue q{3};
  EXPECT_TRUE(q.empty());
  q.push(0, entry(1));
  q.push(2, entry(2));
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(CalendarQueue, RebaseRestartsTheClockWithoutChangingOrder) {
  // The same relative schedule drained after a rebase pops in the same
  // order at the same relative times and counts the same wraps, however
  // far the clock had run before.
  const auto drain = [](CalendarQueue& q) {
    const std::uint64_t start = q.time();
    const std::uint64_t wraps = q.wraps();
    q.push(start, entry(1));
    q.push(start + 3, entry(2));
    q.push(start + 3, entry(3));
    std::vector<std::pair<std::uint64_t, c::NetId>> out;
    while (!q.empty()) {
      const c::NetId net = q.pop().net();
      out.emplace_back(q.time() - start, net);
      if (net == 1) q.push(q.time() + 5, entry(4));  // crosses slot 0
    }
    return std::make_pair(out, q.wraps() - wraps);
  };
  CalendarQueue fresh{6};  // capacity 8
  const auto want = drain(fresh);
  EXPECT_EQ(want.second, 0u);  // from tick 0, tick 5 is still lap 0

  CalendarQueue q{6};
  q.push(6, entry(9));  // run the clock to tick 13 (slot 5, one wrap)
  q.pop();
  q.push(13, entry(9));
  q.pop();
  ASSERT_EQ(q.time(), 13u);
  // Without a rebase the same schedule crosses slot 0 once more.
  EXPECT_NE(drain(q).second, want.second);
  q.rebase();
  EXPECT_EQ(q.time(), 0u);
  EXPECT_EQ(drain(q), want);
}

TEST(CalendarQueue, PoolGrowsInBlocksAndRecyclesChunks) {
  CalendarQueue q{2, 0};
  const std::size_t block =
      CalendarQueue::kBlockPages * CalendarQueue::kPageEntries;
  EXPECT_EQ(q.pool_capacity(), block);
  // Far more pending entries than one block holds: the pool adds whole
  // blocks and keeps every entry in FIFO order.
  const std::size_t n = 3 * block;
  for (std::size_t i = 0; i < n; ++i)
    q.push(1, entry(static_cast<c::NetId>(i)));
  const std::size_t grown = q.pool_capacity();
  EXPECT_EQ(grown % block, 0u);
  EXPECT_GE(grown, n);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(q.pop().net(), static_cast<c::NetId>(i));
  // A second round of the same size reuses the drained chunks.
  for (std::size_t i = 0; i < n; ++i) q.push(q.time(), entry(7));
  EXPECT_EQ(q.pool_capacity(), grown);
}

TEST(CalendarQueue, RunSpansSeveralPages) {
  // One slot's run over three and a half pages, interleaved with a
  // neighbouring slot: both drain in FIFO order, each at its own time.
  constexpr std::size_t kPage = CalendarQueue::kPageEntries;
  CalendarQueue q{2, 0};
  const std::size_t n = 3 * kPage + kPage / 2;
  for (std::size_t i = 0; i < n; ++i) {
    q.push(1, entry(static_cast<c::NetId>(i)));
    if (i % 7 == 0) q.push(2, entry(static_cast<c::NetId>(100000 + i)));
  }
  std::vector<std::pair<std::uint64_t, c::NetId>> got;
  q.drain([&](CalendarQueue::Entry e, std::uint64_t t) {
    got.emplace_back(t, e.net());
  });
  ASSERT_EQ(got.size(), n + (n + 6) / 7);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i].first, 1u);
    ASSERT_EQ(got[i].second, static_cast<c::NetId>(i));
  }
  for (std::size_t k = n, i = 0; k < got.size(); ++k, i += 7) {
    ASSERT_EQ(got[k].first, 2u);
    ASSERT_EQ(got[k].second, static_cast<c::NetId>(100000 + i));
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SameSlotAppendOnAPageEndIsSeenSamePass) {
  // The slot being drained is filled to one entry short of its tail
  // page's end (starting at the page's start, and mid-page). A
  // zero-delay append from the first entry takes that last entry,
  // moving the tail to a fresh page while the drain still reads the old
  // one; an append from that entry lands on the fresh page. The drain
  // must see both, in order, in the same pass.
  constexpr std::size_t kPage = CalendarQueue::kPageEntries;
  for (const std::size_t warm : {std::size_t{0}, kPage / 3}) {
    CalendarQueue q{0, 0};  // capacity 2
    for (std::size_t i = 0; i < warm; ++i) q.push(0, entry(1));
    while (!q.empty()) q.pop();  // the run now starts `warm` into its page
    const std::uint64_t t0 = q.time();
    const std::size_t fill = kPage - 1 - warm;
    for (std::size_t i = 0; i < fill; ++i)
      q.push(t0, entry(static_cast<c::NetId>(i)));
    const auto page_end = static_cast<c::NetId>(fill);
    const auto after = static_cast<c::NetId>(fill + 1);
    std::vector<c::NetId> got;
    q.drain([&](CalendarQueue::Entry e, std::uint64_t t) {
      EXPECT_EQ(t, t0);
      got.push_back(e.net());
      if (got.size() == 1) q.push(t, entry(page_end));
      if (e.net() == page_end) q.append(t, entry(after), true);
      if (e.net() == after) q.append(t, entry(999), false);  // dropped
    });
    ASSERT_EQ(got.size(), fill + 2) << "warm " << warm;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], static_cast<c::NetId>(i)) << "warm " << warm;
    EXPECT_TRUE(q.empty());
  }
}

TEST(CalendarQueue, SizeIsExactAcrossPageBoundaries) {
  // size() after every append, dropped candidate, pop and drained
  // entry, while runs cross several page ends in two slots.
  constexpr std::size_t kPage = CalendarQueue::kPageEntries;
  CalendarQueue q{1, 0};  // capacity 4
  std::size_t want = 0;
  for (std::size_t i = 0; i < 2 * kPage + 3; ++i) {
    q.append(1 + i % 2, entry(static_cast<c::NetId>(i)), true);
    ASSERT_EQ(q.size(), ++want);
    q.append(1 + i % 2, entry(static_cast<c::NetId>(i)), false);
    ASSERT_EQ(q.size(), want);
  }
  for (std::size_t i = 0; i < kPage + 1; ++i) {
    q.pop();
    ASSERT_EQ(q.size(), --want);
  }
  q.drain([&](CalendarQueue::Entry, std::uint64_t t) {
    ASSERT_EQ(q.size(), --want);
    if (want % 5 == 0 && t == 1) {  // zero- and unit-delay appends
      q.push(t, entry(1));
      q.push(t + 1, entry(2));
      want += 2;
      ASSERT_EQ(q.size(), want);
    }
  });
  EXPECT_EQ(want, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, DroppedCandidateIsOverwrittenByTheNextAppend) {
  CalendarQueue q{2};
  q.append(1, entry(10), false);
  q.append(1, entry(11), true);
  q.append(1, entry(12), false);
  q.append(2, entry(20), false);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().net(), 11u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, CopyKeepsPendingEntriesInOrder) {
  CalendarQueue q{4};
  q.push(0, entry(1));
  EXPECT_EQ(q.pop().net(), 1u);
  for (c::NetId n = 0; n < 40; ++n) q.push(1 + n % 4, entry(n));
  CalendarQueue copy = q;
  ASSERT_EQ(copy.size(), q.size());
  while (!q.empty()) {
    const c::NetId want = q.pop().net();
    ASSERT_EQ(copy.pop().net(), want);
    ASSERT_EQ(copy.time(), q.time());
  }
  EXPECT_TRUE(copy.empty());
}

TEST(CalendarQueue, ScalarEventPacksNetAndValue) {
  const lv::sim::ScalarEvent e{(1u << 30) - 1, c::Logic::x};
  EXPECT_EQ(e.net(), (1u << 30) - 1);
  EXPECT_EQ(e.value(), c::Logic::x);
  EXPECT_EQ(lv::sim::ScalarEvent(5, c::Logic::zero).value(), c::Logic::zero);
  EXPECT_EQ(lv::sim::ScalarEvent(5, c::Logic::one).value(), c::Logic::one);
}
