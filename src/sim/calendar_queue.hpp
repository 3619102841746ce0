// Calendar-queue (timing-wheel) event scheduler.
//
// The event kernels append every evaluation one tick ahead (unit
// delay), so a binary-heap priority queue is overkill: a wheel of 2^k
// slots, each holding a FIFO run of entries, gives O(1) append and O(1)
// consumption. Slot index is `time & mask`; because every pending time
// t satisfies now <= t <= now + horizon + 1 and the wheel is sized past
// that (capacity >= horizon + 2), distinct pending times can never
// collide in a slot, so no overflow list is needed. The kernels build
// their queues with horizon 1 (a 4-slot wheel).
//
// Ordering contract (what keeps ActivityStats bit-identical to the
// heap-based kernel): entries are consumed in strictly non-decreasing
// time, and same-time entries in append (FIFO) order — exactly the
// (time, seq) order the heap's global sequence-number tie-break
// produced, without storing either field. The kernels append at
// time() + 1 while draining; appending to the slot being drained is
// supported too (the drain re-reads the slot's tail after every entry,
// so such an entry is seen in the same pass).
//
// Consumption has one shape: drain(fn) walks the current slot's run in
// place, page by page, calls fn(entry, time) for each entry, and moves
// to the next non-empty slot once the run is used up. pop() is the same
// walk one entry at a time, for cold paths and tests.
//
// A slot's run is a chain of ~1 KiB pages (kPageEntries entries plus
// the link to the next page). A slot always owns a tail page with a
// free entry, so append(t, e, keep) writes `e` there unconditionally
// and advances the tail by `keep`: the kernel's "did the output change"
// test becomes an add, and the only branch left is the predictable
// page-end check. A page goes back to one shared freelist as soon as
// the drain has consumed it, so steady-state memory is one page per
// slot plus the *pending high-water mark*, not a per-slot capacity — and
// a warmed-up queue performs no heap allocation at all (pinned by
// tests/sim_alloc_test.cpp). The page pool grows in fixed blocks of
// kBlockPages pages and never moves a page, so a queue holds its
// high-water mark rounded up to a block — not the ~3x a doubling vector
// briefly needs while old and new storage coexist. `reserve_hint` (in
// entries) pre-allocates blocks.
//
// rebase() moves an empty queue's clock back to tick 0. Pending times
// are only ever compared relative to time(), so rebasing between drains
// changes no event order; it makes wraps() a sum over drains that each
// start at tick 0, independent of how much simulated time came before.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/logic.hpp"
#include "circuit/netlist.hpp"
#include "sim/word_logic.hpp"

namespace lv::sim {

// Generic over the event payload so the scalar kernel (one Logic per
// event) and the bit-parallel kernel (a 64-lane LogicW per event) share
// one scheduler implementation — and therefore one ordering contract.
template <class EntryT>
class WheelQueue {
 public:
  using Entry = EntryT;

  // Entries per page: as many as fit 1 KiB beside the link, >= 2.
  static constexpr std::uint32_t kPageEntries = static_cast<std::uint32_t>(
      std::max<std::size_t>(2, (1024 - sizeof(void*)) / sizeof(Entry)));
  static constexpr std::size_t kBlockPages = 16;

  // `horizon` bounds append times relative to the current time:
  // appends must satisfy time() <= t <= time() + horizon + 1 (the +1
  // admits the clock edge, scheduled one tick after quiescence).
  explicit WheelQueue(std::uint64_t horizon, std::size_t reserve_hint = 0) {
    std::uint64_t capacity = 2;
    while (capacity < horizon + 2) capacity <<= 1;
    mask_ = capacity - 1;
    // One page per slot, plus full pages for the hinted entries.
    while (pool_capacity() < reserve_hint + capacity * kPageEntries)
      add_block();
    slots_.resize(capacity);
    for (Slot& s : slots_) s.head = s.tail = take_page();
  }

  // A copy holds the same pending entries in the same order (and as
  // many pool blocks, so a warmed-up copy stays allocation-free).
  WheelQueue(const WheelQueue& other) : WheelQueue(other.capacity() - 2) {
    while (blocks_.size() < other.blocks_.size()) add_block();
    time_ = other.time_;
    for (std::uint64_t t = time_; t <= time_ + mask_; ++t)
      other.for_each_in_slot(t & mask_, [&](const Entry& e) { push(t, e); });
    wraps_ = other.wraps_;
  }
  WheelQueue& operator=(const WheelQueue& other) {
    if (this != &other) *this = WheelQueue{other};
    return *this;
  }
  WheelQueue(WheelQueue&&) noexcept = default;
  WheelQueue& operator=(WheelQueue&&) noexcept = default;
  ~WheelQueue() = default;

  bool empty() const { return pending_ == 0; }
  std::size_t size() const { return pending_; }

  // Time of the entry being (or last) consumed (the simulator's "now").
  std::uint64_t time() const { return time_; }

  // Number of times the consume cursor wrapped past slot 0
  // (observability).
  std::uint64_t wraps() const { return wraps_; }

  std::size_t capacity() const { return slots_.size(); }

  // Entries the page pool can hold (allocated blocks, in entries).
  std::size_t pool_capacity() const {
    return blocks_.size() * kBlockPages * kPageEntries;
  }

  // Writes `e` at the tail of time t's run and keeps it iff `keep`: a
  // dropped candidate costs one store and is overwritten by the slot's
  // next append.
  void append(std::uint64_t t, Entry e, bool keep) {
    Slot& s = slots_[t & mask_];
    s.tail->entries[s.tail_pos] = e;
    s.tail_pos += keep;
    pending_ += keep;
    if (s.tail_pos == kPageEntries) [[unlikely]] extend(s);
  }
  void push(std::uint64_t t, Entry e) { append(t, e, true); }

  // Consumes every pending entry in (time, FIFO) order: fn(entry, time)
  // runs once per entry with time() at the entry's time and size()
  // already excluding it. fn may append (at time() too: the drain sees
  // such entries in the same pass). If fn throws, the entry it was
  // given stays consumed and the rest stay pending.
  template <class Fn>
  void drain(Fn&& fn) {
    while (pending_ != 0) {
      Slot& s = seek();
      do fn(take(s), time_);
      while (!slot_empty(s));
    }
  }

  // Consumes the earliest entry (FIFO among same-time entries) and
  // advances time() to its timestamp. Precondition: !empty().
  Entry pop() { return take(seek()); }

  // Restarts the clock of an empty queue at tick 0. Precondition: empty().
  void rebase() { time_ = 0; }

 private:
  struct Page {
    Entry entries[kPageEntries];
    Page* next = nullptr;
  };
  // FIFO run: entries [head_pos, ...) of the head page through
  // [..., tail_pos) of the tail page. tail_pos < kPageEntries always, so
  // the tail page has room for the next append.
  struct Slot {
    Page* head = nullptr;
    Page* tail = nullptr;
    std::uint32_t head_pos = 0;
    std::uint32_t tail_pos = 0;
  };

  static bool slot_empty(const Slot& s) {
    return s.head == s.tail && s.head_pos == s.tail_pos;
  }

  // Moves the clock to the earliest non-empty slot, rewinding the empty
  // slots it passes to the start of their page. Precondition: !empty().
  Slot& seek() {
    for (;;) {
      Slot& s = slots_[time_ & mask_];
      if (!slot_empty(s)) return s;
      s.head_pos = s.tail_pos = 0;
      ++time_;
      if ((time_ & mask_) == 0) ++wraps_;
    }
  }

  // Consumes the head entry of a non-empty slot; a page used up goes
  // straight back to the freelist (it is never the tail, which always
  // has room).
  Entry take(Slot& s) {
    const Entry e = s.head->entries[s.head_pos++];
    --pending_;
    if (s.head_pos == kPageEntries) [[unlikely]] {
      Page* used = s.head;
      s.head = used->next;
      s.head_pos = 0;
      give_page(used);
    }
    return e;
  }

  void extend(Slot& s) {
    Page* p = take_page();
    s.tail->next = p;
    s.tail = p;
    s.tail_pos = 0;
  }

  Page* take_page() {
    if (free_ == nullptr) add_block();
    Page* p = free_;
    free_ = p->next;
    p->next = nullptr;
    return p;
  }
  void give_page(Page* p) {
    p->next = free_;
    free_ = p;
  }
  void add_block() {
    blocks_.push_back(std::make_unique<Page[]>(kBlockPages));
    Page* block = blocks_.back().get();
    for (std::size_t i = kBlockPages; i-- > 0;) give_page(block + i);
  }

  template <class Fn>
  void for_each_in_slot(std::uint64_t slot, Fn&& fn) const {
    const Slot& s = slots_[slot];
    for (const Page* p = s.head;; p = p->next) {
      const std::uint32_t begin = p == s.head ? s.head_pos : 0;
      const std::uint32_t end = p == s.tail ? s.tail_pos : kPageEntries;
      for (std::uint32_t i = begin; i < end; ++i) fn(p->entries[i]);
      if (p == s.tail) break;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<Page[]>> blocks_;  // page storage, never moved
  Page* free_ = nullptr;  // freelist of consumed pages
  std::uint64_t mask_ = 0;
  std::uint64_t time_ = 0;
  std::uint64_t pending_ = 0;
  std::uint64_t wraps_ = 0;
};

// One pending value change on one net, in one lane (scalar kernel) or
// across all 64 lanes (bit-parallel kernel). The scalar event packs a
// 30-bit net id and the 2-bit Logic code into one 4-byte word, 254 to a
// page; SimGraph rejects netlists too large for the id field.
struct ScalarEvent {
  static constexpr std::uint32_t kNetBits = 30;
  static constexpr std::uint32_t kNetMask = (1u << kNetBits) - 1;

  ScalarEvent() = default;
  ScalarEvent(circuit::NetId net, circuit::Logic value)
      : bits_{(net & kNetMask) |
              (static_cast<std::uint32_t>(value) << kNetBits)} {}

  circuit::NetId net() const { return bits_ & kNetMask; }
  circuit::Logic value() const {
    return static_cast<circuit::Logic>(bits_ >> kNetBits);
  }

 private:
  std::uint32_t bits_ = 0;
};
static_assert(sizeof(ScalarEvent) == 4);
struct WordEvent {
  circuit::NetId net;
  LogicW value;
};

using CalendarQueue = WheelQueue<ScalarEvent>;
using WordCalendarQueue = WheelQueue<WordEvent>;

}  // namespace lv::sim
