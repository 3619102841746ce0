// Paged FIFO of pending events for the unit-delay event kernel.
//
// Every gate has unit delay, so an event applied at tick t schedules
// its fanout's results at t + 1. Appends made while a drain consumes
// tick t therefore all belong to tick t + 1, and the entries pending at
// any moment are the rest of tick t followed by tick t + 1. Outside a
// drain, the simulator's stimulus (set_input, reset_flops, force_net)
// belongs to the tick about to be drained, and clock_cycle appends its
// flop edges after it, one tick later. Appending at the tail thus
// consumes entries in exactly the (time, FIFO) order of a time-ordered
// scheduler, with no time stored: same-tick entries come out in append
// order, and no entry of tick t + 1 comes out before the last of tick t.
//
// The FIFO is a chain of ~1 KiB pages (kPageEntries entries plus the
// link to the next page). The tail page always has a free entry, so
// append(e, keep) writes `e` there unconditionally and advances the tail
// by `keep`: the kernel's "did the output change" test becomes an add,
// and the only branch left is the predictable page-end check. A page
// goes back to one freelist as soon as the drain has consumed it, so the
// queue holds one page plus its *pending high-water mark*, not the sum
// of every tick's entries. The page pool grows in blocks of kBlockPages
// pages and never moves a page: a queue holds its high-water mark
// rounded up to a block, not the ~3x a doubling vector briefly needs
// while old and new storage coexist, and a warmed-up queue (or a copy
// of one) performs no heap allocation at all (pinned by
// tests/sim_alloc_test.cpp). `reserve_hint` (in entries) pre-allocates
// blocks.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/logic.hpp"
#include "circuit/netlist.hpp"

namespace lv::sim {

// One pending value change on one net: a 30-bit net id and the 2-bit
// Logic code packed into one 4-byte word, 254 to a page. SimGraph
// rejects netlists too large for the id field.
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

class EventQueue {
 public:
  using Entry = ScalarEvent;

  // Entries per page: as many as fit 1 KiB beside the link.
  static constexpr std::uint32_t kPageEntries =
      static_cast<std::uint32_t>((1024 - sizeof(void*)) / sizeof(Entry));
  static constexpr std::size_t kBlockPages = 16;

  explicit EventQueue(std::size_t reserve_hint = 0) {
    // The tail page, plus full pages for the hinted entries.
    while (pool_capacity() < reserve_hint + kPageEntries) add_block();
    head_ = tail_ = take_page();
  }

  // A copy holds the same pending entries in the same order, and as many
  // pool blocks, so a warmed-up copy stays allocation-free.
  EventQueue(const EventQueue& other) : EventQueue() {
    while (blocks_.size() < other.blocks_.size()) add_block();
    for (const Page* p = other.head_;; p = p->next) {
      const std::uint32_t begin = p == other.head_ ? other.head_pos_ : 0;
      const std::uint32_t end = p == other.tail_ ? other.tail_pos_
                                                 : kPageEntries;
      for (std::uint32_t i = begin; i < end; ++i) push(p->entries[i]);
      if (p == other.tail_) break;
    }
  }
  EventQueue& operator=(const EventQueue& other) {
    if (this != &other) *this = EventQueue{other};
    return *this;
  }
  EventQueue(EventQueue&&) noexcept = default;
  EventQueue& operator=(EventQueue&&) noexcept = default;

  bool empty() const { return pending_ == 0; }
  std::size_t size() const { return pending_; }

  // Entries the page pool can hold (allocated blocks, in entries).
  std::size_t pool_capacity() const {
    return blocks_.size() * kBlockPages * kPageEntries;
  }

  // Writes `e` at the tail and keeps it iff `keep`: a dropped candidate
  // costs one store and is overwritten by the next append.
  void append(Entry e, bool keep) {
    tail_->entries[tail_pos_] = e;
    tail_pos_ += keep;
    pending_ += keep;
    if (tail_pos_ == kPageEntries) [[unlikely]] {
      Page* p = take_page();
      tail_->next = p;
      tail_ = p;
      tail_pos_ = 0;
    }
  }
  void push(Entry e) { append(e, true); }

  // Consumes every pending entry in FIFO order: fn(entry) runs once per
  // entry with size() already excluding it. Entries fn appends are
  // consumed by the same drain. If fn throws, the entry it was given
  // stays consumed and the rest stay pending, in order.
  template <class Fn>
  void drain(Fn&& fn) {
    while (pending_ != 0) fn(pop());
  }

  // Consumes the oldest entry. Precondition: !empty(). A page used up
  // goes straight back to the freelist (it is never the tail, which
  // always has room).
  Entry pop() {
    const Entry e = head_->entries[head_pos_++];
    --pending_;
    if (head_pos_ == kPageEntries) [[unlikely]] {
      Page* used = head_;
      head_ = used->next;
      head_pos_ = 0;
      give_page(used);
    }
    return e;
  }

 private:
  struct Page {
    Entry entries[kPageEntries];
    Page* next = nullptr;
  };

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

  std::vector<std::unique_ptr<Page[]>> blocks_;  // page storage, never moved
  Page* free_ = nullptr;  // freelist of consumed pages
  // Pending entries: [head_pos_, ...) of the head page through
  // [..., tail_pos_) of the tail page; tail_pos_ < kPageEntries always.
  Page* head_ = nullptr;
  Page* tail_ = nullptr;
  std::uint32_t head_pos_ = 0;
  std::uint32_t tail_pos_ = 0;
  std::uint64_t pending_ = 0;
};

}  // namespace lv::sim
